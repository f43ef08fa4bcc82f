package redstore

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"splitft/internal/apps/applog"
	"splitft/internal/harness"
	"splitft/internal/simnet"
)

func testConfig(d applog.Durability) Config {
	cfg := DefaultConfig()
	cfg.Durability = d
	cfg.AOFRewriteBytes = 64 << 10
	cfg.AOFRegion = 512 << 10
	return cfg
}

func TestPipelinedBatching(t *testing.T) {
	c := harness.New(harness.Options{Seed: 2, NumPeers: 4})
	err := c.Run(func(p *simnet.Proc) error {
		fs, _ := c.NewFS(p, "redis", 0)
		s, err := Open(p, fs, testConfig(applog.SplitFT))
		if err != nil {
			return err
		}
		var wg simnet.WaitGroup
		const clients, each = 12, 40
		wg.Add(clients)
		for i := 0; i < clients; i++ {
			i := i
			p.GoOn(c.AppNode, fmt.Sprintf("cli%d", i), func(cp *simnet.Proc) {
				for j := 0; j < each; j++ {
					s.Set(cp, fmt.Sprintf("c%02d-%03d", i, j), []byte("v"))
				}
				wg.Done(cp)
			})
		}
		wg.Wait(p)
		if s.Ops != clients*each {
			return fmt.Errorf("ops = %d", s.Ops)
		}
		if s.Batches >= s.Ops {
			return fmt.Errorf("no batching: %d batches / %d ops", s.Batches, s.Ops)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRotatesAOF(t *testing.T) {
	c := harness.New(harness.Options{Seed: 3, NumPeers: 4})
	err := c.Run(func(p *simnet.Proc) error {
		fs, _ := c.NewFS(p, "redis", 0)
		s, err := Open(p, fs, testConfig(applog.SplitFT))
		if err != nil {
			return err
		}
		val := bytes.Repeat([]byte("x"), 120)
		for i := 0; i < 1500; i++ { // ~200KB of AOF > 64KB threshold
			if err := s.Set(p, fmt.Sprintf("key%05d", i), val); err != nil {
				return err
			}
		}
		p.Sleep(2 * time.Second)
		if s.Snapshots == 0 {
			return fmt.Errorf("no snapshot happened")
		}
		if rdbs := fs.ListDFS("/redis/dump-"); len(rdbs) == 0 {
			return fmt.Errorf("no rdb file on the dfs")
		}
		names, _ := fs.ListNCL(p)
		if len(names) != 1 {
			return fmt.Errorf("ncl files = %v, want only the active AOF", names)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	// In strong mode a read behind a write waits for the write's fsync —
	// the single-threaded behaviour behind Redis' poor YCSB-B results.
	c := harness.New(harness.Options{Seed: 8, NumPeers: 4})
	err := c.Run(func(p *simnet.Proc) error {
		fs, _ := c.NewFS(p, "redis", 0)
		s, err := Open(p, fs, testConfig(applog.Strong))
		if err != nil {
			return err
		}
		s.Set(p, "a", []byte("1"))
		done := simnet.NewChan[time.Duration](c.Sim)
		p.GoOn(c.AppNode, "writer", func(wp *simnet.Proc) {
			s.Set(wp, "b", []byte("2"))
		})
		p.GoOn(c.AppNode, "reader", func(rp *simnet.Proc) {
			rp.Sleep(10 * time.Microsecond) // queue behind the write
			start := rp.Now()
			s.Get(rp, "a")
			done.Send(rp, rp.Now()-start)
		})
		lat, _ := done.Recv(p)
		if lat < time.Millisecond {
			return fmt.Errorf("read latency %v; expected head-of-line blocking behind the fsync", lat)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
