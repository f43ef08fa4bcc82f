package kvell

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
	cfg.JournalBytes = 64 << 10
	cfg.JournalRegion = 256 << 10
	return cfg
}

func withStore(t *testing.T, seed int64, d applog.Durability, fn func(p *simnet.Proc, c *harness.Cluster, s *Store)) {
	t.Helper()
	c := harness.New(harness.Options{Seed: seed, NumPeers: 4})
	err := c.Run(func(p *simnet.Proc) error {
		fs, err := c.NewFS(p, "kvell", 0)
		if err != nil {
			return err
		}
		s, err := Open(p, fs, testConfig(d))
		if err != nil {
			return err
		}
		fn(p, c, s)
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestFlushConvertsJournalToChunks(t *testing.T) {
	withStore(t, 2, applog.SplitFT, func(p *simnet.Proc, c *harness.Cluster, s *Store) {
		val := bytes.Repeat([]byte("x"), 200)
		for i := 0; i < 1000; i++ { // ~230KB >> 64KB threshold
			if err := s.Put(p, fmt.Sprintf("k%05d", i%400), val); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		p.Sleep(2 * time.Second)
		st := s.Stats()
		if st.Flushes == 0 || st.Chunks == 0 {
			t.Fatalf("no chunk flush: %+v", st)
		}
		// Chunks are on the dfs; only the active journal remains in NCL.
		if n := len(s.fs.ListDFS("/kvell/chunk-")); n != st.Chunks {
			t.Errorf("dfs chunks = %d, stats %d", n, st.Chunks)
		}
		names, _ := s.fs.ListNCL(p)
		if len(names) != 1 {
			t.Errorf("ncl journals = %v, want only the active one", names)
		}
		// All values still readable (journal + chunk paths).
		for i := 0; i < 400; i++ {
			v, ok, err := s.Get(p, fmt.Sprintf("k%05d", i))
			if err != nil || !ok || !bytes.Equal(v, val) {
				t.Fatalf("get after flush: %v %v", ok, err)
			}
		}
	})
}

func TestRandomWriteLatencyNCLTierVsDFTSync(t *testing.T) {
	lat := func(d applog.Durability) time.Duration {
		var avg time.Duration
		withStore(t, 3, d, func(p *simnet.Proc, c *harness.Cluster, s *Store) {
			val := bytes.Repeat([]byte("r"), 120)
			start := p.Now()
			const n = 300
			for i := 0; i < n; i++ {
				s.Put(p, fmt.Sprintf("rnd%07d", (i*7919)%100000), val)
			}
			avg = (p.Now() - start) / n
		})
		return avg
	}
	sync := lat(applog.Strong)
	tier := lat(applog.SplitFT)
	if tier*50 > sync {
		t.Fatalf("NCL tier (%v) should be orders faster than dft-sync (%v) for random writes", tier, sync)
	}
}

func TestRecoveryAfterCrashMidFlush(t *testing.T) {
	// Crash while a chunk flush is in flight: the chunk may be incomplete
	// (no magic), but the journal still holds the data.
	c := harness.New(harness.Options{Seed: 7, NumPeers: 4})
	err := c.Run(func(p *simnet.Proc) error {
		total := 0
		c.AppNode.Go("app-v1", func(ap *simnet.Proc) {
			fs, _ := c.NewFS(ap, "kvell", 0)
			cfg := testConfig(applog.SplitFT)
			s, err := Open(ap, fs, cfg)
			if err != nil {
				return
			}
			val := bytes.Repeat([]byte("m"), 200)
			for i := 0; ; i++ {
				if err := s.Put(ap, fmt.Sprintf("k%05d", i), val); err != nil {
					return
				}
				total = i + 1
				if s.flushing != nil { // crash window: flush in flight
					break
				}
			}
			ap.Sleep(time.Hour)
		})
		p.Sleep(300 * time.Millisecond)
		c.CrashApp()
		p.Sleep(10 * time.Millisecond)
		c.RestartApp()
		fs2, _ := c.NewFS(p, "kvell", 1)
		s2, err := Recover(p, fs2, testConfig(applog.SplitFT))
		if err != nil {
			return err
		}
		for i := 0; i < total; i++ {
			if _, ok, _ := s2.Get(p, fmt.Sprintf("k%05d", i)); !ok {
				return fmt.Errorf("k%05d lost across mid-flush crash", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChunkCodecRoundtrip(t *testing.T) {
	c := harness.New(harness.Options{Seed: 8, NumPeers: 3})
	err := c.Run(func(p *simnet.Proc) error {
		fs, _ := c.NewFS(p, "kvell", 0)
		records := map[string][]byte{}
		for i := 0; i < 300; i++ {
			records[fmt.Sprintf("key%04d", i)] = []byte(fmt.Sprintf("value-%d", i))
		}
		f, idx, err := writeChunk(p, fs, "/c/x.kv", records)
		if err != nil {
			return err
		}
		f.Close(p)
		f2, idx2, err := readChunkIndex(p, fs, "/c/x.kv")
		if err != nil {
			return err
		}
		if len(idx2) != len(idx) {
			return fmt.Errorf("index sizes differ: %d vs %d", len(idx2), len(idx))
		}
		for k, want := range records {
			ent := idx2[k]
			buf := make([]byte, ent.vlen)
			if _, err := f2.Pread(p, buf, ent.off); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("key %s = %q, want %q", k, buf, want)
			}
		}
		// A torn chunk is rejected.
		g, _ := fs.OpenFile(p, "/c/torn.kv", 1, 0) // O_CREATE
		g.Write(p, []byte("garbage without a trailer"))
		g.Sync(p)
		if _, _, err := readChunkIndex(p, fs, "/c/torn.kv"); err == nil {
			return fmt.Errorf("torn chunk accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
