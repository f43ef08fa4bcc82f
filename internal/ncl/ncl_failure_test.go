package ncl

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"splitft/internal/peer"
	"splitft/internal/simnet"
	"splitft/internal/wire"
)

// Mirror-specific failure modes: capacity limits and the append-only tail
// catch-up. Everything policy-agnostic is in TestPolicyConformance.

func TestRecordBeyondCapacity(t *testing.T) {
	c := newCluster(20, 3, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		l := c.newLib(p, t, "app1", 0)
		lg, err := l.Open(p, "wal", 256, false)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := lg.Record(p, 0, make([]byte, 256)); err != nil {
			t.Fatalf("exact-fit record: %v", err)
		}
		if err := lg.Record(p, 200, make([]byte, 100)); !errors.Is(err, ErrRegionFull) {
			t.Fatalf("overflow accepted: %v", err)
		}
		if err := lg.Record(p, -1, []byte("x")); !errors.Is(err, ErrRegionFull) {
			t.Fatalf("negative offset accepted: %v", err)
		}
	})
}

func TestAppendOnlyTailCatchup(t *testing.T) {
	// A lagging peer of an append-only log is caught up by shipping only
	// the missing tail into its existing region (§4.5.1's optimization):
	// after recovery its region matches without a staging switch.
	c := newCluster(26, 3, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		var lagging string
		var laggingKeyBefore uint64
		c.appNode.Go("app-v1", func(ap *simnet.Proc) {
			l, _ := NewLib(ap, c.svc, c.fabric, c.appNode, "app1", 0, DefaultConfig())
			lg, err := l.Open(ap, "wal", 1<<20, true)
			if err != nil {
				return
			}
			lg.Append(ap, []byte("AAAA"))
			ap.Sleep(time.Millisecond)
			lagging = lg.LivePeers()[2]
			c.sim.Net().Partition(c.appNode, c.pNodes[lagging])
			lg.Append(ap, []byte("BBBB"))
			lg.Append(ap, []byte("CCCC"))
			ap.Sleep(time.Hour)
		})
		p.Sleep(200 * time.Millisecond)
		c.appNode.Crash()
		c.sim.Net().Heal(c.appNode, c.pNodes[lagging])
		p.Sleep(10 * time.Millisecond)
		c.appNode.Restart()

		// Remember the lagging peer's region identity (rkey via lookup).
		look, err := wire.Call[peer.LookupResp](p, c.sim.Net(), c.appNode, peer.Addr(lagging), peer.LookupReq{App: "app1", File: "wal"})
		if err != nil {
			t.Fatalf("pre-recovery lookup: %v", err)
		}
		laggingKeyBefore = look.RKey

		l2, _ := NewLib(p, c.svc, c.fabric, c.appNode, "app1", 1, DefaultConfig())
		lg2, err := recoverSync(p, l2, "wal")
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if string(lg2.Bytes()) != "AAAABBBBCCCC" {
			t.Fatalf("recovered %q", lg2.Bytes())
		}
		// Tail shipping reuses the SAME region: the rkey must be unchanged
		// (a staging switch would have re-keyed it) and the content full.
		look, err = wire.Call[peer.LookupResp](p, c.sim.Net(), c.appNode, peer.Addr(lagging), peer.LookupReq{App: "app1", File: "wal"})
		if err != nil {
			t.Fatalf("post-recovery lookup: %v", err)
		}
		if got := look.RKey; got != laggingKeyBefore {
			t.Fatalf("append-only catch-up switched regions: rkey %d -> %d", laggingKeyBefore, got)
		}
		region, _ := c.peers[lagging].RegionBytes("app1", "wal")
		if string(region[HeaderSize:HeaderSize+12]) != "AAAABBBBCCCC" {
			t.Fatalf("lagging peer content = %q", region[HeaderSize:HeaderSize+12])
		}
		// Overwrites on an append-only log are rejected.
		if err := lg2.Record(p, 0, []byte("zz")); err == nil {
			t.Fatal("overwrite accepted on append-only log")
		}
		// Appends still work.
		if _, err := lg2.Append(p, []byte("DDDD")); err != nil {
			t.Fatalf("append after tail catch-up: %v", err)
		}
	})
}

// A recovery that fails — in the foreground, beyond the failure budget, or in
// its background phase, here with no peer left to replace a dead member —
// takes its procs, QPs and buffer with it and is forgotten by the lib, so a
// client that retries while the fault lasts does not pile them up. Before
// the one teardown, every failed Recover stranded a poller, a repair proc
// and a QP engine per reachable member.
func TestFailedRecoveryStrandsNothing(t *testing.T) {
	const attempts = 20
	c := newCluster(27, 3, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		lg, err := c.newLib(p, t, "app1", 0).Open(p, "wal", 64<<10, true)
		if err == nil {
			_, err = lg.Append(p, []byte("acknowledged"))
		}
		if err != nil {
			t.Fatalf("open and append: %v", err)
		}
		members := lg.LivePeers()
		c.appNode.Crash()
		c.appNode.Restart()
		l := c.newLib(p, t, "app1", 1)
		// settled lets closed procs run to their end before they are counted.
		settled := func() int { p.Sleep(time.Millisecond); return runtime.NumGoroutine() }

		c.pNodes[members[0]].Crash()
		before := settled()
		for i := 0; i < attempts; i++ {
			lg, err := l.Recover(p, "wal")
			if err != nil {
				t.Fatalf("attempt %d: recover with one member gone: %v", i, err)
			}
			buf := make([]byte, 12)
			if _, err := lg.ReadAt(p, buf, 0); err != nil || string(buf) != "acknowledged" {
				t.Fatalf("attempt %d: read %q, %v", i, buf, err)
			}
			if err := lg.Sync(p); !errors.Is(err, ErrNoPeers) {
				t.Fatalf("attempt %d: barrier with no peer to replace the dead member: %v, want ErrNoPeers", i, err)
			}
			if _, err := lg.Append(p, []byte("x")); !errors.Is(err, ErrNoPeers) {
				t.Fatalf("attempt %d: append to a log whose recovery failed: %v, want ErrNoPeers", i, err)
			}
		}
		if got := settled(); got-before >= attempts || len(l.logs) != 0 {
			t.Fatalf("%d recoveries that failed behind the application: goroutines %d -> %d, lib still holds %d logs",
				attempts, before, got, len(l.logs))
		}

		c.pNodes[members[1]].Crash()
		before = settled()
		for i := 0; i < attempts; i++ {
			if _, err := l.Recover(p, "wal"); !errors.Is(err, ErrUnavailable) {
				t.Fatalf("attempt %d: recover beyond the failure budget: %v, want ErrUnavailable", i, err)
			}
		}
		if got := settled(); got-before >= attempts || len(l.logs) != 0 {
			t.Fatalf("%d recoveries beyond the failure budget: goroutines %d -> %d, lib still holds %d logs",
				attempts, before, got, len(l.logs))
		}
	})
}
