package dfs

import (
	"testing"
	"time"

	"splitft/internal/simnet"
)

// Writeback throttling: fsync-less buffered writes pay a growing penalty as
// dirty data accumulates (the balance_dirty_pages effect that separates
// weak-mode log writes from SplitFT's, which bypass the dfs entirely).
func TestWritebackThrottleGrowsWithDirtyData(t *testing.T) {
	s := simnet.New(1)
	params := DefaultParams()
	params.WritebackInterval = time.Hour // keep dirty data around
	params.DirtyHighWater = 64 << 20
	cluster := NewCluster(s, "c", params)
	node := s.NewNode("n")
	client := cluster.Mount(node)
	var clean, dirtyish time.Duration
	node.Go("t", func(p *simnet.Proc) {
		f, _ := client.OpenFile(p, "/log", true, false)
		buf := make([]byte, 128)
		start := p.Now()
		f.Write(p, buf)
		clean = p.Now() - start

		// Pile up ~48MB dirty (75% of the high water mark).
		f.Write(p, make([]byte, 48<<20))
		start = p.Now()
		f.Write(p, buf)
		dirtyish = p.Now() - start
		s.Stop()
	})
	if err := s.RunUntil(time.Hour); err != nil {
		t.Fatal(err)
	}
	if dirtyish <= clean {
		t.Fatalf("no throttle: clean=%v dirty=%v", clean, dirtyish)
	}
	if dirtyish-clean < time.Microsecond {
		t.Fatalf("throttle too small to matter: %v", dirtyish-clean)
	}
	if dirtyish-clean > params.WritebackThrottleMax {
		t.Fatalf("throttle exceeds configured max: %v", dirtyish-clean)
	}
}

// Syncing drains dirty data, so the throttle disappears — strong-mode
// writers pay the fsync instead.
func TestThrottleClearsAfterSync(t *testing.T) {
	s := simnet.New(2)
	cluster := NewCluster(s, "c", DefaultParams())
	node := s.NewNode("n")
	client := cluster.Mount(node)
	node.Go("t", func(p *simnet.Proc) {
		f, _ := client.OpenFile(p, "/log", true, false)
		f.Write(p, make([]byte, 32<<20))
		f.Sync(p)
		buf := make([]byte, 128)
		start := p.Now()
		f.Write(p, buf)
		lat := p.Now() - start
		if lat > 2*time.Microsecond {
			t.Errorf("post-sync write still throttled: %v", lat)
		}
		s.Stop()
	})
	if err := s.RunUntil(time.Hour); err != nil {
		t.Fatal(err)
	}
}

// Throttling can be disabled entirely.
func TestThrottleDisabled(t *testing.T) {
	s := simnet.New(3)
	params := DefaultParams()
	params.WritebackThrottleMax = 0
	params.WritebackInterval = time.Hour
	cluster := NewCluster(s, "c", params)
	node := s.NewNode("n")
	client := cluster.Mount(node)
	node.Go("t", func(p *simnet.Proc) {
		f, _ := client.OpenFile(p, "/log", true, false)
		f.Write(p, make([]byte, 48<<20))
		start := p.Now()
		f.Write(p, make([]byte, 128))
		if lat := p.Now() - start; lat > 2*time.Microsecond {
			t.Errorf("throttle applied despite being disabled: %v", lat)
		}
		s.Stop()
	})
	if err := s.RunUntil(time.Hour); err != nil {
		t.Fatal(err)
	}
}
