package peer

import (
	"errors"
	"testing"
	"time"

	"splitft/internal/controller"
	"splitft/internal/rdma"
	"splitft/internal/simnet"
	"splitft/internal/wire"
)

type fixture struct {
	sim    *simnet.Sim
	svc    *controller.Service
	fabric *rdma.Fabric
	pNode  *simnet.Node
	app    *simnet.Node
	appNIC *rdma.NIC
	pr     *Peer
	cfg    Config
}

func newFixture(seed int64, cfg Config) *fixture {
	s := simnet.New(seed)
	s.Net().SetDefaultLatency(5 * time.Microsecond)
	ctrlNodes := []*simnet.Node{s.NewNode("ctrl0"), s.NewNode("ctrl1"), s.NewNode("ctrl2")}
	fx := &fixture{
		sim:    s,
		svc:    controller.Start(s, ctrlNodes, controller.DefaultConfig()),
		fabric: rdma.NewFabric(s, rdma.DefaultParams()),
		pNode:  s.NewNode("peerA"),
		app:    s.NewNode("app"),
	}
	fx.appNIC = fx.fabric.AttachNIC(fx.app)
	fx.cfg = cfg
	return fx
}

func (fx *fixture) run(t *testing.T, fn func(p *simnet.Proc)) {
	t.Helper()
	fx.sim.Go("test", func(p *simnet.Proc) {
		defer fx.sim.Stop()
		p.Sleep(time.Second)
		pr, err := Start(p, fx.svc, fx.fabric, fx.pNode, fx.cfg)
		if err != nil {
			t.Errorf("start peer: %v", err)
			return
		}
		fx.pr = pr
		fn(p)
	})
	if err := fx.sim.RunUntil(time.Hour); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// call is the typed RPC helper: the response type is named at the call
// site, everything else is inferred.
func call[Resp any, PResp wire.Unmarshaler[Resp], Req wire.Marshaler](
	fx *fixture, p *simnet.Proc, req Req,
) (Resp, error) {
	return wire.Call[Resp, PResp](p, fx.sim.Net(), fx.app, Addr("peerA"), req)
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.LendableMem = 8 << 20
	return cfg
}

func TestSetupLookupRelease(t *testing.T) {
	fx := newFixture(1, testCfg())
	fx.run(t, func(p *simnet.Proc) {
		resp, err := call[SetupResp](fx, p, SetupReq{App: "a1", File: "wal", Size: 1 << 20, Epoch: 1})
		if err != nil {
			t.Fatalf("setup: %v", err)
		}
		rkey := resp.RKey
		if rkey == 0 {
			t.Fatal("zero rkey")
		}
		if fx.pr.Avail() != 7<<20 {
			t.Errorf("avail = %d after setup", fx.pr.Avail())
		}
		// Lookup returns the same region.
		lresp, err := call[LookupResp](fx, p, LookupReq{App: "a1", File: "wal"})
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		look := lresp
		if look.RKey != rkey || look.Size != 1<<20 || look.Epoch != 1 {
			t.Errorf("lookup = %+v", look)
		}
		// The region is remotely writable via the returned key.
		cq := rdma.NewCQ(fx.sim)
		qp, err := fx.appNIC.Connect(p, "peerA", cq)
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		qp.PostWrite(p, rkey, 0, []byte("hello"), 0)
		if c, _ := cq.Poll(p); c.Err != nil {
			t.Fatalf("remote write: %v", c.Err)
		}
		if region, ok := fx.pr.RegionBytes("a1", "wal"); !ok || string(region[:5]) != "hello" {
			t.Errorf("region content wrong")
		}
		// Release frees it; lookups now fail; memory back in the pool.
		if _, err := call[wire.Ack](fx, p, ReleaseReq{App: "a1", File: "wal"}); err != nil {
			t.Fatalf("release: %v", err)
		}
		if _, err := call[LookupResp](fx, p, LookupReq{App: "a1", File: "wal"}); !errors.Is(err, ErrNotFound) {
			t.Errorf("lookup after release: %v", err)
		}
		if fx.pr.Avail() != 8<<20 {
			t.Errorf("avail = %d after release", fx.pr.Avail())
		}
		// And the old key no longer grants access.
		qp.PostWrite(p, rkey, 0, []byte("x"), 0)
		if c, _ := cq.Poll(p); !errors.Is(c.Err, rdma.ErrRemoteAccess) {
			t.Errorf("write with released key: %v", c.Err)
		}
	})
}

func TestSetupRejectsWhenOutOfMemory(t *testing.T) {
	fx := newFixture(2, testCfg())
	fx.run(t, func(p *simnet.Proc) {
		if _, err := call[SetupResp](fx, p, SetupReq{App: "a1", File: "f1", Size: 6 << 20, Epoch: 1}); err != nil {
			t.Fatalf("first setup: %v", err)
		}
		_, err := call[SetupResp](fx, p, SetupReq{App: "a1", File: "f2", Size: 4 << 20, Epoch: 1})
		if !errors.Is(err, ErrNoMem) {
			t.Fatalf("over-commit allowed: %v", err)
		}
	})
}

func TestSetupRejectsStaleEpoch(t *testing.T) {
	fx := newFixture(3, testCfg())
	fx.run(t, func(p *simnet.Proc) {
		if _, err := call[SetupResp](fx, p, SetupReq{App: "a1", File: "wal", Size: 1 << 20, Epoch: 5}); err != nil {
			t.Fatalf("setup: %v", err)
		}
		_, err := call[SetupResp](fx, p, SetupReq{App: "a1", File: "wal", Size: 1 << 20, Epoch: 3})
		if !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("stale epoch accepted: %v", err)
		}
		// Same or newer epoch replaces the region (ambiguous-retry path).
		if _, err := call[SetupResp](fx, p, SetupReq{App: "a1", File: "wal", Size: 1 << 20, Epoch: 6}); err != nil {
			t.Fatalf("newer epoch rejected: %v", err)
		}
		if fx.pr.Regions() != 1 {
			t.Errorf("regions = %d", fx.pr.Regions())
		}
	})
}

func TestStagingAndAtomicSwitch(t *testing.T) {
	fx := newFixture(4, testCfg())
	fx.run(t, func(p *simnet.Proc) {
		resp, _ := call[SetupResp](fx, p, SetupReq{App: "a1", File: "wal", Size: 1 << 20, Epoch: 1})
		oldKey := resp.RKey
		sresp, err := call[AllocStagingResp](fx, p, AllocStagingReq{App: "a1", File: "wal", Size: 1 << 20, Epoch: 1})
		if err != nil {
			t.Fatalf("staging: %v", err)
		}
		stg := sresp
		// Write recovered content into staging.
		cq := rdma.NewCQ(fx.sim)
		qp, _ := fx.appNIC.Connect(p, "peerA", cq)
		qp.PostWrite(p, stg.RKey, 0, []byte("recovered!"), 0)
		if c, _ := cq.Poll(p); c.Err != nil {
			t.Fatalf("staging write: %v", c.Err)
		}
		// Commit the switch: mr-map now points at the staged region.
		if _, err := call[wire.Ack](fx, p, CommitSwitchReq{App: "a1", File: "wal", StagingID: stg.StagingID, Epoch: 2}); err != nil {
			t.Fatalf("switch: %v", err)
		}
		lresp, _ := call[LookupResp](fx, p, LookupReq{App: "a1", File: "wal"})
		look := lresp
		if look.RKey != stg.RKey || look.Epoch != 2 {
			t.Errorf("lookup after switch = %+v", look)
		}
		region, _ := fx.pr.RegionBytes("a1", "wal")
		if string(region[:10]) != "recovered!" {
			t.Errorf("switched content = %q", region[:10])
		}
		// The old region's key is dead.
		qp.PostWrite(p, oldKey, 0, []byte("x"), 0)
		if c, _ := cq.Poll(p); !errors.Is(c.Err, rdma.ErrRemoteAccess) {
			t.Errorf("old key still valid: %v", c.Err)
		}
		// Memory accounting: old region freed, staging promoted.
		if fx.pr.Avail() != 7<<20 {
			t.Errorf("avail = %d", fx.pr.Avail())
		}
	})
}

func TestCommitSwitchUnknownStaging(t *testing.T) {
	fx := newFixture(5, testCfg())
	fx.run(t, func(p *simnet.Proc) {
		_, err := call[wire.Ack](fx, p, CommitSwitchReq{App: "a1", File: "wal", StagingID: 99, Epoch: 1})
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("bogus staging id accepted: %v", err)
		}
	})
}

func TestRegionRecycling(t *testing.T) {
	fx := newFixture(6, testCfg())
	fx.run(t, func(p *simnet.Proc) {
		// Allocate, release, allocate the same size: the second allocation
		// reuses the pinned region (fast path) under a fresh rkey.
		r1, _ := call[SetupResp](fx, p, SetupReq{App: "a1", File: "f1", Size: 1 << 20, Epoch: 1})
		call[wire.Ack](fx, p, ReleaseReq{App: "a1", File: "f1"}) //nolint:errcheck
		start := p.Now()
		r2, err := call[SetupResp](fx, p, SetupReq{App: "a1", File: "f2", Size: 1 << 20, Epoch: 1})
		if err != nil {
			t.Fatalf("recycled setup: %v", err)
		}
		fastSetup := p.Now() - start
		if fx.pr.Recycles != 1 {
			t.Errorf("recycles = %d", fx.pr.Recycles)
		}
		if r1.RKey == r2.RKey {
			t.Error("recycled region kept its old rkey")
		}
		// Recycled setup skips the multi-ms registration.
		if fastSetup > 2*time.Millisecond {
			t.Errorf("recycled setup took %v", fastSetup)
		}
		// Recycled regions come back zeroed (no cross-tenant leakage).
		region, _ := fx.pr.RegionBytes("a1", "f2")
		for i, b := range region[:64] {
			if b != 0 {
				t.Fatalf("recycled region leaked data at %d", i)
			}
		}
	})
}

func TestGCFreesOrphansKeepsCurrent(t *testing.T) {
	cfg := testCfg()
	cfg.GCInterval = 300 * time.Millisecond
	cfg.GCGrace = 600 * time.Millisecond
	fx := newFixture(7, cfg)
	fx.run(t, func(p *simnet.Proc) {
		ctrl := controller.NewClient(fx.svc, fx.app, "a1", 0)
		// Region with a matching ap-map entry: kept.
		call[SetupResp](fx, p, SetupReq{App: "a1", File: "live", Size: 1 << 20, Epoch: 2}) //nolint:errcheck
		ctrl.SetAppFile(p, "a1", "live", controller.FileEntry{                             //nolint:errcheck
			Peers: []string{"peerA"}, Epoch: 2, RegionSize: 1 << 20,
		}, 0)
		// Region whose epoch the app moved past: freed.
		call[SetupResp](fx, p, SetupReq{App: "a1", File: "stale", Size: 1 << 20, Epoch: 1}) //nolint:errcheck
		ctrl.SetAppFile(p, "a1", "stale", controller.FileEntry{                             //nolint:errcheck
			Peers: []string{"peerB"}, Epoch: 3, RegionSize: 1 << 20,
		}, 0)
		// Region never recorded in the ap-map: freed after the grace period.
		call[SetupResp](fx, p, SetupReq{App: "ghost", File: "leak", Size: 1 << 20, Epoch: 1}) //nolint:errcheck
		// Region with an epoch NEWER than the ap-map (allocation in
		// progress): kept.
		call[SetupResp](fx, p, SetupReq{App: "a1", File: "pending", Size: 1 << 20, Epoch: 9}) //nolint:errcheck
		ctrl.SetAppFile(p, "a1", "pending", controller.FileEntry{                             //nolint:errcheck
			Peers: []string{"peerA"}, Epoch: 8, RegionSize: 1 << 20,
		}, 0)

		p.Sleep(2 * time.Second)
		check := func(app, file string, want bool) {
			_, ok := fx.pr.RegionBytes(app, file)
			if ok != want {
				t.Errorf("region %s/%s present=%v, want %v", app, file, ok, want)
			}
		}
		check("a1", "live", true)     // epoch matches + member
		check("a1", "stale", false)   // app moved to a newer epoch
		check("ghost", "leak", false) // never in the ap-map
		check("a1", "pending", true)  // allocation newer than ap-map
	})
}

// An application that dies between AllocStaging and CommitSwitch abandons
// its staging region. Nothing will ever switch it in, so the GC reclaims it
// by age: the memory is lendable again and the pinned region is back in the
// recycle pool. A staging younger than the grace period — a catch-up still
// writing into it — is left alone.
func TestGCReclaimsAbandonedStaging(t *testing.T) {
	cfg := testCfg()
	cfg.GCInterval = 300 * time.Millisecond
	cfg.GCGrace = 600 * time.Millisecond
	fx := newFixture(9, cfg)
	fx.run(t, func(p *simnet.Proc) {
		for i := 0; i < 3; i++ {
			if _, err := call[AllocStagingResp](fx, p, AllocStagingReq{App: "a1", File: "wal", Size: 1 << 20, Epoch: 1}); err != nil {
				t.Fatalf("staging %d: %v", i, err)
			}
		}
		p.Sleep(cfg.GCGrace + 2*cfg.GCInterval)
		young, err := call[AllocStagingResp](fx, p, AllocStagingReq{App: "a1", File: "wal", Size: 1 << 20, Epoch: 1})
		if err != nil {
			t.Fatalf("staging after the sweep: %v", err)
		}
		if fx.pr.Recycles != 1 {
			t.Errorf("recycles = %d, want the fourth staging on a reclaimed pinned region", fx.pr.Recycles)
		}
		p.Sleep(cfg.GCInterval)
		if got := fx.pr.Avail(); got != 7<<20 || len(fx.pr.staging) != 1 {
			t.Errorf("avail = %d MiB with %d stagings, want 7 MiB and the young one", got>>20, len(fx.pr.staging))
		}
		if _, err := call[wire.Ack](fx, p, CommitSwitchReq{App: "a1", File: "wal", StagingID: young.StagingID, Epoch: 1}); err != nil {
			t.Errorf("switch to the young staging: %v", err)
		}
	})
}

func TestCrashLosesMrMap(t *testing.T) {
	fx := newFixture(8, testCfg())
	fx.run(t, func(p *simnet.Proc) {
		call[SetupResp](fx, p, SetupReq{App: "a1", File: "wal", Size: 1 << 20, Epoch: 1}) //nolint:errcheck
		fx.pNode.Crash()
		p.Sleep(10 * time.Millisecond)
		fx.pNode.Restart()
		pr2, err := Start(p, fx.svc, fx.fabric, fx.pNode, fx.cfg)
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		if pr2.Regions() != 0 {
			t.Errorf("restarted peer kept %d regions", pr2.Regions())
		}
		if _, err := call[LookupResp](fx, p, LookupReq{App: "a1", File: "wal"}); !errors.Is(err, ErrNotFound) {
			t.Errorf("restarted peer served a stale lookup: %v", err)
		}
	})
}
