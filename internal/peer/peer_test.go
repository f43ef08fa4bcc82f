package peer

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"splitft/internal/controller"
	"splitft/internal/rdma"
	"splitft/internal/simnet"
	"splitft/internal/trace"
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
		checkAccounting(t, fx.pr)
	})
	if err := fx.sim.RunUntil(time.Hour); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// checkAccounting is the peer's slice of a quiescence audit, run when a
// script ends: every lendable byte is idle, in a region or in a staging, the
// idle bytes counted as pinned exist, and no MR is on the free list twice or
// while a region still uses it.
func checkAccounting(t *testing.T, pr *Peer) {
	t.Helper()
	sum, live := pr.avail, map[*rdma.MR]bool{}
	hold := func(what string, reg *region) {
		sum += reg.size
		if live[reg.mr] {
			t.Errorf("%s shares its MR with another live region", what)
		}
		live[reg.mr] = true
	}
	for k, reg := range pr.regions {
		hold(k.app+"/"+k.file, reg)
	}
	for id, reg := range pr.staging {
		hold(fmt.Sprintf("staging %d", id), reg)
	}
	if sum != pr.cfg.LendableMem {
		t.Errorf("avail %d + regions + stagings = %d, want the %d lendable bytes", pr.avail, sum, pr.cfg.LendableMem)
	}
	if pr.pinned < 0 || pr.pinned > pr.avail {
		t.Errorf("%d idle bytes pinned of %d idle bytes", pr.pinned, pr.avail)
	}
	for size, pool := range pr.recycled {
		for _, mr := range pool {
			if live[mr] {
				t.Errorf("a %d-byte MR is on the free list twice, or there and live", size)
			}
			live[mr] = true
		}
	}
}

// chunkTime is how long the warmer takes over one full chunk.
func (fx *fixture) chunkTime() time.Duration {
	return fx.fabric.RegisterCost(warmChunk) - fx.fabric.Params().RegFixed
}

// warmSetup is what a set-up costs the peer when every byte it takes is
// pinned already.
func (fx *fixture) warmSetup() time.Duration {
	return fx.cfg.SetupCPU + fx.fabric.Params().RegFixed/10
}

// timed returns how long fn took on the virtual clock.
func timed(p *simnet.Proc, fn func()) time.Duration {
	start := p.Now()
	fn()
	return p.Now() - start
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
		// Allocate before the warmer has pinned anything, release, allocate
		// another size: the bytes came back pinned, so the second allocation
		// binds them under a fresh rkey without pinning, whatever its size.
		var r1, r2 SetupResp
		cold := timed(p, func() { r1, _ = fx.pr.onSetup(p, SetupReq{App: "a1", File: "f1", Size: 2 << 20, Epoch: 1}) })
		if want := fx.cfg.SetupCPU + fx.fabric.RegisterCost(2<<20); cold != want {
			t.Errorf("cold setup took %v, want a full registration, %v", cold, want)
		}
		copy(fx.pr.regions[regionKey{"a1", "f1"}].mr.Bytes(), "tenant one")
		fx.pr.onRelease(p, ReleaseReq{App: "a1", File: "f1"}) //nolint:errcheck
		if fx.pr.pinned != 2<<20 {
			t.Errorf("%d idle bytes pinned after the release, want the region's 2 MiB", fx.pr.pinned)
		}
		for _, size := range []int64{1 << 20, 2 << 20} {
			file := fmt.Sprintf("f%d", size)
			warm := timed(p, func() { r2, _ = fx.pr.onSetup(p, SetupReq{App: "a1", File: file, Size: size, Epoch: 1}) })
			if warm != fx.warmSetup() {
				t.Errorf("%d-byte setup on pinned bytes took %v, want %v", size, warm, fx.warmSetup())
			}
			if r1.RKey == r2.RKey {
				t.Error("recycled memory kept its old rkey")
			}
			// Recycled memory comes back zeroed (no cross-tenant leakage).
			region, _ := fx.pr.RegionBytes("a1", file)
			for i, b := range region[:64] {
				if b != 0 {
					t.Fatalf("recycled region leaked data at %d", i)
				}
			}
			fx.pr.onRelease(p, ReleaseReq{App: "a1", File: file}) //nolint:errcheck
		}
	})
}

// publishes counts the free-memory republications the peer proposed while fn
// ran, its background publisher procs given time to start.
func (fx *fixture) publishes(p *simnet.Proc, fn func()) int {
	col := trace.New()
	fx.sim.SetTracer(col)
	fn()
	p.Sleep(time.Millisecond)
	fx.sim.SetTracer(nil)
	n := 0
	for _, sp := range trace.Filter(col.Spans(), "controller", "set") {
		if sp.Node == fx.pNode.Name() {
			n++
		}
	}
	return n
}

// setup asks the peer for a region and fails the test if it refuses.
func (fx *fixture) setup(t *testing.T, p *simnet.Proc, r SetupReq) SetupResp {
	t.Helper()
	resp, err := call[SetupResp](fx, p, r)
	if err != nil {
		t.Fatalf("setup %+v: %v", r, err)
	}
	return resp
}

// A set-up that recycles a released file's region takes that region's bytes
// over: the same number of bytes lent, so nothing for the controller to hear,
// a bind (the bytes are pinned), a new rkey under which the old one writes
// nothing, a tombstone that a lookup of the released file answers with, and a
// retry of it finds the region it made.
func TestRecycleSetupKeepsAvailAndRetiresOldKey(t *testing.T) {
	fx := newFixture(14, testCfg())
	fx.run(t, func(p *simnet.Proc) {
		old := fx.setup(t, p, SetupReq{App: "a1", File: "wal-1", Size: 1 << 20, Epoch: 1})
		avail := fx.pr.Avail()
		req := SetupReq{App: "a1", File: "wal-2", Size: 1 << 20, Epoch: 1, Recycle: "wal-1"}
		var resp SetupResp
		var took time.Duration
		if n := fx.publishes(p, func() { took = timed(p, func() { resp = fx.setup(t, p, req) }) }); n != 0 {
			t.Errorf("recycle set-up published free memory %d times, want none", n)
		}
		if fx.pr.Avail() != avail || fx.pr.Regions() != 1 {
			t.Errorf("avail %d with %d regions after the recycle, want %d with one", fx.pr.Avail(), fx.pr.Regions(), avail)
		}
		if _, ok := fx.pr.RegionBytes("a1", "wal-1"); ok {
			t.Error("the recycled file still has a region")
		}
		if _, err := call[LookupResp](fx, p, LookupReq{App: "a1", File: "wal-1"}); !errors.Is(err, ErrReleased) {
			t.Errorf("lookup of the recycled file: %v, want its tombstone (%v)", err, ErrReleased)
		}
		if rtt := 2 * 5 * time.Microsecond; took > fx.warmSetup()+2*rtt {
			t.Errorf("recycle set-up took %v, want a bind (%v) and a round trip", took, fx.warmSetup())
		}
		write := func(rkey uint64, data string) error {
			cq := rdma.NewCQ(fx.sim)
			qp, err := fx.appNIC.Connect(p, "peerA", cq)
			if err != nil {
				t.Fatalf("connect: %v", err)
			}
			defer qp.Close(p)
			qp.PostWrite(p, rkey, 0, []byte(data), 0)
			c, _ := cq.Poll(p)
			return c.Err
		}
		if err := write(old.RKey, "stale"); !errors.Is(err, rdma.ErrRemoteAccess) {
			t.Errorf("write through the recycled region's old rkey: %v", err)
		}
		if err := write(resp.RKey, "fresh"); err != nil {
			t.Errorf("write through the new rkey: %v", err)
		}
		// The same request again — a retry of an ambiguous attempt — is the
		// duplicate set-up: the region it made, contents and all.
		if again := fx.setup(t, p, req); again.RKey != resp.RKey || fx.pr.Avail() != avail {
			t.Errorf("retried recycle set-up: rkey %d (was %d), avail %d (was %d)", again.RKey, resp.RKey, fx.pr.Avail(), avail)
		}
		if region, _ := fx.pr.RegionBytes("a1", "wal-2"); string(region[:5]) != "fresh" {
			t.Errorf("retried recycle set-up lost what was written: %q", region[:5])
		}
	})
}

// A recycle whose region is gone — the GC took it, or the peer restarted — is
// a plain set-up, and publishes what it took.
func TestRecycleOfMissingRegionIsPlainSetup(t *testing.T) {
	fx := newFixture(15, testCfg())
	fx.run(t, func(p *simnet.Proc) {
		n := fx.publishes(p, func() {
			fx.setup(t, p, SetupReq{App: "a1", File: "wal-2", Size: 1 << 20, Epoch: 1, Recycle: "wal-1"})
		})
		if n != 1 || fx.pr.Avail() != 7<<20 || fx.pr.Regions() != 1 {
			t.Errorf("%d publications, avail %d, %d regions: want 1, 7 MiB and the new region", n, fx.pr.Avail(), fx.pr.Regions())
		}
	})
}

// Recycling the file's own name — a truncating re-create of a log the
// application held — gives a zeroed region under a new rkey, whatever epoch
// the released one had reached.
func TestRecycleOwnNameZeroesRegion(t *testing.T) {
	fx := newFixture(16, testCfg())
	fx.run(t, func(p *simnet.Proc) {
		old := fx.setup(t, p, SetupReq{App: "a1", File: "wal", Size: 1 << 20, Epoch: 3})
		region, _ := fx.pr.RegionBytes("a1", "wal")
		copy(region, "old tenant")
		resp := fx.setup(t, p, SetupReq{App: "a1", File: "wal", Size: 1 << 20, Epoch: 1, Recycle: "wal"})
		if resp.RKey == old.RKey {
			t.Error("recycled region kept its rkey")
		}
		region, _ = fx.pr.RegionBytes("a1", "wal")
		for i, b := range region[:64] {
			if b != 0 {
				t.Fatalf("recycled region holds the old bytes at %d", i)
			}
		}
		if look, err := call[LookupResp](fx, p, LookupReq{App: "a1", File: "wal"}); err != nil || look.Epoch != 1 || look.RKey != resp.RKey {
			t.Errorf("lookup after the recycle: %+v, %v", look, err)
		}
	})
}

// registered reads the free memory the controller's registry holds for the
// peer.
func (fx *fixture) registered(t *testing.T, p *simnet.Proc) int64 {
	t.Helper()
	info, ok, err := controller.NewClient(fx.svc, fx.app, "reader", 0).GetPeer(p, fx.pNode.Name())
	if err != nil || !ok {
		t.Fatalf("registry entry: found %v, %v", ok, err)
	}
	return info.AvailMem
}

// One publisher per peer: a burst of changes costs at most two proposals —
// the first change's, and one for everything that changed while it was in
// flight — and what the registry ends up with is the peer's free memory.
func TestPublisherCoalescesBurstInFlight(t *testing.T) {
	fx := newFixture(17, testCfg())
	fx.run(t, func(p *simnet.Proc) {
		p.Sleep(100 * time.Millisecond) // warm: a set-up is a bind, shorter than a proposal
		for burst := 0; burst < 2; burst++ {
			n := fx.publishes(p, func() {
				for i := 0; i < 3; i++ {
					file := fmt.Sprintf("b%d-%d", burst, i)
					if _, err := fx.pr.onSetup(p, SetupReq{App: "a1", File: file, Size: 1 << 20, Epoch: 1}); err != nil {
						t.Fatalf("setup %s: %v", file, err)
					}
					if i > 0 {
						fx.pr.onRelease(p, ReleaseReq{App: "a1", File: fmt.Sprintf("b%d-%d", burst, i-1)}) //nolint:errcheck
					}
				}
				p.Sleep(100 * time.Millisecond)
			})
			if n != 2 {
				t.Errorf("burst %d of 5 changes cost %d proposals, want 2: the first, and one for the rest", burst, n)
			}
			if got := fx.registered(t, p); got != fx.pr.Avail() {
				t.Errorf("burst %d: the registry says %d bytes free, the peer has %d", burst, got, fx.pr.Avail())
			}
		}
	})
}

// Above 0 the publisher waits PublishInterval from the first change, so two
// changes inside it cost one proposal, and that proposal carries the later
// value. A peer whose free memory then stays put proposes nothing, however
// many intervals pass.
func TestPublisherWaitsIntervalAndSendsLatest(t *testing.T) {
	cfg := testCfg()
	cfg.PublishInterval = 10 * time.Millisecond
	fx := newFixture(18, cfg)
	fx.run(t, func(p *simnet.Proc) {
		col := trace.New()
		fx.sim.SetTracer(col)
		fx.setup(t, p, SetupReq{App: "a1", File: "f1", Size: 1 << 20, Epoch: 1})
		first := p.Now() // the change, and the reply's one-way trip
		p.Sleep(cfg.PublishInterval / 2)
		fx.setup(t, p, SetupReq{App: "a1", File: "f2", Size: 1 << 20, Epoch: 1})
		p.Sleep(2 * cfg.PublishInterval)
		fx.sim.SetTracer(nil)
		var sets []*trace.Span
		for _, sp := range trace.Filter(col.Spans(), "controller", "set") {
			if sp.Node == fx.pNode.Name() {
				sets = append(sets, sp)
			}
		}
		if len(sets) != 1 {
			t.Fatalf("two changes inside one interval cost %d proposals, want 1", len(sets))
		}
		if at := sets[0].Start - first; at > cfg.PublishInterval || at < cfg.PublishInterval-100*time.Microsecond {
			t.Errorf("published %v after the first set-up returned, want one interval (%v) after its change", at, cfg.PublishInterval)
		}
		if got := fx.registered(t, p); got != 6<<20 || got != fx.pr.Avail() {
			t.Errorf("the registry says %d bytes free, want the later value, %d", got, fx.pr.Avail())
		}
		if n := fx.publishes(p, func() { p.Sleep(10 * cfg.PublishInterval) }); n != 0 {
			t.Errorf("an idle peer proposed %d times over 10 intervals", n)
		}
	})
}

// A set-up that races the warmer takes what is pinned so far and pins the
// shortfall itself, without waiting; the warmer goes on with what is still
// cold, so that between them every lendable byte is pinned exactly once.
func TestSetupRacingWarmerPaysItsShortfall(t *testing.T) {
	cfg := testCfg()
	cfg.LendableMem = 4 * warmChunk
	fx := newFixture(10, cfg)
	fx.run(t, func(p *simnet.Proc) {
		start := p.Now()
		p.Sleep(fx.chunkTime() * 3 / 2) // one chunk pinned, the second in hand
		const size = warmChunk + 8<<20
		took := timed(p, func() {
			if _, err := fx.pr.onSetup(p, SetupReq{App: "a1", File: "wal", Size: size, Epoch: 1}); err != nil {
				t.Fatalf("setup: %v", err)
			}
		})
		if want := fx.cfg.SetupCPU + fx.fabric.RegisterCost(8<<20); took != want {
			t.Errorf("setup took %v, want %v: the 8 MiB that were not pinned yet and nothing else", took, want)
		}
		for fx.pr.pinned < fx.pr.avail {
			p.Sleep(100 * time.Microsecond)
		}
		// The warmer pinned 4 chunks less the set-up's 8 MiB.
		if got, want := p.Now()-start, fx.chunkTime()*7/2; got < want || got > want+100*time.Microsecond {
			t.Errorf("warm-up ended after %v, want %v: no byte pinned twice", got, want)
		}
		if fx.pr.avail != cfg.LendableMem-size {
			t.Errorf("avail = %d", fx.pr.avail)
		}
	})
}

// What a daemon pinned dies with it: the restarted one starts cold and warms
// up from nothing, and the old warmer does not run on.
func TestRestartMidWarmUpStartsCold(t *testing.T) {
	cfg := testCfg()
	cfg.LendableMem = 4 * warmChunk
	fx := newFixture(11, cfg)
	fx.run(t, func(p *simnet.Proc) {
		p.Sleep(fx.chunkTime() * 3 / 2)
		old := fx.pr
		if old.pinned != warmChunk {
			t.Fatalf("%d bytes pinned after a chunk and a half, want one chunk", old.pinned)
		}
		fx.pNode.Crash()
		fx.pNode.Restart()
		pr, err := Start(p, fx.svc, fx.fabric, fx.pNode, fx.cfg)
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		fx.pr = pr
		if pr.pinned != 0 {
			t.Errorf("restarted daemon starts with %d bytes pinned", pr.pinned)
		}
		cold := timed(p, func() { pr.onSetup(p, SetupReq{App: "a1", File: "wal", Size: 1 << 20, Epoch: 1}) }) //nolint:errcheck
		if want := fx.cfg.SetupCPU + fx.fabric.RegisterCost(1<<20); cold != want {
			t.Errorf("setup on the restarted daemon took %v, want a full registration, %v", cold, want)
		}
		p.Sleep(4 * fx.chunkTime())
		if old.pinned != warmChunk {
			t.Errorf("the crashed daemon's warmer ran on: %d bytes pinned", old.pinned)
		}
		if pr.pinned != pr.avail {
			t.Errorf("restarted daemon has %d of %d idle bytes pinned after a full warm-up", pr.pinned, pr.avail)
		}
	})
}

// Revoke, the switch that retires a region, and the GC of a staging nobody
// switched in all give their bytes back pinned: once the warmer is done no
// idle byte is ever cold again, and a set-up of everything the peer lends is
// a bind.
func TestFreedBytesStayPinned(t *testing.T) {
	cfg := testCfg()
	cfg.GCInterval = 300 * time.Millisecond
	cfg.GCGrace = 600 * time.Millisecond
	fx := newFixture(12, cfg)
	fx.run(t, func(p *simnet.Proc) {
		mustStage := func() AllocStagingResp {
			st, err := fx.pr.onAllocStaging(p, AllocStagingReq{App: "a1", File: "wal", Size: 1 << 20, Epoch: 1})
			if err != nil {
				t.Fatalf("staging: %v", err)
			}
			return st
		}
		fx.pr.onSetup(p, SetupReq{App: "a1", File: "wal", Size: 1 << 20, Epoch: 1})                    //nolint:errcheck
		controller.NewClient(fx.svc, fx.app, "a1", 0).SetAppFile(p, "a1", "wal", controller.FileEntry{ //nolint:errcheck
			Peers: []string{"peerA"}, Epoch: 2, RegionSize: 1 << 20,
		}, 0)
		st := mustStage()
		mustStage() // abandoned
		if err := fx.pr.onCommitSwitch(p, CommitSwitchReq{App: "a1", File: "wal", StagingID: st.StagingID, Epoch: 2}); err != nil {
			t.Fatalf("switch: %v", err)
		}
		p.Sleep(cfg.GCGrace + 2*cfg.GCInterval)
		if !fx.pr.Revoke(p, "a1", "wal") {
			t.Fatal("nothing to revoke")
		}
		if fx.pr.avail != cfg.LendableMem || fx.pr.pinned != fx.pr.avail || len(fx.pr.staging) != 0 {
			t.Fatalf("avail %d, pinned %d, %d stagings: want all %d bytes idle and pinned",
				fx.pr.avail, fx.pr.pinned, len(fx.pr.staging), cfg.LendableMem)
		}
		all := timed(p, func() { fx.pr.onSetup(p, SetupReq{App: "a2", File: "all", Size: cfg.LendableMem, Epoch: 1}) }) //nolint:errcheck
		if all != fx.warmSetup() {
			t.Errorf("setup of all lendable memory took %v, want %v", all, fx.warmSetup())
		}
	})
}

// A registration that fails because the NIC went down under it puts back
// what it took, pinned bytes as pinned.
func TestNICDownMidSetupLeaksNothing(t *testing.T) {
	cfg := testCfg()
	cfg.LendableMem = 4 * warmChunk
	fx := newFixture(13, cfg)
	fx.run(t, func(p *simnet.Proc) {
		p.Sleep(fx.chunkTime() * 3 / 2)
		fx.sim.Go("crash", func(cp *simnet.Proc) {
			cp.Sleep(time.Millisecond)
			fx.pNode.Crash()
		})
		// From the test's proc, which the crash does not kill.
		if _, err := fx.pr.newRegion(p, warmChunk+8<<20, 1); !errors.Is(err, rdma.ErrNICDown) {
			t.Fatalf("registration across a crash: %v", err)
		}
		if fx.pr.avail != cfg.LendableMem || fx.pr.pinned != warmChunk {
			t.Errorf("avail %d, pinned %d after the failed set-up, want %d and the one chunk", fx.pr.avail, fx.pr.pinned, cfg.LendableMem)
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
// by age: the memory is lendable again, still pinned. A staging younger than
// the grace period — a catch-up still writing into it — is left alone.
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
