package rdma

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"splitft/internal/simnet"
)

type fixture struct {
	sim    *simnet.Sim
	fabric *Fabric
	app    *simnet.Node
	peer   *simnet.Node
	appNIC *NIC
	prNIC  *NIC
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	s := simnet.New(1)
	f := NewFabric(s, DefaultParams())
	app := s.NewNode("app")
	peer := s.NewNode("peer")
	s.Net().SetLatency(app, peer, 1*time.Microsecond)
	return &fixture{sim: s, fabric: f, app: app, peer: peer,
		appNIC: f.AttachNIC(app), prNIC: f.AttachNIC(peer)}
}

func run(t *testing.T, s *simnet.Sim) {
	t.Helper()
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	fx := newFixture(t)
	region := make([]byte, 4096)
	var mr *MR
	fx.peer.Go("setup", func(p *simnet.Proc) {
		var err error
		mr, err = fx.prNIC.RegisterMR(p, region, int64(len(region)))
		if err != nil {
			t.Errorf("register: %v", err)
		}
	})
	fx.app.Go("writer", func(p *simnet.Proc) {
		p.Sleep(10 * time.Millisecond) // wait for registration
		cq := NewCQ(fx.sim)
		qp, err := fx.appNIC.Connect(p, "peer", cq)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		payload := []byte("hello near-compute log")
		qp.PostWrite(p, mr.RKey(), 100, payload, 7)
		c, _ := cq.Poll(p)
		if c.Err != nil || c.Ctx != 7 {
			t.Errorf("write completion: %+v", c)
		}
		// The write landed in peer memory with no peer CPU involvement.
		if !bytes.Equal(region[100:100+len(payload)], payload) {
			t.Errorf("remote memory = %q", region[100:100+len(payload)])
		}
		// Read it back through the fabric.
		into := make([]byte, len(payload))
		qp.PostRead(p, mr.RKey(), 100, into, 8)
		c, _ = cq.Poll(p)
		if c.Err != nil || !bytes.Equal(into, payload) {
			t.Errorf("read completion err=%v data=%q", c.Err, into)
		}
	})
	run(t, fx.sim)
}

func TestSQOrderingAndCompletionOrder(t *testing.T) {
	fx := newFixture(t)
	region := make([]byte, 1<<20)
	var mr *MR
	fx.peer.Go("setup", func(p *simnet.Proc) { mr, _ = fx.prNIC.RegisterMR(p, region, int64(len(region))) })
	fx.app.Go("writer", func(p *simnet.Proc) {
		p.Sleep(10 * time.Millisecond)
		cq := NewCQ(fx.sim)
		qp, err := fx.appNIC.Connect(p, "peer", cq)
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		// Post a large then a tiny WR: despite the size difference the tiny
		// one must complete second (send-queue ordering).
		qp.PostWrite(p, mr.RKey(), 0, make([]byte, 512*1024), 1)
		qp.PostWrite(p, mr.RKey(), 0, []byte{1}, 2)
		c1, _ := cq.Poll(p)
		c2, _ := cq.Poll(p)
		if c1.Ctx != 1 || c2.Ctx != 2 {
			t.Errorf("completion order: %v then %v, want 1 then 2", c1.Ctx, c2.Ctx)
		}
	})
	run(t, fx.sim)
}

func TestWriteLatencyModel(t *testing.T) {
	fx := newFixture(t)
	region := make([]byte, 4096)
	var mr *MR
	fx.peer.Go("setup", func(p *simnet.Proc) { mr, _ = fx.prNIC.RegisterMR(p, region, int64(len(region))) })
	fx.app.Go("writer", func(p *simnet.Proc) {
		p.Sleep(10 * time.Millisecond)
		cq := NewCQ(fx.sim)
		qp, _ := fx.appNIC.Connect(p, "peer", cq)
		start := p.Now()
		qp.PostWrite(p, mr.RKey(), 0, make([]byte, 128), 0)
		cq.Poll(p)
		lat := p.Now() - start
		// 1.5us base + 128B/3GB/s ~= 1.54us.
		if lat < time.Microsecond || lat > 3*time.Microsecond {
			t.Errorf("128B write latency = %v, want ~1.5us", lat)
		}
	})
	run(t, fx.sim)
}

func TestRemoteCrashErrorsAndFlushesQP(t *testing.T) {
	fx := newFixture(t)
	region := make([]byte, 4096)
	var mr *MR
	fx.peer.Go("setup", func(p *simnet.Proc) { mr, _ = fx.prNIC.RegisterMR(p, region, int64(len(region))) })
	fx.app.Go("writer", func(p *simnet.Proc) {
		p.Sleep(10 * time.Millisecond)
		cq := NewCQ(fx.sim)
		qp, _ := fx.appNIC.Connect(p, "peer", cq)
		qp.PostWrite(p, mr.RKey(), 0, []byte{1}, 1)
		if c, _ := cq.Poll(p); c.Err != nil {
			t.Fatalf("pre-crash write failed: %v", c.Err)
		}
		fx.peer.Crash()
		qp.PostWrite(p, mr.RKey(), 0, []byte{2}, 2)
		qp.PostWrite(p, mr.RKey(), 0, []byte{3}, 3)
		c2, _ := cq.Poll(p)
		c3, _ := cq.Poll(p)
		if !errors.Is(c2.Err, ErrRemoteDown) {
			t.Errorf("first post-crash completion = %v, want remote-down", c2.Err)
		}
		if !errors.Is(c3.Err, ErrQPError) {
			t.Errorf("second post-crash completion = %v, want flushed", c3.Err)
		}
		if !qp.Errored() {
			t.Error("qp not in error state")
		}
	})
	run(t, fx.sim)
}

func TestCrashedPeerLosesRegistrations(t *testing.T) {
	fx := newFixture(t)
	region := make([]byte, 64)
	var mr *MR
	fx.peer.Go("setup", func(p *simnet.Proc) { mr, _ = fx.prNIC.RegisterMR(p, region, int64(len(region))) })
	fx.app.Go("test", func(p *simnet.Proc) {
		p.Sleep(10 * time.Millisecond)
		fx.peer.Crash()
		p.Sleep(time.Millisecond)
		fx.peer.Restart()
		newNIC := fx.fabric.AttachNIC(fx.peer)
		_ = newNIC
		cq := NewCQ(fx.sim)
		qp, err := fx.appNIC.Connect(p, "peer", cq)
		if err != nil {
			t.Fatalf("reconnect: %v", err)
		}
		// The old rkey must be gone after the peer lost its memory.
		qp.PostWrite(p, mr.RKey(), 0, []byte{9}, 0)
		if c, _ := cq.Poll(p); !errors.Is(c.Err, ErrRemoteAccess) {
			t.Errorf("write with stale rkey: %v, want access error", c.Err)
		}
	})
	run(t, fx.sim)
}

func TestInvalidateRevokesAccess(t *testing.T) {
	fx := newFixture(t)
	region := make([]byte, 64)
	var mr *MR
	fx.peer.Go("setup", func(p *simnet.Proc) { mr, _ = fx.prNIC.RegisterMR(p, region, int64(len(region))) })
	fx.app.Go("test", func(p *simnet.Proc) {
		p.Sleep(10 * time.Millisecond)
		cq := NewCQ(fx.sim)
		qp, _ := fx.appNIC.Connect(p, "peer", cq)
		mr.Invalidate() // peer revokes its memory (local, instantaneous)
		qp.PostWrite(p, mr.RKey(), 0, []byte{1}, 0)
		if c, _ := cq.Poll(p); !errors.Is(c.Err, ErrRemoteAccess) {
			t.Errorf("write to revoked region: %v", c.Err)
		}
	})
	run(t, fx.sim)
}

func TestBoundsChecking(t *testing.T) {
	fx := newFixture(t)
	region := make([]byte, 64)
	var mr *MR
	fx.peer.Go("setup", func(p *simnet.Proc) { mr, _ = fx.prNIC.RegisterMR(p, region, int64(len(region))) })
	fx.app.Go("test", func(p *simnet.Proc) {
		p.Sleep(10 * time.Millisecond)
		cq := NewCQ(fx.sim)
		qp, _ := fx.appNIC.Connect(p, "peer", cq)
		qp.PostWrite(p, mr.RKey(), 60, []byte("toolong"), 0)
		if c, _ := cq.Poll(p); !errors.Is(c.Err, ErrRemoteAccess) {
			t.Errorf("out-of-bounds write: %v", c.Err)
		}
	})
	run(t, fx.sim)
}

func TestPartitionCausesTransportError(t *testing.T) {
	fx := newFixture(t)
	region := make([]byte, 64)
	var mr *MR
	fx.peer.Go("setup", func(p *simnet.Proc) { mr, _ = fx.prNIC.RegisterMR(p, region, int64(len(region))) })
	fx.app.Go("test", func(p *simnet.Proc) {
		p.Sleep(10 * time.Millisecond)
		cq := NewCQ(fx.sim)
		qp, _ := fx.appNIC.Connect(p, "peer", cq)
		fx.sim.Net().Partition(fx.app, fx.peer)
		start := p.Now()
		qp.PostWrite(p, mr.RKey(), 0, []byte{1}, 0)
		c, _ := cq.Poll(p)
		if !errors.Is(c.Err, ErrRemoteDown) {
			t.Errorf("partitioned write: %v", c.Err)
		}
		if p.Now()-start < retryTimeout {
			t.Errorf("error reported before retry timeout: %v", p.Now()-start)
		}
	})
	run(t, fx.sim)
}

func TestConnectToDeadNodeFails(t *testing.T) {
	fx := newFixture(t)
	fx.app.Go("test", func(p *simnet.Proc) {
		fx.peer.Crash()
		cq := NewCQ(fx.sim)
		if _, err := fx.appNIC.Connect(p, "peer", cq); !errors.Is(err, ErrRemoteDown) {
			t.Errorf("connect to dead peer: %v", err)
		}
		if _, err := fx.appNIC.Connect(p, "ghost", cq); !errors.Is(err, ErrNoNIC) {
			t.Errorf("connect to unknown node: %v", err)
		}
	})
	run(t, fx.sim)
}

func TestRegistrationCostScalesWithSize(t *testing.T) {
	fx := newFixture(t)
	var small, large time.Duration
	fx.peer.Go("reg", func(p *simnet.Proc) {
		start := p.Now()
		if _, err := fx.prNIC.RegisterMR(p, make([]byte, 4096), 4096); err != nil {
			t.Errorf("register small: %v", err)
		}
		small = p.Now() - start
		start = p.Now()
		if _, err := fx.prNIC.RegisterMR(p, make([]byte, 60<<20), 60<<20); err != nil {
			t.Errorf("register large: %v", err)
		}
		large = p.Now() - start
	})
	run(t, fx.sim)
	if large < 10*small {
		t.Errorf("60MB registration (%v) should dwarf 4KB (%v)", large, small)
	}
	// Table 3 target: ~50ms for a 60MB region.
	if large < 30*time.Millisecond || large > 90*time.Millisecond {
		t.Errorf("60MB registration = %v, want ~52ms", large)
	}
}

// Registration is pin + bind: bytes pinned ahead of it (NIC.Pin) are not
// paid for again, a registration that pins nothing is rkey programming only,
// and pinning everything ahead costs what the cold registration pinned.
func TestRegistrationPaysOnlyForColdBytes(t *testing.T) {
	fx := newFixture(t)
	pm := DefaultParams()
	const size = 6 << 20
	fx.peer.Go("reg", func(p *simnet.Proc) {
		took := func(fn func() error) time.Duration {
			start := p.Now()
			if err := fn(); err != nil {
				t.Errorf("register: %v", err)
			}
			return p.Now() - start
		}
		register := func(cold int64) func() error {
			return func() error { _, err := fx.prNIC.RegisterMR(p, make([]byte, size), cold); return err }
		}
		cold, part, warm := took(register(size)), took(register(size/4)), took(register(0))
		pin := took(func() error { return fx.prNIC.Pin(p, size) })
		if cold != fx.fabric.RegisterCost(size) || part != fx.fabric.RegisterCost(size/4) || warm != pm.RegFixed/10 {
			t.Errorf("cold %v, a quarter cold %v, warm %v; want %v, %v, %v",
				cold, part, warm, fx.fabric.RegisterCost(size), fx.fabric.RegisterCost(size/4), pm.RegFixed/10)
		}
		if pin+pm.RegFixed != cold {
			t.Errorf("pin %v + RegFixed %v != cold registration %v", pin, pm.RegFixed, cold)
		}
	})
	run(t, fx.sim)
}

// Property: any sequence of writes to random offsets is reflected exactly in
// peer memory, in order, when all complete successfully.
func TestQuickWritesApplyInOrder(t *testing.T) {
	type wspec struct {
		Off  uint16
		Data []byte
	}
	f := func(specs []wspec) bool {
		if len(specs) == 0 || len(specs) > 32 {
			return true
		}
		s := simnet.New(3)
		fab := NewFabric(s, DefaultParams())
		app := s.NewNode("app")
		peer := s.NewNode("peer")
		appNIC := fab.AttachNIC(app)
		prNIC := fab.AttachNIC(peer)
		region := make([]byte, 1<<17)
		shadow := make([]byte, 1<<17)
		var mr *MR
		okAll := true
		peer.Go("setup", func(p *simnet.Proc) { mr, _ = prNIC.RegisterMR(p, region, int64(len(region))) })
		app.Go("writer", func(p *simnet.Proc) {
			p.Sleep(10 * time.Millisecond)
			cq := NewCQ(s)
			qp, err := appNIC.Connect(p, "peer", cq)
			if err != nil {
				okAll = false
				return
			}
			for _, sp := range specs {
				if len(sp.Data) == 0 {
					continue
				}
				off := int(sp.Off) % (len(region) - len(sp.Data))
				qp.PostWrite(p, mr.RKey(), off, sp.Data, 0)
				copy(shadow[off:], sp.Data)
			}
			for _, sp := range specs {
				if len(sp.Data) == 0 {
					continue
				}
				if c, _ := cq.Poll(p); c.Err != nil {
					okAll = false
				}
			}
			if !bytes.Equal(region, shadow) {
				okAll = false
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
