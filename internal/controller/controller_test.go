package controller

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"splitft/internal/simnet"
)

type fixture struct {
	sim    *simnet.Sim
	svc    *Service
	cNodes []*simnet.Node
}

func newFixture(seed int64) *fixture {
	s := simnet.New(seed)
	nodes := []*simnet.Node{s.NewNode("ctrl0"), s.NewNode("ctrl1"), s.NewNode("ctrl2")}
	svc := Start(s, nodes, DefaultConfig())
	return &fixture{sim: s, svc: svc, cNodes: nodes}
}

func (fx *fixture) run(t *testing.T, d time.Duration) {
	t.Helper()
	if err := fx.sim.RunUntil(d); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestPeerRegistrationAndList(t *testing.T) {
	fx := newFixture(1)
	app := fx.sim.NewNode("app")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second) // controller election
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("peer%d", i)
			pn := fx.sim.NewNode(name)
			c := NewClient(fx.svc, pn, name, 0)
			if err := c.StartSession(p); err != nil {
				t.Errorf("session %s: %v", name, err)
			}
			if err := c.RegisterPeer(p, PeerInfo{Name: name, Addr: name + "/rpc", AvailMem: int64(i+1) << 30}); err != nil {
				t.Errorf("register %s: %v", name, err)
			}
		}
		ac := NewClient(fx.svc, app, "app1", 0)
		// The registry carries every registration whole; which entries are
		// candidates and in what order is ncl-lib's business.
		peers, err := ac.ListPeers(p)
		if err != nil || len(peers) != 4 {
			t.Fatalf("list = %v, %v; want 4 peers", peers, err)
		}
		for _, q := range peers {
			var i int
			fmt.Sscanf(q.Name, "peer%d", &i)
			if q.Addr != q.Name+"/rpc" || q.AvailMem != int64(i+1)<<30 {
				t.Errorf("registration mangled: %+v", q)
			}
		}
		fx.sim.Stop()
	})
	fx.run(t, time.Minute)
}

func TestPeerSessionExpiryRemovesRegistration(t *testing.T) {
	fx := newFixture(2)
	peerNode := fx.sim.NewNode("peerX")
	app := fx.sim.NewNode("app")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		c := NewClient(fx.svc, peerNode, "peerX", 0)
		c.StartSession(p)
		c.RegisterPeer(p, PeerInfo{Name: "peerX", Addr: "x", AvailMem: 1 << 30})
		ac := NewClient(fx.svc, app, "app1", 0)
		if peers, _ := ac.ListPeers(p); len(peers) != 1 {
			t.Errorf("peer not visible before crash")
		}
		peerNode.Crash() // keepalive proc dies with the node
		p.Sleep(3 * fx.svc.cfg.SessionTimeout)
		if peers, _ := ac.ListPeers(p); len(peers) != 0 {
			t.Errorf("dead peer still registered: %v", peers)
		}
		fx.sim.Stop()
	})
	fx.run(t, time.Minute)
}

func TestApMapCASAndListing(t *testing.T) {
	fx := newFixture(3)
	app := fx.sim.NewNode("app")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		c := NewClient(fx.svc, app, "app1", 0)
		e := FileEntry{Peers: []string{"p1", "p2", "p3"}, Epoch: 1, RegionSize: 1 << 20}
		v, err := c.SetAppFile(p, "app1", "wal-000", e, 0)
		if err != nil {
			t.Fatalf("set: %v", err)
		}
		got, v2, found, err := c.GetAppFile(p, "app1", "wal-000")
		if err != nil || !found || v2 != v || got.Epoch != 1 || len(got.Peers) != 3 {
			t.Fatalf("get = %+v v=%d found=%v err=%v", got, v2, found, err)
		}
		// CAS with the right version succeeds, with a stale version fails.
		e.Epoch = 2
		if _, err := c.SetAppFile(p, "app1", "wal-000", e, v2); err != nil {
			t.Errorf("cas: %v", err)
		}
		if _, err := c.SetAppFile(p, "app1", "wal-000", e, v2); !errors.Is(err, ErrBadVersion) {
			t.Errorf("stale cas: %v, want bad version", err)
		}
		// Version 0 is "no entry seen": a create, which an existing entry fails.
		if _, err := c.SetAppFile(p, "app1", "wal-000", e, 0); !errors.Is(err, ErrExists) {
			t.Errorf("create over an entry: %v, want exists", err)
		}
		c.SetAppFile(p, "app1", "wal-001", FileEntry{Epoch: 1}, 0)
		files, err := c.ListAppFiles(p, "app1")
		if err != nil || len(files) != 2 {
			t.Fatalf("list = %v, %v", files, err)
		}
		if files["wal-000"].Epoch != 2 {
			t.Errorf("wal-000 entry = %+v", files["wal-000"])
		}
		if err := c.DeleteAppFile(p, "app1", "wal-000"); err != nil {
			t.Errorf("delete: %v", err)
		}
		if err := c.DeleteAppFile(p, "app1", "wal-000"); err != nil {
			t.Errorf("idempotent delete: %v", err)
		}
		files, _ = c.ListAppFiles(p, "app1")
		if len(files) != 1 {
			t.Errorf("after delete: %v", files)
		}
		fx.sim.Stop()
	})
	fx.run(t, time.Minute)
}

func TestServerLockSingleInstance(t *testing.T) {
	fx := newFixture(4)
	n1 := fx.sim.NewNode("inst1")
	n2 := fx.sim.NewNode("inst2")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		c1 := NewClient(fx.svc, n1, "app1-server", 0)
		c1.StartSession(p)
		if err := c1.AcquireServerLock(p, "app1"); err != nil {
			t.Fatalf("first acquire: %v", err)
		}
		// Same fencing token (a concurrent duplicate instance): must lose.
		c2 := NewClient(fx.svc, n2, "app1-server", 0)
		c2.StartSession(p)
		if err := c2.AcquireServerLock(p, "app1"); !errors.Is(err, ErrFenced) {
			t.Fatalf("duplicate instance acquired the lock: %v", err)
		}
		fx.sim.Stop()
	})
	fx.run(t, time.Minute)
}

func TestServerLockTakeoverAfterCrash(t *testing.T) {
	fx := newFixture(5)
	n1 := fx.sim.NewNode("inst1")
	n2 := fx.sim.NewNode("inst2")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		c1 := NewClient(fx.svc, n1, "app1-server", 0)
		c1.StartSession(p)
		c1.AcquireServerLock(p, "app1")
		n1.Crash()
		// Recovery on another machine with a higher fencing token takes over
		// immediately — no session-expiry wait.
		c2 := NewClient(fx.svc, n2, "app1-server", 1)
		c2.StartSession(p)
		start := p.Now()
		if err := c2.AcquireServerLock(p, "app1"); err != nil {
			t.Fatalf("takeover: %v", err)
		}
		if p.Now()-start > 100*time.Millisecond {
			t.Errorf("takeover took %v, want fast", p.Now()-start)
		}
		fx.sim.Stop()
	})
	fx.run(t, time.Minute)
}

func TestControllerSurvivesNodeFailure(t *testing.T) {
	fx := newFixture(6)
	app := fx.sim.NewNode("app")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		c := NewClient(fx.svc, app, "app1", 0)
		if _, err := c.SetAppFile(p, "a", "f", FileEntry{Epoch: 1}, 0); err != nil {
			t.Fatalf("set before: %v", err)
		}
		fx.cNodes[0].Crash()
		// The ensemble keeps serving with 2/3.
		if _, err := c.SetAppFile(p, "a", "g", FileEntry{Epoch: 1}, 0); err != nil {
			t.Fatalf("set during failure: %v", err)
		}
		e, _, found, err := c.GetAppFile(p, "a", "f")
		if err != nil || !found || e.Epoch != 1 {
			t.Fatalf("get during failure: %+v %v %v", e, found, err)
		}
		// Restart the node; it rejoins and the ensemble still works.
		fx.cNodes[0].Restart()
		fx.svc.RestartNode(fx.cNodes[0])
		p.Sleep(time.Second)
		if _, err := c.SetAppFile(p, "a", "h", FileEntry{Epoch: 1}, 0); err != nil {
			t.Fatalf("set after rejoin: %v", err)
		}
		fx.sim.Stop()
	})
	fx.run(t, 2*time.Minute)
}

func TestControllerLeaderPartitionFailover(t *testing.T) {
	// Partition one controller node from its peers mid-stream: the ensemble
	// must keep serving (a new leader if the victim led), and heal cleanly.
	fx := newFixture(8)
	app := fx.sim.NewNode("app")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		c := NewClient(fx.svc, app, "app1", 0)
		if _, err := c.SetAppFile(p, "a", "f0", FileEntry{Epoch: 1}, 0); err != nil {
			t.Errorf("pre-partition set: %v", err)
		}
		victim := fx.cNodes[0]
		for _, n := range fx.cNodes[1:] {
			fx.sim.Net().Partition(victim, n)
		}
		if _, err := c.SetAppFile(p, "a", "f1", FileEntry{Epoch: 1}, 0); err != nil {
			t.Errorf("set during partition: %v", err)
		}
		for _, n := range fx.cNodes[1:] {
			fx.sim.Net().Heal(victim, n)
		}
		p.Sleep(time.Second)
		if _, err := c.SetAppFile(p, "a", "f2", FileEntry{Epoch: 1}, 0); err != nil {
			t.Errorf("set after heal: %v", err)
		}
		files, err := c.ListAppFiles(p, "a")
		if err != nil || len(files) != 3 {
			t.Errorf("files = %v, %v", files, err)
		}
		fx.sim.Stop()
	})
	fx.run(t, 2*time.Minute)
}

func TestSessionSurvivesShortPartitionDiesOnLong(t *testing.T) {
	fx := newFixture(9)
	pn := fx.sim.NewNode("peerZ")
	app := fx.sim.NewNode("app")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		c := NewClient(fx.svc, pn, "peerZ", 0)
		c.StartSession(p)
		c.RegisterPeer(p, PeerInfo{Name: "peerZ", Addr: "z", AvailMem: 1})
		ac := NewClient(fx.svc, app, "observer", 0)

		// Short partition (< session timeout): registration survives.
		for _, n := range fx.cNodes {
			fx.sim.Net().Partition(pn, n)
		}
		p.Sleep(fx.svc.cfg.SessionTimeout / 2)
		for _, n := range fx.cNodes {
			fx.sim.Net().Heal(pn, n)
		}
		p.Sleep(2 * fx.svc.cfg.KeepAlive)
		if peers, _ := ac.ListPeers(p); len(peers) != 1 {
			t.Errorf("registration lost after short partition")
		}

		// Long partition (> session timeout): ephemeral removed; after the
		// heal the keepalive proc re-establishes the session and the owner
		// re-registers.
		for _, n := range fx.cNodes {
			fx.sim.Net().Partition(pn, n)
		}
		p.Sleep(3 * fx.svc.cfg.SessionTimeout)
		if peers, _ := ac.ListPeers(p); len(peers) != 0 {
			t.Errorf("registration survived expiry: %v", peers)
		}
		for _, n := range fx.cNodes {
			fx.sim.Net().Heal(pn, n)
		}
		p.Sleep(3 * fx.svc.cfg.KeepAlive)
		if err := c.RegisterPeer(p, PeerInfo{Name: "peerZ", Addr: "z", AvailMem: 1}); err != nil {
			t.Errorf("re-register after expiry: %v", err)
		}
		fx.sim.Stop()
	})
	fx.run(t, 2*time.Minute)
}
