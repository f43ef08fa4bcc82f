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
			if _, err := c.StartSession(p, ""); err != nil {
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
		c.StartSession(p, "")
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

// An application's session starts with its ap-map directory in the same
// proposal: the names under /apps/<app>/, sorted, prefix stripped, and no
// other app's. A peer's session lists nothing, and an entry carries its
// writer's fencing token.
func TestNewSessionListsAppDirectory(t *testing.T) {
	fx := newFixture(9)
	app := fx.sim.NewNode("app")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		w := NewClient(fx.svc, app, "writer", 0)
		for _, f := range []struct{ app, name string }{
			{"app1", "wal-2"}, {"app1", "wal-1"}, {"app1", "sub/wal"}, {"app10", "wal-9"}, {"app", "wal-0"},
		} {
			if _, err := w.SetAppFile(p, f.app, f.name, FileEntry{Epoch: 1, Fencing: 7, AppendOnly: true}, 0); err != nil {
				t.Fatalf("create %s/%s: %v", f.app, f.name, err)
			}
		}
		c := NewClient(fx.svc, app, "app1", 3)
		names, err := c.StartSession(p, "app1")
		if want := []string{"sub/wal", "wal-1", "wal-2"}; err != nil || fmt.Sprint(names) != fmt.Sprint(want) {
			t.Errorf("app1's session listed %q, %v; want %q", names, err, want)
		}
		pr := NewClient(fx.svc, fx.sim.NewNode("peer0"), "peer0", 0)
		if names, err := pr.StartSession(p, ""); err != nil || names != nil {
			t.Errorf("a peer's session listed %q, %v; want nothing", names, err)
		}
		e := FileEntry{Peers: []string{"p1"}, Epoch: 4, RegionSize: 1 << 20, Capacity: 1 << 19, Policy: "quorum", Fencing: 1 << 40}
		for _, appendOnly := range []bool{false, true} {
			e.AppendOnly = appendOnly
			var got FileEntry
			got.UnmarshalWire(e.MarshalWire()) //nolint:errcheck
			if fmt.Sprint(got) != fmt.Sprint(e) {
				t.Errorf("entry round trip: %+v, want %+v", got, e)
			}
		}
		if got, _, _, err := c.GetAppFile(p, "app1", "wal-1"); err != nil || got.Fencing != 7 || !got.AppendOnly {
			t.Errorf("stored entry: %+v, %v; want fencing 7, append-only", got, err)
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
		c1.StartSession(p, "")
		if err := c1.AcquireServerLock(p, "app1"); err != nil {
			t.Fatalf("first acquire: %v", err)
		}
		// Same fencing token (a concurrent duplicate instance): must lose.
		c2 := NewClient(fx.svc, n2, "app1-server", 0)
		c2.StartSession(p, "")
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
		c1.StartSession(p, "")
		c1.AcquireServerLock(p, "app1")
		n1.Crash()
		// Recovery on another machine with a higher fencing token takes over
		// immediately — no session-expiry wait.
		c2 := NewClient(fx.svc, n2, "app1-server", 1)
		c2.StartSession(p, "")
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
		c.StartSession(p, "")
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
		p.Sleep(2 * keepAlive(fx.svc.cfg))
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
		p.Sleep(3 * keepAlive(fx.svc.cfg))
		if err := c.RegisterPeer(p, PeerInfo{Name: "peerZ", Addr: "z", AvailMem: 1}); err != nil {
			t.Errorf("re-register after expiry: %v", err)
		}
		fx.sim.Stop()
	})
	fx.run(t, 2*time.Minute)
}

// TestShardedSessionExpiryEphemeralOnDataShard checks that an instance lock
// blocks a second instance with the same fencing token while its owner's
// session lives, and disappears once the expiry scan has expired the
// crashed owner's session.
func TestShardedSessionExpiryEphemeralOnDataShard(t *testing.T) {
	fx := newFixture(11)
	n1 := fx.sim.NewNode("inst1")
	n2 := fx.sim.NewNode("inst2")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		const app = "app1"
		c1 := NewClient(fx.svc, n1, app+"-server", 0)
		if _, err := c1.StartSession(p, ""); err != nil {
			t.Fatalf("session: %v", err)
		}
		if err := c1.AcquireServerLock(p, app); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		n1.Crash()
		// Same fencing token: blocked while the ephemeral survives.
		c2 := NewClient(fx.svc, n2, app+"-server", 0)
		if _, err := c2.StartSession(p, ""); err != nil {
			t.Fatalf("session 2: %v", err)
		}
		if err := c2.AcquireServerLock(p, app); !errors.Is(err, ErrFenced) {
			t.Fatalf("lock free before expiry: %v", err)
		}
		p.Sleep(3 * fx.svc.cfg.SessionTimeout)
		if err := c2.AcquireServerLock(p, app); err != nil {
			t.Fatalf("acquire after expiry: %v", err)
		}
		fx.sim.Stop()
	})
	fx.run(t, time.Minute)
}

// TestShardLeaderFailoverMidReplacement crashes the controller's Raft leader
// while a client is mid-way through a WAL replacement (ap-map update,
// delete, re-create). The ops must ride out the election and the node must
// rejoin cleanly.
func TestShardLeaderFailoverMidReplacement(t *testing.T) {
	fx := newFixture(12)
	appNode := fx.sim.NewNode("app")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		const app = "app1"
		c := NewClient(fx.svc, appNode, app, 0)
		v, err := c.SetAppFile(p, app, "wal-0", FileEntry{Peers: []string{"p1", "p2", "p3"}, Epoch: 1}, 0)
		if err != nil {
			t.Fatalf("set before failover: %v", err)
		}
		crashed := fx.svc.LeaderNode()
		if crashed == nil {
			t.Fatal("no controller leader")
		}
		crashed.Crash()
		// The replacement sequence continues against the new leader:
		// CAS the entry (peer swap), then rotate (delete + re-create).
		if _, err := c.SetAppFile(p, app, "wal-0", FileEntry{Peers: []string{"p1", "p2", "p4"}, Epoch: 2}, v); err != nil {
			t.Fatalf("cas during failover: %v", err)
		}
		if err := c.DeleteAppFile(p, app, "wal-0"); err != nil {
			t.Fatalf("delete during failover: %v", err)
		}
		if _, err := c.SetAppFile(p, app, "wal-1", FileEntry{Peers: []string{"p1", "p2", "p4"}, Epoch: 2}, 0); err != nil {
			t.Fatalf("create during failover: %v", err)
		}
		crashed.Restart()
		fx.svc.RestartNode(crashed)
		p.Sleep(time.Second)
		files, err := c.ListAppFiles(p, app)
		if err != nil || len(files) != 1 {
			t.Fatalf("list after rejoin: %v files=%v", err, files)
		}
		if e := files["wal-1"]; e.Epoch != 2 {
			t.Fatalf("wal-1 entry = %+v", e)
		}
		fx.sim.Stop()
	})
	fx.run(t, time.Minute)
}

// TestExtentMetaOnShardedController exercises the /dfs/<vol>/ extent paths:
// batched ID allocation is a CAS loop that hands out disjoint ranges to
// competing clients, and seal records round-trip.
func TestExtentMetaOnShardedController(t *testing.T) {
	fx := newFixture(21)
	n1 := fx.sim.NewNode("dfs-client-1")
	n2 := fx.sim.NewNode("dfs-client-2")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		c1 := NewClient(fx.svc, n1, "dfs-1", 0)
		c2 := NewClient(fx.svc, n2, "dfs-2", 0)
		// Interleaved batch allocations must return disjoint ID ranges.
		seen := map[uint64]string{}
		clients := []struct {
			name string
			c    *Client
		}{{"c1", c1}, {"c2", c2}}
		for i := 0; i < 3; i++ {
			for _, cc := range clients {
				name, c := cc.name, cc.c
				first, err := c.AllocExtentIDs(p, "cephfs", 8)
				if err != nil {
					t.Fatalf("%s alloc: %v", name, err)
				}
				for id := first; id < first+8; id++ {
					if owner, dup := seen[id]; dup {
						t.Fatalf("id %d allocated to both %s and %s", id, owner, name)
					}
					seen[id] = name
				}
			}
		}
		if len(seen) != 48 {
			t.Fatalf("allocated %d ids, want 48", len(seen))
		}
		// Seal records round-trip, including the create-or-set overwrite.
		if err := c1.SealExtent(p, "cephfs", 7, []string{"sn0", "sn1", "sn2"}, 1<<20); err != nil {
			t.Fatalf("seal: %v", err)
		}
		if err := c2.SealExtent(p, "cephfs", 7, []string{"sn0", "sn1", "sn2"}, 2<<20); err != nil {
			t.Fatalf("re-seal: %v", err)
		}
		e, found, err := c1.GetExtent(p, "cephfs", 7)
		if err != nil || !found {
			t.Fatalf("get extent: %v %v", found, err)
		}
		if !e.Sealed || e.Length != 2<<20 || len(e.Nodes) != 3 || e.Nodes[0] != "sn0" {
			t.Fatalf("extent entry = %+v", e)
		}
		if _, found, _ := c1.GetExtent(p, "cephfs", 999); found {
			t.Fatal("absent extent reported found")
		}
		fx.sim.Stop()
	})
	fx.run(t, time.Minute)
}
