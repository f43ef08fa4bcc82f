package controller

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"splitft/internal/simnet"
	"splitft/internal/trace"
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
// proposal: the entries under /apps/<app>/, sorted by name, prefix stripped,
// each with its value and version, and no other app's. A peer's session lists
// nothing, and an entry carries its writer's fencing token.
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
		if _, err := w.SetAppFile(p, "app1", "wal-1", FileEntry{Epoch: 2, Fencing: 7, AppendOnly: true}, 1); err != nil {
			t.Fatalf("set app1/wal-1: %v", err)
		}
		c := NewClient(fx.svc, app, "app1", 3)
		files, err := c.StartSession(p, "app1")
		var names []string
		for _, f := range files {
			names = append(names, f.Name)
		}
		if want := []string{"sub/wal", "wal-1", "wal-2"}; err != nil || fmt.Sprint(names) != fmt.Sprint(want) {
			t.Errorf("app1's session listed %q, %v; want %q", names, err, want)
		}
		for _, f := range files {
			want := AppFile{Name: f.Name, Entry: FileEntry{Epoch: 1, Fencing: 7, AppendOnly: true}, Version: 1}
			if f.Name == "wal-1" {
				want.Entry.Epoch, want.Version = 2, 2
			}
			if fmt.Sprint(f) != fmt.Sprint(want) {
				t.Errorf("listed %+v, want %+v", f, want)
			}
		}
		pr := NewClient(fx.svc, fx.sim.NewNode("peer0"), "peer0", 0)
		if files, err := pr.StartSession(p, ""); err != nil || files != nil {
			t.Errorf("a peer's session listed %v, %v; want nothing", files, err)
		}
		e := FileEntry{Peers: []string{"p1"}, Epoch: 4, RegionSize: 1 << 20, Capacity: 1 << 19, Policy: "quorum", Fencing: 1 << 40, Recycled: "wal-0"}
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

// The ap-map is fenced by the session that lists it: once a token-2 session
// has listed /apps/a/, a token-1 create, set or delete there answers
// ErrFenced, whatever the entry's state, while the same commands at token 2
// or 3 commit. Other applications' directories and the peer registry are
// not fenced.
func TestSessionFencesItsAppDirectory(t *testing.T) {
	fx := newFixture(10)
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		client := func(name string, fencing int64) *Client {
			return NewClient(fx.svc, fx.sim.NewNode(fmt.Sprintf("%s-%d", name, fencing)), name, fencing)
		}
		old, cur, next := client("a", 1), client("a", 2), client("a", 3)
		if _, err := old.SetAppFile(p, "a", "f", FileEntry{Epoch: 1}, 0); err != nil {
			t.Fatalf("token-1 create before any session: %v", err)
		}
		if _, err := old.SetAppFile(p, "b", "f", FileEntry{Epoch: 1}, 0); err != nil {
			t.Fatalf("token-1 create in b: %v", err)
		}
		if _, err := cur.StartSession(p, "a"); err != nil {
			t.Fatalf("token-2 session: %v", err)
		}
		fenced := map[string]func() error{
			"create": func() error { _, err := old.SetAppFile(p, "a", "g", FileEntry{Epoch: 1}, 0); return err },
			// An ncl file's name may hold slashes of its own.
			"create nested": func() error { _, err := old.SetAppFile(p, "a", "/kv/wal", FileEntry{Epoch: 1}, 0); return err },
			"set":           func() error { _, err := old.SetAppFile(p, "a", "f", FileEntry{Epoch: 2}, 1); return err },
			"delete":        func() error { return old.DeleteAppFile(p, "a", "f", -1) },
			// A delete of an absent entry is no error unless fenced.
			"delete absent": func() error { return old.DeleteAppFile(p, "a", "absent", -1) },
		}
		for _, op := range []string{"create", "create nested", "set", "delete", "delete absent"} {
			if err := fenced[op](); !errors.Is(err, ErrFenced) {
				t.Errorf("token-1 %s after the token-2 session: %v, want ErrFenced", op, err)
			}
		}
		if e, v, found, err := cur.GetAppFile(p, "a", "f"); err != nil || !found || e.Epoch != 1 || v != 1 {
			t.Errorf("a/f after the fenced writes: %+v v%d found=%v %v; want epoch 1 at v1", e, v, found, err)
		}
		for _, name := range []string{"g", "/kv/wal"} {
			if _, _, found, _ := cur.GetAppFile(p, "a", name); found {
				t.Errorf("the fenced create of %s committed", name)
			}
		}
		// The fence never falls: a later token-1 session leaves it at 2.
		if _, err := old.StartSession(p, "a"); err != nil {
			t.Fatalf("token-1 session: %v", err)
		}
		for i, c := range []*Client{cur, next} {
			name := fmt.Sprintf("/kv/g%d", i)
			v, err := c.SetAppFile(p, "a", name, FileEntry{Epoch: 1}, 0)
			if err == nil {
				v, err = c.SetAppFile(p, "a", name, FileEntry{Epoch: 2}, v)
			}
			if err == nil {
				err = c.DeleteAppFile(p, "a", name, v)
			}
			if err != nil {
				t.Errorf("token-%d create, set and delete: %v", c.fencing, err)
			}
		}
		if err := fenced["set"](); !errors.Is(err, ErrFenced) {
			t.Errorf("token-1 set after its own later session: %v, want ErrFenced", err)
		}
		// b's directory and the peer registry are not a's.
		if v, err := old.SetAppFile(p, "b", "f", FileEntry{Epoch: 2}, 1); err != nil {
			t.Errorf("token-1 set in b: %v", err)
		} else if err := old.DeleteAppFile(p, "b", "f", v); err != nil {
			t.Errorf("token-1 delete in b: %v", err)
		}
		pn := fx.sim.NewNode("peer0")
		pc := NewClient(fx.svc, pn, "peer0", 0)
		if _, err := pc.StartSession(p, ""); err != nil {
			t.Fatalf("peer session: %v", err)
		}
		info := PeerInfo{Name: "peer0", Addr: "peer0/rpc", AvailMem: 1 << 30}
		if err := pc.RegisterPeer(p, info); err != nil {
			t.Errorf("peer registration: %v", err)
		}
		info.AvailMem = 1 << 29
		if err := pc.PublishPeer(p, info); err != nil {
			t.Errorf("peer republish: %v", err)
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
		if err := c.DeleteAppFile(p, "app1", "wal-000", -1); err != nil {
			t.Errorf("delete: %v", err)
		}
		if err := c.DeleteAppFile(p, "app1", "wal-000", -1); err != nil {
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
		if err := c.DeleteAppFile(p, app, "wal-0", -1); err != nil {
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

// Raft's group commit, the property an open that proposes its create beside
// a released file's delete rests on (DESIGN.md §14): two commands one node
// sends at the same instant ride one AppendEntries round and commit together,
// barely later than one alone, while a command sent once the first one's round
// is on the wire waits for that round to end and commits a round later.
func TestCommandsSentTogetherShareOneRound(t *testing.T) {
	fx := newFixture(11)
	app := fx.sim.NewNode("app")
	fx.sim.Go("test", func(p *simnet.Proc) {
		defer fx.sim.Stop()
		p.Sleep(time.Second)
		c := NewClient(fx.svc, app, "app1", 1)
		create := func(name string) func(*simnet.Proc) error {
			return func(cp *simnet.Proc) error {
				_, err := c.SetAppFile(cp, "app1", name, FileEntry{Epoch: 1}, 0)
				return err
			}
		}
		del := func(name string) func(*simnet.Proc) error {
			return func(cp *simnet.Proc) error { return c.DeleteAppFile(cp, "app1", name, -1) }
		}
		// run sends the commands from the application node, the i-th after
		// delays[i], and returns how long each took from its send to its answer.
		run := func(delays []time.Duration, cmds ...func(*simnet.Proc) error) []time.Duration {
			p.Sleep(100 * time.Millisecond) // a quiet group: no round in flight
			took := make([]time.Duration, len(cmds))
			var wg simnet.WaitGroup
			wg.Add(len(cmds))
			for i, cmd := range cmds {
				app.Go("cmd", func(cp *simnet.Proc) {
					defer wg.Done(cp)
					cp.Sleep(delays[i])
					start := cp.Now()
					if err := cmd(cp); err != nil {
						t.Errorf("command %d: %v", i, err)
					}
					took[i] = cp.Now() - start
				})
			}
			wg.Wait(p)
			return took
		}
		lone := run([]time.Duration{0}, create("wal-1"))[0]
		together := run([]time.Duration{0, 0}, del("wal-1"), create("wal-2"))
		behind := run([]time.Duration{0, 60 * time.Microsecond}, del("wal-2"), create("wal-3"))
		t.Logf("lone %v, together %v, the second 60µs behind %v", lone, together, behind)
		// A round costs at least a follower's fsync: half of one tells one
		// round from two.
		second := lone + fx.svc.Config().Raft.FsyncCost/2
		for i, d := range together {
			if d >= second {
				t.Errorf("command %d of two sent together took %v, want one round: under %v (alone %v)", i, d, second, lone)
			}
		}
		if behind[1] < second {
			t.Errorf("a command sent behind another's round took %v, want a second round: at least %v (alone %v)", behind[1], second, lone)
		}
	})
	fx.run(t, time.Minute)
}

// One leader hint per node (DESIGN.md §15): once one controller client on a
// node has found the leader that replaced an isolated one, another client on
// the same node sends its first call straight there, not to the ex-leader.
func TestClientsOnOneNodeShareTheLeaderHint(t *testing.T) {
	fx := newFixture(12)
	app := fx.sim.NewNode("app")
	col := trace.New()
	fx.sim.SetTracer(col)
	fx.sim.Go("test", func(p *simnet.Proc) {
		defer fx.sim.Stop()
		p.Sleep(time.Second)
		first, second := NewClient(fx.svc, app, "app1", 0), NewClient(fx.svc, app, "app2", 0)
		for _, c := range []*Client{first, second} {
			if _, err := c.ListPeers(p); err != nil {
				t.Fatalf("list before the isolation: %v", err)
			}
		}
		ex := fx.svc.LeaderNode()
		fx.sim.Net().Isolate(ex)
		if _, err := first.ListPeers(p); err != nil {
			t.Fatalf("first client across the election: %v", err)
		}
		mark := col.Len()
		if _, err := second.ListPeers(p); err != nil {
			t.Fatalf("second client after the election: %v", err)
		}
		for _, sp := range col.Since(mark) {
			if sp.Op == "call:"+fx.svc.cluster.Addr(ex.Name()) && sp.StrAttr("from") == app.Name() {
				t.Errorf("the second client called the isolated ex-leader %s at %v", ex.Name(), sp.Start)
			}
		}
	})
	fx.run(t, time.Minute)
}
