package controller

import (
	"errors"
	"testing"
	"time"

	"splitft/internal/simnet"
)

// newShardedFixture builds a controller whose znode tree is partitioned
// across `shards` data Raft groups plus the root group.
func newShardedFixture(seed int64, shards int) *fixture {
	s := simnet.New(seed)
	nodes := []*simnet.Node{s.NewNode("ctrl0"), s.NewNode("ctrl1"), s.NewNode("ctrl2")}
	cfg := DefaultConfig()
	cfg.Shards = shards
	svc := Start(s, nodes, cfg)
	return &fixture{sim: s, svc: svc, cNodes: nodes}
}

// dataGroupFor resolves the data group owning an app's paths.
func dataGroupFor(svc *Service, app string) int {
	h := fnv32(app)
	for _, sr := range svc.shards {
		if sr.Group != 0 && sr.contains(h) {
			return sr.Group
		}
	}
	return -1
}

// TestShardLayoutCoversHashSpace checks the static layout: group 0 owns the
// meta range, the data ranges tile the 32-bit hash space contiguously with
// no gaps or overlaps, and routing sends app paths to data groups only.
func TestShardLayoutCoversHashSpace(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		shards := shardLayout(n)
		if len(shards) != n+1 {
			t.Fatalf("shards=%d: %d ranges, want %d", n, len(shards), n+1)
		}
		if shards[0].Group != 0 {
			t.Fatalf("shards=%d: first range is group %d, want root", n, shards[0].Group)
		}
		var next uint32
		for i, sr := range shards[1:] {
			if sr.Group != i+1 {
				t.Errorf("shards=%d: range %d has group %d", n, i, sr.Group)
			}
			if sr.Lo != next {
				t.Errorf("shards=%d: range %d starts at %#x, want %#x", n, i, sr.Lo, next)
			}
			if sr.Hi < sr.Lo {
				t.Errorf("shards=%d: range %d inverted [%#x,%#x]", n, i, sr.Lo, sr.Hi)
			}
			next = sr.Hi + 1
		}
		if shards[len(shards)-1].Hi != ^uint32(0) {
			t.Errorf("shards=%d: last range ends at %#x", n, shards[len(shards)-1].Hi)
		}
		// Every app hash lands in exactly one data range.
		for _, app := range []string{"app1", "kvstore", "redstore", "scale0042", "x"} {
			h := fnv32(app)
			owners := 0
			for _, sr := range shards[1:] {
				if sr.contains(h) {
					owners++
				}
			}
			if owners != 1 {
				t.Errorf("shards=%d: app %q owned by %d data ranges", n, app, owners)
			}
		}
	}
}

// TestShardedSessionExpiryEphemeralOnDataShard checks that session state and
// the expiry scan work on non-root shards: an instance lock (an ephemeral on
// the app's data group) must disappear after its owner's session expires
// there, without any help from the root group.
func TestShardedSessionExpiryEphemeralOnDataShard(t *testing.T) {
	fx := newShardedFixture(11, 4)
	n1 := fx.sim.NewNode("inst1")
	n2 := fx.sim.NewNode("inst2")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		const app = "app1"
		if g := dataGroupFor(fx.svc, app); g <= 0 {
			t.Fatalf("app %q routed to group %d, want a data group", app, g)
		}
		c1 := NewClient(fx.svc, n1, app+"-server", 0)
		if err := c1.StartSession(p); err != nil {
			t.Fatalf("session: %v", err)
		}
		if err := c1.AcquireServerLock(p, app); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		n1.Crash()
		// Same fencing token: blocked while the ephemeral survives.
		c2 := NewClient(fx.svc, n2, app+"-server", 0)
		if err := c2.StartSession(p); err != nil {
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

// TestShardLeaderFailoverMidReplacement crashes the Raft leader of the data
// group owning an app while a client is mid-way through a WAL replacement
// (ap-map update, delete, re-create). The ops must ride out the election on
// that one shard and the node must rejoin cleanly.
func TestShardLeaderFailoverMidReplacement(t *testing.T) {
	fx := newShardedFixture(12, 4)
	appNode := fx.sim.NewNode("app")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		const app = "app1"
		g := dataGroupFor(fx.svc, app)
		if g <= 0 {
			t.Fatalf("app %q routed to group %d, want a data group", app, g)
		}
		c := NewClient(fx.svc, appNode, app, 0)
		v, err := c.SetAppFile(p, app, "wal-0", FileEntry{Peers: []string{"p1", "p2", "p3"}, Epoch: 1}, 0)
		if err != nil {
			t.Fatalf("set before failover: %v", err)
		}
		// Crash the node leading the app's group.
		var crashed *simnet.Node
		for i, n := range fx.cNodes {
			if fx.svc.replicas[n.Name()][g].IsLeader() {
				crashed = fx.cNodes[i]
				break
			}
		}
		if crashed == nil {
			t.Fatal("no leader for data group")
		}
		crashed.Crash()
		// The replacement sequence continues against the shard's new leader:
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

// TestWrongShardRetryRefreshesDirectory poisons a client's cached shard
// directory so its next proposal lands on a group that does not own the
// path. The owning check at apply time must reject it with ErrWrongShard and
// the client must refetch the directory and succeed transparently.
func TestWrongShardRetryRefreshesDirectory(t *testing.T) {
	fx := newShardedFixture(13, 4)
	appNode := fx.sim.NewNode("app")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		c := NewClient(fx.svc, appNode, "app1", 0)
		if _, err := c.SetAppFile(p, "app1", "f", FileEntry{Epoch: 1}, 0); err != nil {
			t.Fatalf("set: %v", err)
		}
		if len(c.dir) != len(fx.svc.shards) {
			t.Fatalf("dir cache has %d ranges, want %d", len(c.dir), len(fx.svc.shards))
		}
		// Rotate the data groups in the cached directory: every app path now
		// resolves to a group that does not own it.
		poison := append([]ShardRange(nil), c.dir...)
		n := len(poison) - 1
		for i := 1; i <= n; i++ {
			poison[i].Group = 1 + i%n
		}
		c.dir = poison
		for _, app := range []string{"app1", "kvstore", "redstore"} {
			if _, err := c.SetAppFile(p, app, "g", FileEntry{Epoch: 1}, 0); err != nil {
				t.Fatalf("set %s through poisoned directory: %v", app, err)
			}
			e, _, found, err := c.GetAppFile(p, app, "g")
			if err != nil || !found || e.Epoch != 1 {
				t.Fatalf("get %s after retry: %+v %v %v", app, found, e, err)
			}
		}
		// The retry path must have replaced the poisoned cache with the
		// published layout.
		for i, sr := range c.dir {
			if sr != fx.svc.shards[i] {
				t.Fatalf("dir[%d] = %+v, want %+v", i, sr, fx.svc.shards[i])
			}
		}
		fx.sim.Stop()
	})
	fx.run(t, time.Minute)
}

// TestExtentMetaOnShardedController exercises the /dfs/<vol>/ extent paths
// on a sharded controller: volume routing lands on a data group, batched
// ID allocation is a CAS loop that hands out disjoint ranges to competing
// clients, and seal records round-trip.
func TestExtentMetaOnShardedController(t *testing.T) {
	fx := newShardedFixture(21, 4)
	n1 := fx.sim.NewNode("dfs-client-1")
	n2 := fx.sim.NewNode("dfs-client-2")
	fx.sim.Go("test", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		// Volume paths must route by volume to a data group, and volumes
		// must not collide with a same-named application.
		app, meta := routeKey("/dfs/cephfs/next")
		if meta || app != "dfs:cephfs" {
			t.Fatalf("routeKey(/dfs/cephfs/next) = %q, %v", app, meta)
		}
		if a2, _ := routeKey("/apps/cephfs/f"); a2 == app {
			t.Fatal("volume key collides with app key")
		}
		if g := dataGroupFor(fx.svc, "dfs:cephfs"); g <= 0 {
			t.Fatalf("volume routed to group %d, want a data group", g)
		}
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
