package ncl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"
	"time"

	"splitft/internal/controller"
	"splitft/internal/peer"
	"splitft/internal/rdma"
	"splitft/internal/simnet"
	"splitft/internal/trace"
	"splitft/internal/wire"
)

// cluster is the standard NCL testbed: 3 controller nodes, a configurable
// pool of log peers, and one (restartable) application node.
type cluster struct {
	sim     *simnet.Sim
	svc     *controller.Service
	fabric  *rdma.Fabric
	peers   map[string]*peer.Peer
	pNodes  map[string]*simnet.Node
	appNode *simnet.Node
	peerCfg peer.Config
	// domains > 0 spreads the peers over that many failure domains,
	// round-robin by index.
	domains int
	// horizon ends the simulation (10 minutes when zero). A script whose
	// body would block on a lost wake-up sets a short one, so it fails at
	// once rather than riding the background timers to the default.
	horizon time.Duration
}

func newCluster(seed int64, nPeers int, peerCfg peer.Config) *cluster {
	s := simnet.New(seed)
	s.Net().SetDefaultLatency(5 * time.Microsecond) // RDMA-class datacenter
	ctrlNodes := []*simnet.Node{s.NewNode("ctrl0"), s.NewNode("ctrl1"), s.NewNode("ctrl2")}
	c := &cluster{
		sim:     s,
		svc:     controller.Start(s, ctrlNodes, controller.DefaultConfig()),
		fabric:  rdma.NewFabric(s, rdma.DefaultParams()),
		peers:   make(map[string]*peer.Peer),
		pNodes:  make(map[string]*simnet.Node),
		appNode: s.NewNode("appserver"),
	}
	c.peerCfg = peerCfg
	for i := 0; i < nPeers; i++ {
		c.pNodes[fmt.Sprintf("peer%d", i)] = s.NewNode(fmt.Sprintf("peer%d", i))
	}
	return c
}

// run boots peers (after controller election) and executes fn in a detached
// proc, then stops the simulation. A body still blocked when the simulation
// ends (a write that never gets its quorum back, say) fails the test.
func (c *cluster) run(t *testing.T, fn func(p *simnet.Proc)) {
	t.Helper()
	finished := false
	c.sim.Go("test-main", func(p *simnet.Proc) {
		defer c.sim.Stop()
		p.Sleep(time.Second) // controller leader election
		names := make([]string, 0, len(c.pNodes))
		for name := range c.pNodes {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			cfg := c.peerCfg
			if c.domains > 0 {
				cfg.Domain = fmt.Sprintf("dom%d", i%c.domains)
			}
			pr, err := peer.Start(p, c.svc, c.fabric, c.pNodes[name], cfg)
			if err != nil {
				t.Errorf("start peer %s: %v", name, err)
				c.sim.Stop()
				return
			}
			c.peers[name] = pr
		}
		fn(p)
		finished = true
	})
	horizon := c.horizon
	if horizon == 0 {
		horizon = 10 * time.Minute
	}
	if err := c.sim.RunUntil(horizon); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !finished && !t.Failed() {
		t.Fatal("test body still blocked when the simulation ended")
	}
}

func (c *cluster) restartPeer(p *simnet.Proc, t *testing.T, name string) {
	t.Helper()
	node := c.pNodes[name]
	node.Restart()
	pr, err := peer.Start(p, c.svc, c.fabric, node, c.peerCfg)
	if err != nil {
		t.Errorf("restart peer %s: %v", name, err)
		return
	}
	c.peers[name] = pr
}

func (c *cluster) newLib(p *simnet.Proc, t *testing.T, app string, fencing int64) *Lib {
	t.Helper()
	l, err := NewLib(p, c.svc, c.fabric, c.appNode, app, fencing, DefaultConfig())
	if err != nil {
		t.Fatalf("new lib: %v", err)
	}
	return l
}

// recoverSync is the paper's serial recovery: recover, then the barrier.
func recoverSync(p *simnet.Proc, l *Lib, name string) (*Log, error) {
	lg, err := l.Recover(p, name)
	if err == nil {
		err = lg.Sync(p)
	}
	return lg, err
}

func smallPeerCfg() peer.Config {
	cfg := peer.DefaultConfig()
	cfg.LendableMem = 64 << 20
	return cfg
}

func TestOpenRecordReplicatesToMajority(t *testing.T) {
	c := newCluster(1, 4, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		l := c.newLib(p, t, "app1", 0)
		lg, err := l.Open(p, "wal-000", 1<<20, false)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if got := len(lg.LivePeers()); got != 3 {
			t.Fatalf("live peers = %d, want 3 (2f+1)", got)
		}
		payload := []byte("record-one")
		if _, err := lg.Append(p, payload); err != nil {
			t.Fatalf("append: %v", err)
		}
		if _, err := lg.Append(p, []byte("record-two")); err != nil {
			t.Fatalf("append: %v", err)
		}
		// White box: at least a majority of peers hold both records with a
		// matching header.
		p.Sleep(time.Millisecond) // let the slowest peer finish too
		current := 0
		for _, pn := range lg.LivePeers() {
			region, ok := c.peers[pn].RegionBytes("app1", "wal-000")
			if !ok {
				t.Errorf("peer %s has no region", pn)
				continue
			}
			seq := binary.LittleEndian.Uint64(region[0:8])
			length := binary.LittleEndian.Uint64(region[8:16])
			if seq == 2 && length == 20 && string(region[HeaderSize:HeaderSize+10]) == "record-one" {
				current++
			}
		}
		if current < 2 {
			t.Errorf("only %d peers current, want >= f+1", current)
		}
		if lg.Length() != 20 || string(lg.Bytes()[:10]) != "record-one" {
			t.Errorf("local buffer wrong: len=%d", lg.Length())
		}
	})
}

func TestRecordLatencySmallWrite(t *testing.T) {
	// Fig 8 calibration: a 128B record should complete in single-digit
	// microseconds (paper: 4.6us).
	c := newCluster(2, 3, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		l := c.newLib(p, t, "app1", 0)
		lg, err := l.Open(p, "wal", 1<<20, false)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		data := make([]byte, 128)
		lg.Append(p, data) // warm
		start := p.Now()
		const n = 100
		for i := 0; i < n; i++ {
			if _, err := lg.Append(p, data); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		avg := (p.Now() - start) / n
		if avg < 2*time.Microsecond || avg > 10*time.Microsecond {
			t.Errorf("128B record latency = %v, want ~4-5us", avg)
		}
	})
}

func TestSlowPeerDoesNotBlockMajority(t *testing.T) {
	c := newCluster(3, 3, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		l := c.newLib(p, t, "app1", 0)
		lg, err := l.Open(p, "wal", 1<<20, false)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		// Make one member peer slow (2ms one-way).
		slow := lg.LivePeers()[2]
		c.sim.Net().SetLatency(c.appNode, c.pNodes[slow], 2*time.Millisecond)
		start := p.Now()
		lg.Append(p, []byte("x"))
		if lat := p.Now() - start; lat > time.Millisecond {
			t.Errorf("record waited for the slow peer: %v", lat)
		}
	})
}

// A write beyond the failure budget returns once a replacement is caught
// up. Record waits on completions alone, so it rests on every failure the
// poller marks kicking repair: a kick lost stalls the write for good, and
// the horizon fails the test.
func TestStalledRecordWaitsForItsReplacement(t *testing.T) {
	for _, pol := range allPolicies {
		t.Run(pol, func(t *testing.T) {
			c := newCluster(1, 12, smallPeerCfg())
			c.horizon = 5 * time.Second
			c.run(t, func(p *simnet.Proc) {
				l, err := NewLib(p, c.svc, c.fabric, c.appNode, "app1", 0, policyCfg(t, pol))
				if err != nil {
					t.Fatalf("new lib: %v", err)
				}
				lg, err := l.Open(p, "wal", 256<<10, false)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				if _, err := lg.Append(p, []byte("before")); err != nil {
					t.Fatalf("append: %v", err)
				}
				for _, v := range lg.LivePeers()[:lg.Policy().Tolerates()+1] {
					c.pNodes[v].Crash()
				}
				if _, err := lg.Append(p, []byte("beyond f")); err != nil {
					t.Fatalf("append beyond f: %v", err)
				}
				if lg.Replacements == 0 {
					t.Fatal("the write beyond f returned before any replacement")
				}
			})
		})
	}
}

// The lib runs one repair proc, whatever number of logs it holds, and so one
// replacement at a time: three logs that lose one shared peer are caught up
// one after the other, never at once.
func TestOneCatchUpPerLib(t *testing.T) {
	c := newCluster(5, 12, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		l := c.newLib(p, t, "app1", 0)
		first, err := l.Open(p, "wal-0", 256<<10, false)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		victim := first.LivePeers()[0]
		logs := []*Log{first}
		for i := 1; i < 3; i++ {
			lg, err := l.Open(p, nameSharing(t, p, l, first.Policy(), first.Capacity(), fmt.Sprintf("wal-%d-", i), []string{victim}, 1), 256<<10, false)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			logs = append(logs, lg)
		}
		for _, lg := range logs {
			if _, err := lg.Append(p, []byte("before")); err != nil {
				t.Fatalf("append to %s: %v", lg.name, err)
			}
		}
		if n := p.Sim().LiveProcs("ncl-repair:"); n != 1 {
			t.Fatalf("%d repair procs for a lib of %d logs, want 1", n, len(logs))
		}
		col := trace.New()
		c.sim.SetTracer(col)
		c.pNodes[victim].Crash()
		if _, err := first.Append(p, []byte("detect")); err != nil {
			t.Fatalf("append: %v", err)
		}
		for wait := 0; slices.ContainsFunc(logs, func(lg *Log) bool { return lg.Replacements == 0 }) && wait < 1000; wait++ {
			p.Sleep(time.Millisecond)
		}
		c.sim.SetTracer(nil)
		catchups := trace.Filter(col.Spans(), "ncl", "replace.catchup")
		if len(catchups) != len(logs) {
			t.Fatalf("%d catch-ups for %d logs that lost %s", len(catchups), len(logs), victim)
		}
		for i := 1; i < len(catchups); i++ {
			if prev := catchups[i-1]; !prev.Done() || catchups[i].Start < prev.End {
				t.Fatalf("catch-up %d started at %v, before catch-up %d ended at %v", i, catchups[i].Start, i-1, prev.End)
			}
		}
	})
}

// Release removes the ap-map entry and parks the regions: every member keeps
// its region as the lib's spare group, in slot order, and the log is gone.
func TestReleaseFreesPeersAndApMap(t *testing.T) {
	c := newCluster(4, 3, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		l := c.newLib(p, t, "app1", 0)
		lg, err := l.Open(p, "wal", 1<<20, false)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		members := lg.LivePeers()
		lg.Append(p, []byte("data"))
		if err := lg.Release(p); err != nil {
			t.Fatalf("release: %v", err)
		}
		for _, pn := range members {
			if _, ok := c.peers[pn].RegionBytes("app1", "wal"); !ok || c.peers[pn].Regions() != 1 {
				t.Errorf("peer %s holds %d regions after release, want the parked one", pn, c.peers[pn].Regions())
			}
		}
		if s := l.spare; s == nil || s.name != "wal" || !slices.Equal(s.names(), members) || s.region != lg.regionSize() {
			t.Errorf("spare after release %+v, want wal on %v", s, members)
		}
		files, err := l.ListFiles(p)
		if err != nil || len(files) != 0 {
			t.Errorf("ap-map after release: %v, %v", files, err)
		}
		if _, err := lg.Append(p, []byte("y")); !errors.Is(err, ErrReleased) {
			t.Errorf("append after release: %v", err)
		}
	})
}

// A release that overtakes a live replacement ends it. The catch-up's
// completions never come once the log's CQ is closed, so its waiter is closed
// instead, whether it was registered before the release (the catch-up posted)
// or after it (the set-up still in flight, as when a peer lost on another log
// kicks the repair of a log about to rotate). The replacement fails, and the
// lib's repair proc finds nothing left to replace.
func TestReleaseEndsLiveReplacement(t *testing.T) {
	for _, at := range []string{"replace.connect", "replace.catchup"} {
		c := newCluster(5, 5, smallPeerCfg())
		c.run(t, func(p *simnet.Proc) {
			col := trace.New()
			c.sim.SetTracer(col)
			l := c.newLib(p, t, "app1", 0)
			lg, err := l.Open(p, "wal", 1<<20, false)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			rec := make([]byte, 64<<10)
			for i := 0; i < 12; i++ {
				lg.Append(p, rec)
			}
			c.pNodes[lg.LivePeers()[1]].Crash()
			lg.Append(p, rec) // acked by the other two; the failed WR starts the repair
			var step *trace.Span
			for step == nil {
				p.Sleep(time.Microsecond)
				step = trace.First(col.Spans(), "ncl", at)
			}
			if step.Done() {
				t.Fatalf("%s ended before the release", at)
			}
			if err := lg.Release(p); err != nil {
				t.Fatalf("release during %s: %v", at, err)
			}
			p.Sleep(100 * time.Millisecond)
			replaces := trace.Filter(col.Spans(), "ncl", "replace")
			if len(replaces) != 1 || !replaces[0].Done() || lg.Replacements != 0 {
				t.Errorf("release during %s: %d replace spans, the first ended %v; %d replacements, want 1 ended and 0",
					at, len(replaces), len(replaces) > 0 && replaces[0].Done(), lg.Replacements)
			}
		})
	}
}

// A replacement that a release overtook costs the lib no repair backoff, which
// is for want of a peer: the lib's one repair proc goes straight on to the
// next log's failed member.
func TestOvertakenReplacementHoldsBackNoOtherLog(t *testing.T) {
	c := newCluster(5, 12, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		col := trace.New()
		c.sim.SetTracer(col)
		l := c.newLib(p, t, "app1", 0)
		var logs [2]*Log
		for i, name := range []string{"wal", "aux"} {
			lg, err := l.Open(p, name, 1<<20, false)
			if err != nil {
				t.Fatalf("open %s: %v", name, err)
			}
			logs[i] = lg
		}
		lg, other := logs[0], logs[1]
		victims := [2]string{}
		for i, lg := range logs {
			for _, pn := range lg.LivePeers() {
				if !slices.Contains(logs[1-i].LivePeers(), pn) {
					victims[i] = pn
				}
			}
		}
		if victims[0] == "" || victims[1] == "" {
			t.Fatalf("wal on %v and aux on %v: each needs a member of its own", lg.LivePeers(), other.LivePeers())
		}
		rec := make([]byte, 64<<10)
		for i := 0; i < 12; i++ {
			lg.Append(p, rec)
		}
		c.pNodes[victims[0]].Crash()
		lg.Append(p, rec) // the failed WR starts wal's repair
		for trace.First(col.Spans(), "ncl", "replace.catchup") == nil {
			p.Sleep(time.Microsecond)
		}
		c.pNodes[victims[1]].Crash()
		other.Append(p, []byte("x")) // aux's failure waits behind wal's catch-up
		released := p.Now()
		if err := lg.Release(p); err != nil {
			t.Fatalf("release: %v", err)
		}
		for wait := 0; other.Replacements == 0 && wait < 1000; wait++ {
			p.Sleep(time.Millisecond)
		}
		for _, sp := range trace.Filter(col.Spans(), "ncl", "replace") {
			if sp.StrAttr("file") == "aux" && sp.Start-released > time.Millisecond {
				t.Fatalf("aux's replacement started %v after wal's release", sp.Start-released)
			}
		}
		if other.Replacements != 1 {
			t.Fatalf("aux: %d replacements, want 1", other.Replacements)
		}
	})
}

// The lib reads its own deletes even when one is slow. A release whose ap-map
// delete loses its first attempt still returns at once; then a ListFiles, a
// Recover of the name and an Open of the name each wait for the retry to
// commit: the list does not name the file, nor returns before its entry is
// gone, the recovery does not bring back
// the released regions the spare still holds, and the re-create does not
// race the entry it replaces.
func TestReleasedNameWaitsForItsDelete(t *testing.T) {
	c := newCluster(54, 3, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		l := c.newLib(p, t, "app1", 0)
		probes := []struct {
			call  string
			check func(name string) error
		}{
			{"ListFiles", func(name string) error {
				if files, err := l.ListFiles(p); err != nil || len(files) != 0 {
					return fmt.Errorf("files %v (%v), want none", files, err)
				}
				// The list is the ap-map's once it returns: the entry it
				// leaves out is gone.
				if _, _, found, err := l.ctrl.GetAppFile(p, "app1", name); err != nil || found {
					return fmt.Errorf("the ap-map still holds %s (%v) after the list left it out", name, err)
				}
				return nil
			}},
			{"Recover", func(name string) error {
				if _, err := l.Recover(p, name); !errors.Is(err, ErrNotFound) {
					return fmt.Errorf("%v, want ErrNotFound", err)
				}
				return nil
			}},
			{"Open", func(name string) error {
				lg, err := l.Open(p, name, 1<<20, false)
				if err != nil {
					return err
				}
				p.Sleep(2 * time.Second) // long past the delete's retry
				if files, err := l.ListFiles(p); err != nil || !slices.Equal(files, []string{name}) {
					return fmt.Errorf("files %v (%v) after the re-create, want %s", files, err, name)
				}
				return lg.Release(p)
			}},
		}
		for _, probe := range probes {
			lg, err := l.Open(p, "wal", 1<<20, false)
			if err != nil {
				t.Fatalf("open before %s: %v", probe.call, err)
			}
			lg.Append(p, []byte("data"))
			for _, n := range c.svc.Nodes() {
				c.sim.Net().Partition(c.appNode, n)
			}
			start := p.Now()
			if err := lg.Release(p); err != nil || p.Now() != start {
				t.Fatalf("release under a lost delete: %v after %v, want nil at once", err, p.Now()-start)
			}
			for _, n := range c.svc.Nodes() {
				c.sim.Net().Heal(c.appNode, n)
			}
			if err := probe.check("wal"); err != nil {
				t.Errorf("%s right after the release: %v", probe.call, err)
			}
		}
	})
}

// The lib's directory is exact only for the ap-map writes that answered. A
// release whose delete never answers — its request cut, or its reply — leaves
// the name unsure: a ListFiles that waits for the delete fails with its
// error, the next one names the file, and the next Recover asks the
// controller whether the entry survived. A lost request left it (the file is
// recovered whole from the regions the un-parked spare still holds); a lost
// reply did not (ErrNotFound, though the same regions are there to recover a
// stale copy from).
func TestLostDeleteLeavesNameUnsure(t *testing.T) {
	for _, lost := range []string{"request", "reply"} {
		t.Run(lost, func(t *testing.T) {
			c := newCluster(55, 3, smallPeerCfg())
			c.run(t, func(p *simnet.Proc) {
				l := c.newLib(p, t, "app1", 0)
				lg, err := l.Open(p, "wal", 1<<20, false)
				if err == nil {
					_, err = lg.Append(p, []byte("data"))
				}
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				for _, n := range c.svc.Nodes() {
					if lost == "request" {
						c.sim.Net().PartitionOneWay(c.appNode, n)
					} else {
						c.sim.Net().PartitionOneWay(n, c.appNode)
					}
				}
				if err := lg.Release(p); err != nil {
					t.Fatalf("release: %v", err)
				}
				if files, err := l.ListFiles(p); err == nil {
					t.Errorf("ListFiles behind the lost delete: %v, want the delete's error", files)
				}
				for _, n := range c.svc.Nodes() {
					c.sim.Net().Heal(c.appNode, n)
				}
				if files, err := l.ListFiles(p); err != nil || !slices.Equal(files, []string{"wal"}) {
					t.Errorf("ListFiles after the lost delete: %v (%v), want wal", files, err)
				}
				col := trace.New()
				c.sim.SetTracer(col)
				got, err := l.Recover(p, "wal")
				c.sim.SetTracer(nil)
				if gets := trace.Filter(col.Spans(), "controller", "get"); len(gets) != 1 {
					t.Errorf("Recover after the lost delete sent %d ap-map gets, want 1", len(gets))
				}
				switch {
				case lost == "reply" && !errors.Is(err, ErrNotFound):
					t.Errorf("Recover after the lost reply: %v, want ErrNotFound", err)
				case lost == "request" && (err != nil || got.Sync(p) != nil || string(got.Bytes()) != "data"):
					t.Errorf("Recover after the lost request: %v, want the file", err)
				}
			})
		})
	}
}

// timed runs fn under a fresh collector and returns its virtual duration and
// the spans it emitted.
func (c *cluster) timed(p *simnet.Proc, fn func()) (time.Duration, []*trace.Span) {
	col := trace.New()
	c.sim.SetTracer(col)
	start := p.Now()
	fn()
	c.sim.SetTracer(nil)
	return p.Now() - start, col.Spans()
}

// The set-up of a group is one wave: at one region size, a six-slot ec open
// costs less than one peer set-up more than a three-slot mirror open.
func TestOpenCostDoesNotGrowWithSlots(t *testing.T) {
	ecSpec, _ := ParsePolicy("ec:4,2")
	region := ecSpec.Place(1 << 20).SlotRegion
	open := func(policy string, capacity int64) (cost, setup time.Duration) {
		c := newCluster(51, 8, smallPeerCfg())
		c.run(t, func(p *simnet.Proc) {
			l, err := NewLib(p, c.svc, c.fabric, c.appNode, "app1", 0, policyCfg(t, policy))
			if err != nil {
				t.Fatalf("new lib: %v", err)
			}
			var spans []*trace.Span
			cost, spans = c.timed(p, func() {
				lg, err := l.Open(p, "wal", capacity, false)
				if err != nil || lg.regionSize() != region || len(lg.LivePeers()) != lg.place.Slots {
					t.Fatalf("open %s: %v", policy, err)
				}
			})
			setup = trace.First(spans, "peer", "setup").Dur()
		})
		return cost, setup
	}
	mirror, setup := open("mirror", region-HeaderSize)
	ec, _ := open("ec:4,2", 1<<20)
	if d := ec - mirror; setup <= 0 || d >= setup || d <= -setup {
		t.Errorf("open of 6 slots %v, of 3 slots %v: %v apart, want less than one peer set-up (%v)", ec, mirror, d, setup)
	}
}

// Recovery asks every ap-map member at once: two dead members cost one
// lookup timeout, not one each.
func TestRecoverConnectPaysOneTimeout(t *testing.T) {
	c := newCluster(52, 8, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		cfg := policyCfg(t, "ec:4,2")
		l, err := NewLib(p, c.svc, c.fabric, c.appNode, "app1", 0, cfg)
		if err != nil {
			t.Fatalf("new lib: %v", err)
		}
		lg, err := l.Open(p, "wal", 1<<20, false)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := lg.Append(p, []byte("acknowledged")); err != nil {
			t.Fatalf("append: %v", err)
		}
		for _, victim := range lg.LivePeers()[1:3] {
			c.pNodes[victim].Crash()
		}
		c.appNode.Crash()
		p.Sleep(10 * time.Millisecond)
		c.appNode.Restart()
		l2, err := NewLib(p, c.svc, c.fabric, c.appNode, "app1", 1, cfg)
		if err != nil {
			t.Fatalf("new lib: %v", err)
		}
		_, spans := c.timed(p, func() {
			lg2, err := recoverSync(p, l2, "wal")
			if err != nil || string(lg2.Bytes()) != "acknowledged" || len(lg2.LivePeers()) != 6 {
				t.Fatalf("recover: %v", err)
			}
		})
		if d := trace.First(spans, "ncl", "recover.connect").Dur(); d != 20*time.Millisecond {
			t.Errorf("recover.connect with two dead members took %v, want the one 20ms lookup timeout", d)
		}
	})
}

// A release that parks costs its caller nothing: it returns with its ap-map
// delete on the wire, not committed, and the open that takes the spare is one
// set-up wave on its members: no registry list, and no free-memory
// republication by a peer. A release that displaces a spare whose delete has
// committed frees it in one awaited wave: a dead member costs its one
// timeout, beside which the live members' releases run, and the live members
// have its memory back when Release returns. One that displaces a spare whose
// delete is still pending leaves the freeing to that delete: no member hears
// of it before the delete has committed.
func TestReleaseIsOneAwaitedWave(t *testing.T) {
	c := newCluster(53, 3, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		l := c.newLib(p, t, "app1", 0)
		open := func(name string) *Log {
			lg, err := l.Open(p, name, 1<<20, false)
			if err != nil {
				t.Fatalf("open %s: %v", name, err)
			}
			return lg
		}
		release := func(lg *Log) (time.Duration, []*trace.Span) {
			return c.timed(p, func() {
				if err := lg.Release(p); err != nil {
					t.Fatalf("release %s: %v", lg.name, err)
				}
			})
		}
		a, b := open("wal-a"), open("wal-b")
		cost, spans := release(a)
		if del := trace.First(spans, "controller", "delete"); cost != 0 || del == nil || del.Done() {
			t.Errorf("parking release took %v, delete span %+v; want nothing, with the delete on its way", cost, del)
		}
		var c1 *Log
		_, spans = c.timed(p, func() {
			c1 = open("wal-c")
			p.Sleep(time.Millisecond) // a peer's republication starts in the background
		})
		if !slices.Equal(c1.LivePeers(), a.peerNames()) {
			t.Errorf("open after release on %v, want the spare's %v in slot order", c1.LivePeers(), a.peerNames())
		}
		ctl := map[string]int{}
		for _, sp := range trace.Filter(spans, "controller", "") {
			if sp.Op != "keep-alive" {
				ctl[sp.Node+"/"+sp.Op]++
			}
		}
		if setups := len(trace.Filter(spans, "peer", "setup")); setups != 3 || !maps.Equal(ctl, map[string]int{"appserver/create": 1}) {
			t.Errorf("open on the spare: %d peer set-ups, controller commands %v; want 3 and one create", setups, ctl)
		}

		d, e := open("wal-d"), open("wal-e")
		col := trace.New()
		c.sim.SetTracer(col)
		if err := d.Release(p); err != nil {
			t.Fatalf("release wal-d: %v", err)
		}
		if err := e.Release(p); err != nil {
			t.Fatalf("release wal-e: %v", err)
		}
		p.Sleep(5 * time.Millisecond)
		c.sim.SetTracer(nil)
		del := trace.First(col.Spans(), "controller", "delete") // wal-d's, submitted first
		frees := 0
		for _, sp := range trace.Filter(col.Spans(), "peer", "release") {
			if sp.StrAttr("file") == "app1/wal-d" {
				if frees++; !del.Done() || sp.Start < del.End {
					t.Errorf("a member freed wal-d at %v, its delete %+v", sp.Start, del)
				}
			}
		}
		if want := len(d.peers); frees != want {
			t.Errorf("%d members freed wal-d once its delete committed, want %d", frees, want)
		}

		if release(b); l.spare == nil || l.spare.name != "wal-b" {
			t.Fatalf("spare %+v, want wal-b's group", l.spare)
		}
		p.Sleep(5 * time.Millisecond) // wal-b's delete commits
		members := b.LivePeers()
		c.pNodes[members[0]].Crash()
		if cost, _ := release(c1); cost != 10*time.Millisecond {
			t.Errorf("displacing release took %v, want the one 10ms timeout", cost)
		}
		for _, pn := range members[1:] {
			if _, ok := c.peers[pn].RegionBytes("app1", "wal-b"); ok || c.peers[pn].Regions() != 1 {
				t.Errorf("peer %s still holds the displaced spare's region when Release returns", pn)
			}
		}

	})
}

func TestRecoverySyncsLaggingPeer(t *testing.T) {
	c := newCluster(6, 3, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		var lagging string
		c.appNode.Go("app-v1", func(ap *simnet.Proc) {
			l, _ := NewLib(ap, c.svc, c.fabric, c.appNode, "app1", 0, DefaultConfig())
			lg, err := l.Open(ap, "wal", 1<<20, false)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			lg.Append(ap, []byte("AAAA"))
			ap.Sleep(time.Millisecond)
			// Partition one member: it misses subsequent writes but is not
			// detected as failed before the app crashes.
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

		l2, _ := NewLib(p, c.svc, c.fabric, c.appNode, "app1", 1, DefaultConfig())
		lg2, err := recoverSync(p, l2, "wal")
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if string(lg2.Bytes()) != "AAAABBBBCCCC" {
			t.Fatalf("recovered %q, lagging peer polluted recovery", lg2.Bytes())
		}
		// The lagging peer must now hold the full content (catch-up via
		// staging + atomic switch).
		p.Sleep(time.Millisecond)
		region, ok := c.peers[lagging].RegionBytes("app1", "wal")
		if !ok {
			t.Fatalf("lagging peer lost its region")
		}
		if binary.LittleEndian.Uint64(region[0:8]) != lg2.Seq() {
			t.Errorf("lagging peer seq = %d, want %d after catch-up",
				binary.LittleEndian.Uint64(region[0:8]), lg2.Seq())
		}
		if string(region[HeaderSize:HeaderSize+12]) != "AAAABBBBCCCC" {
			t.Errorf("lagging peer content = %q", region[HeaderSize:HeaderSize+12])
		}
	})
}

func TestCircularOverwriteRecovery(t *testing.T) {
	// SQLite-style circular log (Fig 7ii): overwrites at low offsets must be
	// recovered via whole-region catch-up, not tail shipping.
	c := newCluster(7, 3, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		c.appNode.Go("app-v1", func(ap *simnet.Proc) {
			l, _ := NewLib(ap, c.svc, c.fabric, c.appNode, "app1", 0, DefaultConfig())
			lg, err := l.Open(ap, "db-wal", 64, false)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			lg.Record(ap, 0, []byte("aaaa")) // write a
			lg.Record(ap, 4, []byte("bbbb")) // write b
			lg.Record(ap, 0, []byte("cccc")) // wraps: overwrites a
			ap.Sleep(time.Hour)
		})
		p.Sleep(200 * time.Millisecond)
		c.appNode.Crash()
		p.Sleep(10 * time.Millisecond)
		c.appNode.Restart()
		l2, _ := NewLib(p, c.svc, c.fabric, c.appNode, "app1", 1, DefaultConfig())
		lg2, err := recoverSync(p, l2, "db-wal")
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if string(lg2.Bytes()) != "ccccbbbb" {
			t.Fatalf("recovered %q, want ccccbbbb", lg2.Bytes())
		}
	})
}

func TestMemoryRevocationHandledAsPeerFailure(t *testing.T) {
	c := newCluster(10, 4, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		l := c.newLib(p, t, "app1", 0)
		lg, err := l.Open(p, "wal", 1<<20, false)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		lg.Append(p, []byte("a"))
		victim := lg.LivePeers()[1]
		if !c.peers[victim].Revoke(p, "app1", "wal") {
			t.Fatalf("revoke failed")
		}
		// Writes continue; the revoked peer is detected and replaced.
		for i := 0; i < 10; i++ {
			if _, err := lg.Append(p, []byte("b")); err != nil {
				t.Fatalf("append after revocation: %v", err)
			}
		}
		p.Sleep(500 * time.Millisecond)
		for _, pn := range lg.LivePeers() {
			if pn == victim {
				t.Errorf("revoked peer still a member")
			}
		}
		if lg.Replacements != 1 {
			t.Errorf("replacements = %d, want 1", lg.Replacements)
		}
	})
}

func TestRestartedPeerRejectsRecoveryLookup(t *testing.T) {
	// A peer that crashed and restarted has lost its mr-map; recovery must
	// not read stale/zeroed data from it.
	c := newCluster(12, 4, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		c.appNode.Go("app-v1", func(ap *simnet.Proc) {
			l, _ := NewLib(ap, c.svc, c.fabric, c.appNode, "app1", 0, DefaultConfig())
			lg, _ := l.Open(ap, "wal", 1<<20, false)
			for i := 0; i < 5; i++ {
				lg.Append(ap, []byte("data!"))
			}
			ap.Sleep(time.Hour)
		})
		p.Sleep(200 * time.Millisecond)
		// Find a member, bounce it, then crash the app before any write
		// could detect the bounce.
		l := c.peers // all peers; find one with a region
		var member string
		for name, pr := range l {
			if pr.Regions() > 0 {
				member = name
				break
			}
		}
		c.appNode.Crash()
		c.pNodes[member].Crash()
		p.Sleep(10 * time.Millisecond)
		c.restartPeer(p, t, member)
		c.appNode.Restart()
		l2, _ := NewLib(p, c.svc, c.fabric, c.appNode, "app1", 1, DefaultConfig())
		lg2, err := recoverSync(p, l2, "wal")
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if lg2.Length() != 25 || string(lg2.Bytes()[:5]) != "data!" {
			t.Fatalf("recovered %q (len %d)", lg2.Bytes(), lg2.Length())
		}
	})
}

func TestSpaceLeakGC(t *testing.T) {
	cfg := smallPeerCfg()
	cfg.GCInterval = 500 * time.Millisecond
	cfg.GCGrace = time.Second
	c := newCluster(13, 3, cfg)
	c.run(t, func(p *simnet.Proc) {
		// Simulate an application that allocated a region and crashed before
		// writing its ap-map entry: call Setup directly.
		_, err := wire.Call[peer.SetupResp](p, c.sim.Net(), c.appNode, peer.Addr("peer0"), peer.SetupReq{
			App: "ghost", File: "leaked", Size: 1 << 20, Epoch: 1,
		})
		if err != nil {
			t.Fatalf("setup: %v", err)
		}
		if c.peers["peer0"].Regions() != 1 {
			t.Fatalf("region not allocated")
		}
		p.Sleep(3 * time.Second) // > grace + scan
		if c.peers["peer0"].Regions() != 0 {
			t.Fatalf("leaked region not garbage collected")
		}
		if c.peers["peer0"].Avail() != cfg.LendableMem {
			t.Errorf("avail = %d after GC, want full", c.peers["peer0"].Avail())
		}
	})
}

func TestSpaceLeakGCKeepsLiveAllocations(t *testing.T) {
	cfg := smallPeerCfg()
	cfg.GCInterval = 300 * time.Millisecond
	cfg.GCGrace = 600 * time.Millisecond
	c := newCluster(14, 3, cfg)
	c.run(t, func(p *simnet.Proc) {
		l := c.newLib(p, t, "app1", 0)
		lg, err := l.Open(p, "wal", 1<<20, false)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		p.Sleep(3 * time.Second)
		// Live allocation (present in ap-map, epoch matches): must survive.
		total := 0
		for _, pn := range lg.LivePeers() {
			total += c.peers[pn].Regions()
		}
		if total != 3 {
			t.Fatalf("live regions GCed: %d remain", total)
		}
	})
}

func TestInstanceLockBlocksDuplicates(t *testing.T) {
	c := newCluster(15, 3, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		l1 := c.newLib(p, t, "app1", 0)
		if err := l1.AcquireInstanceLock(p); err != nil {
			t.Fatalf("first lock: %v", err)
		}
		other := c.sim.NewNode("appserver2")
		l2, err := NewLib(p, c.svc, c.fabric, other, "app1", 0, DefaultConfig())
		if err != nil {
			t.Fatalf("lib2: %v", err)
		}
		if err := l2.AcquireInstanceLock(p); err == nil {
			t.Fatalf("duplicate instance acquired the lock")
		}
	})
}

// A recycled region reads zero end to end, whatever its last tenant wrote: a
// mirror log's records and header, an ec log's frames, and the staging
// regions a recovery switched in.
func TestRecycledRegionReadsZero(t *testing.T) {
	for _, pol := range []string{"mirror", "ec:4,2"} {
		t.Run(pol, func(t *testing.T) {
			c := newCluster(61, 6, smallPeerCfg())
			c.run(t, func(p *simnet.Proc) {
				cfg := policyCfg(t, pol)
				l, err := NewLib(p, c.svc, c.fabric, c.appNode, "app1", 0, cfg)
				if err != nil {
					t.Fatalf("new lib: %v", err)
				}
				lg, err := l.Open(p, "wal", 1<<20, false)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				rec := make([]byte, 4000)
				for i := 0; i < 100; i++ {
					rec[0], rec[len(rec)-1] = byte(i+1), byte(i+1)
					if _, err := lg.Append(p, rec); err != nil {
						t.Fatalf("append %d: %v", i, err)
					}
				}
				// A new instance's recovery: under mirror, a log that is not
				// append-only catches its survivors up through staging.
				c.appNode.Crash()
				p.Sleep(10 * time.Millisecond)
				c.appNode.Restart()
				l, err = NewLib(p, c.svc, c.fabric, c.appNode, "app1", 1, cfg)
				if err != nil {
					t.Fatalf("new lib: %v", err)
				}
				if lg, err = recoverSync(p, l, "wal"); err != nil {
					t.Fatalf("recover: %v", err)
				}
				if _, err := lg.Append(p, rec); err != nil {
					t.Fatalf("append after recovery: %v", err)
				}
				if err := lg.Release(p); err != nil {
					t.Fatalf("release: %v", err)
				}
				next, err := l.Open(p, "wal-next", 1<<20, false)
				if err != nil {
					t.Fatalf("open on the spare: %v", err)
				}
				if !slices.Equal(next.LivePeers(), lg.peerNames()) {
					t.Fatalf("open on %v, want the released group %v", next.LivePeers(), lg.peerNames())
				}
				for _, pn := range next.LivePeers() {
					region, _ := c.peers[pn].RegionBytes("app1", "wal-next")
					if i := slices.IndexFunc(region, func(b byte) bool { return b != 0 }); i >= 0 || len(region) == 0 {
						t.Errorf("peer %s: the recycled region (%d bytes) holds a byte of its last tenant at %d", pn, len(region), i)
					}
				}
			})
		})
	}
}
