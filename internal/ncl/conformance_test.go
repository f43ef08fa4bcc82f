package ncl

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"splitft/internal/peer"
	"splitft/internal/simnet"
	"splitft/internal/trace"
	"splitft/internal/wire"
)

// TestPolicyConformance drives every membership path — open (and a set-up
// wave that loses a candidate), live replacement, recovery replacement,
// release by recovery — under every
// replication policy and both registry refresh rules (TTL 0: one controller
// list per allocation, the paper's protocol; TTL > 0: the cached registry in
// rendezvous order), and checks each script against the bytes it saw
// acknowledged. Whatever is specific to one policy's region layout (mirror's
// header, staging vs tail catch-up, circular overwrite) has its own test.

// conf is one conformance run: a cluster, the configuration under test, and
// the reference — per log, every byte of every acknowledged append in order.
type conf struct {
	t       *testing.T
	c       *cluster
	cfg     Config
	spec    PolicySpec // cfg.Replication, parsed
	fencing int64
	acked   map[string][]byte
	// capacity is what open asks for; recScale multiplies the record sizes
	// (100-184 bytes at 1) for the script that needs a log of several
	// recovery segments.
	capacity int64
	recScale int
	// recovered is how many bytes the last recover returned.
	recovered int
}

// lib starts the next application instance.
func (e *conf) lib(p *simnet.Proc, cfg Config) *Lib {
	l, err := NewLib(p, e.c.svc, e.c.fabric, e.c.appNode, "app1", e.fencing, cfg)
	if err != nil {
		e.t.Fatalf("new lib (fencing %d): %v", e.fencing, err)
	}
	e.fencing++
	return l
}

func (e *conf) open(p *simnet.Proc, l *Lib, name string) *Log {
	lg, err := l.Open(p, name, e.capacity, false)
	if err != nil {
		e.t.Fatalf("open %s: %v", name, err)
	}
	if got := len(lg.LivePeers()); got != lg.place.Slots {
		e.t.Fatalf("open %s: %d live peers, want %d", name, got, lg.place.Slots)
	}
	return lg
}

// rec is the next record of a log: its content and size depend on how much
// the log already holds, so a misplaced or repeated record shows.
func (e *conf) rec(name string) []byte {
	n := len(e.acked[name])
	return bytes.Repeat([]byte{byte(n%251 + 1)}, (100+n%13*7)*e.recScale)
}

// append writes n records and counts them acknowledged.
func (e *conf) append(p *simnet.Proc, lg *Log, n int) {
	for i := 0; i < n; i++ {
		rec := e.rec(lg.name)
		if _, err := lg.Append(p, rec); err != nil {
			e.t.Fatalf("append to %s after %d acked bytes: %v", lg.name, len(e.acked[lg.name]), err)
		}
		e.acked[lg.name] = append(e.acked[lg.name], rec...)
	}
}

func (e *conf) crashApp(p *simnet.Proc) {
	e.c.appNode.Crash()
	p.Sleep(10 * time.Millisecond)
	e.c.appNode.Restart()
}

// reopen is the suite's reference check. It reopens name in a fresh instance
// whose own default is mirror — the ap-map entry's policy must win — and holds
// the content to the reference byte for byte: everything acknowledged, then at
// most the one record (inflight) the crash cut short. It reads the way an
// application does, as the bytes arrive and before the barrier. An error is
// the suite going red.
func (e *conf) reopen(p *simnet.Proc, name string, inflight []byte) (*Log, error) {
	cfg := DefaultConfig()
	cfg.PoolRefresh = e.cfg.PoolRefresh
	lg, err := e.lib(p, cfg).Recover(p, name)
	if err != nil {
		return nil, err
	}
	want := e.acked[name]
	got := e.readAll(p, lg)
	if !bytes.HasPrefix(got, want) {
		return nil, fmt.Errorf("%d bytes do not start with the %d acknowledged", len(got), len(want))
	}
	if tail := got[len(want):]; len(tail) > 0 && !bytes.Equal(tail, inflight) {
		return nil, fmt.Errorf("%d bytes beyond the acknowledged prefix are not the in-flight record", len(tail))
	}
	e.acked[name], e.recovered = got, len(got) // recovered is externalized: it must survive from now on
	return lg, nil
}

// recover is reopen held to its result, and to the rest of what a recovery
// owes: the policy the log was written under, and an append — without calling
// Sync, so the append itself must wait until the membership is whole again.
func (e *conf) recover(p *simnet.Proc, name string, inflight []byte) *Log {
	lg, err := e.reopen(p, name, inflight)
	if err != nil {
		e.t.Fatalf("recover %s: %v", name, err)
	}
	if lg.Policy() != e.spec {
		e.t.Fatalf("recover %s: policy %s, want %s", name, lg.Policy(), e.spec)
	}
	e.append(p, lg, 1)
	if got := len(lg.LivePeers()); got != lg.place.Slots {
		e.t.Fatalf("recover %s: %d live peers after the first append, want full membership %d", name, got, lg.place.Slots)
	}
	return lg
}

// readAll reads the whole log through ReadAt, which blocks for the bytes of
// a recovery that is still streaming.
func (e *conf) readAll(p *simnet.Proc, lg *Log) []byte {
	got := make([]byte, lg.Length())
	if n, err := lg.ReadAt(p, got, 0); err != nil || n != len(got) {
		e.t.Fatalf("read %s: %d of %d bytes, %v", lg.name, n, len(got), err)
	}
	return got
}

// crashPeers crashes the named log peers.
func (e *conf) crashPeers(names ...string) {
	for _, name := range names {
		e.c.pNodes[name].Crash()
	}
}

// restored waits for background repair and checks the membership is whole,
// names none of the victims, took one replacement and one epoch per victim,
// and is what the ap-map records.
func (e *conf) restored(p *simnet.Proc, l *Lib, lg *Log, epochBefore int64, victims ...string) {
	p.Sleep(2 * time.Second)
	live := lg.LivePeers()
	if len(live) != lg.place.Slots {
		e.t.Fatalf("membership not restored: %v of %d", live, lg.place.Slots)
	}
	for _, pn := range live {
		for _, v := range victims {
			if pn == v {
				e.t.Fatalf("victim %s still a member: %v", v, live)
			}
		}
	}
	if want := epochBefore + int64(len(victims)); lg.Epoch() != want {
		e.t.Fatalf("epoch %d after %d replacements from %d, want %d", lg.Epoch(), len(victims), epochBefore, want)
	}
	entry, _, found, err := l.ctrl.GetAppFile(p, "app1", lg.name)
	if err != nil || !found || entry.Epoch != lg.Epoch() || !reflect.DeepEqual(entry.Peers, live) {
		e.t.Fatalf("ap-map entry %+v (found %v, err %v) != log epoch %d members %v", entry, found, err, lg.Epoch(), live)
	}
}

// heldByEntries checks that the ap-map holds exactly the files names (in
// order) and that every live peer holds exactly the regions their entries
// place on it — what is left once the peers' GC has swept.
func (e *conf) heldByEntries(p *simnet.Proc, names ...string) {
	l := e.lib(p, e.cfg)
	if files, err := l.ListFiles(p); err != nil || !slices.Equal(files, names) {
		e.t.Fatalf("files %v (%v), want %v", files, err, names)
	}
	want := map[string]int{}
	for _, name := range names {
		entry, _, err := l.lookup(p, name)
		if err != nil {
			e.t.Fatalf("lookup %s: %v", name, err)
		}
		for _, pn := range entry.Peers {
			want[pn]++
		}
	}
	for pn, pr := range e.c.peers {
		if got := pr.Regions(); got != want[pn] && e.c.pNodes[pn].Alive() {
			e.t.Fatalf("peer %s holds %d regions, the ap-map names it %d times", pn, got, want[pn])
		}
	}
}

// losePublishReply arms a one-shot fault: the moment the application next
// proposes an ap-map write (a "controller" create or set span opens anywhere
// but on a log peer, whose sets publish its free memory), every controller
// node's messages to the application node are dropped for one RPC attempt's
// timeout. The proposal commits, its reply is lost, and raft.Client's
// re-submission finds the entry already written. fired reports that it did.
func (e *conf) losePublishReply(col *trace.Collector) (fired *bool) {
	fired = new(bool)
	mark := col.Len()
	e.c.sim.Go("lose-publish-reply", func(fp *simnet.Proc) {
		for {
			for _, sp := range col.Since(mark) {
				if sp.Layer != "controller" || e.c.pNodes[sp.Node] != nil || (sp.Op != "create" && sp.Op != "set") {
					continue
				}
				*fired = true
				for _, n := range e.c.svc.Nodes() {
					e.c.sim.Net().PartitionOneWay(n, e.c.appNode)
				}
				fp.Sleep(e.c.svc.Config().SessionTimeout / 6) // controller.Client's per-attempt timeout
				for _, n := range e.c.svc.Nodes() {
					e.c.sim.Net().HealOneWay(n, e.c.appNode)
				}
				return
			}
			mark = col.Len()
			fp.Sleep(20 * time.Microsecond)
		}
	})
	return fired
}

// nameSharing returns the first name prefix<i> whose group the lib would pick
// now holds at least need of the peers in members.
func nameSharing(t *testing.T, p *simnet.Proc, l *Lib, spec PolicySpec, capacity int64, prefix string, members []string, need int) string {
	registry, err := l.ctrl.ListPeers(p)
	if err != nil {
		t.Fatalf("list peers: %v", err)
	}
	place := spec.Place(capacity)
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		n := 0
		for _, cand := range l.pick(&Log{name: name}, nil, eligible(registry, nil, place.SlotRegion), place.Slots) {
			if slices.Contains(members, cand.Name) {
				n++
			}
		}
		if n >= need {
			return name
		}
	}
	t.Fatalf("no name %s<i> shares %d of %v", prefix, need, members)
	return ""
}

// shared returns need live members of a that are live members of b too, in
// a's slot order.
func (e *conf) shared(a, b *Log, need int) []string {
	both := slices.DeleteFunc(a.LivePeers(), func(pn string) bool { return !slices.Contains(b.LivePeers(), pn) })
	if len(both) < need {
		e.t.Fatalf("%s on %v shares %v with %s on %v, want %d members", a.name, a.LivePeers(), both, b.name, b.LivePeers(), need)
	}
	return both[:need]
}

var confScripts = []struct {
	name string
	run  func(e *conf, p *simnet.Proc)
}{
	{"app crash mid-stream", func(e *conf, p *simnet.Proc) {
		// §4.6: for any crash point, recovery returns every acknowledged
		// append in order. The writer runs on the app node so the crash cuts
		// an append short.
		var inflight []byte
		e.c.appNode.Go("app-v1", func(ap *simnet.Proc) {
			lg := e.open(ap, e.lib(ap, e.cfg), "wal")
			for {
				inflight = e.rec("wal")
				e.append(ap, lg, 1)
				inflight = nil
			}
		})
		for len(e.acked["wal"]) < 30000 {
			p.Sleep(100 * time.Microsecond)
		}
		e.crashApp(p)
		col := trace.New()
		e.c.sim.SetTracer(col)
		e.recover(p, "wal", inflight)
		e.c.sim.SetTracer(nil)
		// Fig 11(b) is a query over these spans.
		rec, phases := trace.First(col.Spans(), "ncl", "recover"), trace.Filter(col.Spans(), "ncl", "recover.")
		if !rec.Done() || len(phases) != 4 || trace.Sum(phases, "", "") > rec.Dur() {
			e.t.Fatalf("recover spans: parent %+v, %d phases", rec, len(phases))
		}
	}},
	{"candidate lost in the set-up wave", func(e *conf, p *simnet.Proc) {
		// A peer the allocator picked dies while the group is being set up —
		// or turns its set-up down with ErrNoMem, its memory having gone
		// elsewhere since the registry last heard from it. Only that slot goes
		// into a second wave: Open returns a whole group of distinct live
		// peers, and what the lost candidate and the wave left behind goes to
		// the peers' GC.
		col := trace.New()
		var names []string
		for _, reject := range []bool{false, true} {
			name := fmt.Sprintf("wal-reject-%v", reject)
			names = append(names, name)
			l := e.lib(p, e.cfg)
			registry, err := l.ctrl.ListPeers(p)
			if err != nil {
				e.t.Fatalf("list peers: %v", err)
			}
			place := e.spec.Place(e.capacity)
			victim := l.pick(&Log{name: name}, nil, eligible(registry, nil, place.SlotRegion), place.Slots)[1].Name
			vnode := e.c.pNodes[victim]
			if reject {
				// The registry must not hear of it before the open has asked.
				for _, n := range e.c.svc.Nodes() {
					e.c.sim.Net().Partition(vnode, n)
				}
				if _, err := wire.Call[peer.SetupResp](p, e.c.sim.Net(), e.c.appNode, peer.Addr(victim), peer.SetupReq{
					App: "ghost", File: "fill", Size: e.c.peers[victim].Avail(), Epoch: 1,
				}); err != nil {
					e.t.Fatalf("fill %s: %v", victim, err)
				}
			}
			e.c.sim.SetTracer(col)
			mark := col.Len()
			asked := func() bool {
				for _, sp := range col.Since(mark) {
					if sp.Layer == "peer" && sp.Op == "setup" && sp.Node == victim && sp.StrAttr("file") == "app1/"+name {
						return true
					}
				}
				return false
			}
			if !reject {
				e.c.sim.Go("crash-in-wave", func(fp *simnet.Proc) {
					for !asked() {
						fp.Sleep(20 * time.Microsecond)
					}
					e.crashPeers(victim)
				})
			}
			lg := e.open(p, l, name)
			e.c.sim.SetTracer(nil)
			for _, n := range e.c.svc.Nodes() {
				e.c.sim.Net().Heal(vnode, n)
			}
			members := lg.LivePeers()
			slices.Sort(members)
			if !asked() || slices.Contains(members, victim) || len(slices.Compact(members)) != place.Slots {
				e.t.Fatalf("%s: %s asked for a region: %v; members %v, want %d distinct peers without it",
					name, victim, asked(), lg.LivePeers(), place.Slots)
			}
			e.append(p, lg, 5)
			e.crashApp(p)
			e.recover(p, name, nil)
		}
		p.Sleep(6 * time.Second) // GC interval + grace
		e.heldByEntries(p, names...)
	}},
	{"peer crash under writes", func(e *conf, p *simnet.Proc) {
		// Mirror and quorum ride the failure out on the surviving majority;
		// ec stalls until the replacement activates (AckNeed = k+m).
		l := e.lib(p, e.cfg)
		lg := e.open(p, l, "wal")
		e.append(p, lg, 5)
		victim := lg.LivePeers()[1]
		e.crashPeers(victim)
		e.append(p, lg, 10)
		e.restored(p, l, lg, 1, victim)
		if lg.Replacements != 1 {
			e.t.Fatalf("replacements = %d, want 1", lg.Replacements)
		}
		e.crashApp(p)
		e.recover(p, "wal", nil) // the re-replicated state is whole
	}},
	{"replacement lands on a just-restarted peer", func(e *conf, p *simnet.Proc) {
		// Every spare peer crashes and comes back, so whichever the allocator
		// picks is 20 to 50 ms into its 56 ms warm-up: it lends memory that is
		// partly pinned, under a daemon that has forgotten every region it held.
		l := e.lib(p, e.cfg)
		lg := e.open(p, l, "wal")
		e.append(p, lg, 5)
		members := lg.LivePeers()
		var spares []string
		for name := range e.c.pNodes {
			if !slices.Contains(members, name) {
				spares = append(spares, name)
			}
		}
		slices.Sort(spares)
		e.crashPeers(spares...)
		for _, name := range spares {
			e.c.restartPeer(p, e.t, name)
		}
		p.Sleep(20 * time.Millisecond)
		victim := members[1]
		e.crashPeers(victim)
		e.append(p, lg, 10)
		e.restored(p, l, lg, 1, victim)
		if lg.Replacements != 1 {
			e.t.Fatalf("replacements = %d, want 1", lg.Replacements)
		}
		e.crashApp(p)
		e.recover(p, "wal", nil)
	}},
	{"member dead at recovery", func(e *conf, p *simnet.Proc) {
		// Twice, so the second recovery leans on the first one's replacement:
		// a replacement that was published without its content shows here.
		lg := e.open(p, e.lib(p, e.cfg), "wal")
		e.append(p, lg, 12)
		for round := 0; round < 2; round++ {
			epoch := lg.Epoch()
			e.crashPeers(lg.LivePeers()[round])
			e.crashApp(p)
			if lg = e.recover(p, "wal", nil); lg.Epoch() <= epoch {
				e.t.Fatalf("recovery replaced a member under epoch %d, was %d", lg.Epoch(), epoch)
			}
		}
	}},
	{"one failure too many", func(e *conf, p *simnet.Proc) {
		// Never hand back content reconstructed from too few members.
		lg := e.open(p, e.lib(p, e.cfg), "wal")
		e.append(p, lg, 8)
		e.crashPeers(lg.LivePeers()[:lg.Policy().Tolerates()+1]...)
		e.crashApp(p)
		if _, err := e.lib(p, e.cfg).Recover(p, "wal"); !errors.Is(err, ErrUnavailable) {
			e.t.Fatalf("recover beyond the failure budget: %v, want ErrUnavailable", err)
		}
	}},
	{"partition from one peer then heal", func(e *conf, p *simnet.Proc) {
		l := e.lib(p, e.cfg)
		lg := e.open(p, l, "wal")
		victim := lg.LivePeers()[1]
		e.c.sim.Net().Partition(e.c.appNode, e.c.pNodes[victim])
		e.append(p, lg, 10)
		e.restored(p, l, lg, 1, victim)
		e.c.sim.Net().Heal(e.c.appNode, e.c.pNodes[victim])
		e.append(p, lg, 1)
		// The healed peer's region is stale under the epoch rules.
		p.Sleep(6 * time.Second) // GC interval + grace
		if e.c.peers[victim].Regions() != 0 {
			e.t.Fatalf("stale region on healed peer %s not garbage collected", victim)
		}
	}},
	{"two logs", func(e *conf, p *simnet.Proc) {
		l := e.lib(p, e.cfg)
		a, b := e.open(p, l, "wal-a"), e.open(p, l, "wal-b")
		for round := 0; round < 20; round++ {
			e.append(p, a, 1)
			e.append(p, b, 2)
		}
		// Losing a member of one log repairs that log only.
		victim := a.LivePeers()[0]
		for _, pn := range b.LivePeers() {
			if pn == victim {
				victim = ""
			}
		}
		if victim != "" {
			e.crashPeers(victim)
			e.append(p, a, 1)
			e.restored(p, l, a, 1, victim)
			e.restored(p, l, b, 1)
		}
		e.crashApp(p)
		e.recover(p, "wal-a", nil)
		e.crashApp(p)
		files, err := e.lib(p, e.cfg).ListFiles(p)
		if err != nil || !reflect.DeepEqual(files, []string{"wal-a", "wal-b"}) {
			e.t.Fatalf("files = %v, %v", files, err)
		}
		e.recover(p, "wal-b", nil)
	}},
	{"recover, crash, recover again", func(e *conf, p *simnet.Proc) {
		// §4.6 across successive recoveries: what one recovery returned (and
		// the application may have externalized) every later one returns.
		e.append(p, e.open(p, e.lib(p, e.cfg), "wal"), 20)
		e.crashApp(p)
		e.append(p, e.recover(p, "wal", nil), 3)
		e.crashApp(p)
		e.recover(p, "wal", nil)
	}},
	{"every member replaced in turn under writes", func(e *conf, p *simnet.Proc) {
		// The writer never pauses, so each replacement has a delta between
		// its catch-up cut and its activation; in the end the log lives on
		// replacements only, and one epoch per replacement has passed.
		e.capacity = 1 << 20 // some 140 KB of records go by meanwhile
		var l *Lib
		var lg *Log
		var inflight []byte
		e.c.appNode.Go("app-v1", func(ap *simnet.Proc) {
			l = e.lib(ap, e.cfg)
			lg = e.open(ap, l, "wal")
			for {
				inflight = e.rec("wal")
				e.append(ap, lg, 1)
				inflight = nil
				ap.Sleep(5 * time.Millisecond)
			}
		})
		for lg == nil {
			p.Sleep(time.Millisecond)
		}
		for _, victim := range lg.LivePeers() {
			epoch := lg.Epoch()
			e.crashPeers(victim)
			e.restored(p, l, lg, epoch, victim)
		}
		e.crashApp(p)
		e.recover(p, "wal", inflight)
	}},
	{"over-budget loss stalls then resumes", func(e *conf, p *simnet.Proc) {
		// More simultaneous failures than the policy tolerates: the write
		// stalls until replacements are caught up from the client's copy
		// (Fig 12), then completes; nothing is lost. On peers that have pinned
		// their memory the stall is detection, two controller round trips and
		// the catch-up: 3 to 4 ms.
		l := e.lib(p, e.cfg)
		lg := e.open(p, l, "wal")
		e.append(p, lg, 1)
		victims := append([]string(nil), lg.LivePeers()[:lg.Policy().Tolerates()+1]...)
		e.crashPeers(victims...)
		start := p.Now()
		e.append(p, lg, 1)
		if stall := p.Now() - start; stall < 2*time.Millisecond || stall > 2*time.Second {
			e.t.Fatalf("stall = %v, want a visible stall that ends with the replacements", stall)
		}
		e.restored(p, l, lg, 1, victims...)
		e.crashApp(p)
		e.recover(p, "wal", nil)
	}},
	{"publish reply lost", func(e *conf, p *simnet.Proc) {
		// Every publish — open's create, a live replacement's CAS, recovery's
		// CAS (mirror publishes at recovery because a member died with the
		// application; the frame logs always do) — survives committing
		// without hearing so: the membership it wrote is the one in force.
		col := trace.New()
		e.c.sim.SetTracer(col)
		l := e.lib(p, e.cfg)
		atOpen := e.losePublishReply(col)
		lg := e.open(p, l, "wal")
		e.append(p, lg, 5)
		victim := lg.LivePeers()[1]
		atReplace := e.losePublishReply(col)
		e.crashPeers(victim)
		e.append(p, lg, 5)
		e.restored(p, l, lg, 1, victim)
		e.crashPeers(lg.LivePeers()[0])
		e.crashApp(p)
		atRecovery := e.losePublishReply(col)
		lg = e.recover(p, "wal", nil)
		if !*atOpen || !*atReplace || !*atRecovery || lg.Epoch() != 3 {
			e.t.Fatalf("replies lost at open %v, live replacement %v, recovery %v; epoch %d, want all three and epoch 3",
				*atOpen, *atReplace, *atRecovery, lg.Epoch())
		}
		e.crashApp(p)
		e.c.sim.SetTracer(nil)
		e.recover(p, "wal", nil) // what recovery published is what the next instance finds
	}},
	{"recovery peer dies mid-stream", func(e *conf, p *simnet.Proc) {
		// DESIGN.md §16: bytes are readable as they arrive, and only whole.
		// The member the content streams from (mirror's max-sequence peer;
		// the frame logs read every member whole before Recover returns, so
		// any one) dies once the first of three segments has landed. A read
		// then fails or returns exactly what was acknowledged — never arrived
		// data mixed with zeros — the barrier says which, and a retry in the
		// same instance recovers from the remaining majority.
		e.capacity, e.recScale = 4<<20, 512
		e.append(p, e.open(p, e.lib(p, e.cfg), "wal"), 40)
		if n := len(e.acked["wal"]); n <= 2*recoverySegment {
			e.t.Fatalf("%d acknowledged bytes are not three segments", n)
		}
		e.crashApp(p)
		l := e.lib(p, e.cfg)
		lg, err := l.Recover(p, "wal")
		if err != nil {
			e.t.Fatalf("recover: %v", err)
		}
		victim := lg.peers[0].name
		m, mirror := lg.policy.(*mirrorPolicy)
		if mirror {
			victim = m.recoveryPeer.name
		}
		if _, err := lg.ReadAt(p, make([]byte, 1), 0); err != nil {
			e.t.Fatalf("read of the first segment: %v", err)
		}
		e.crashPeers(victim)
		got := make([]byte, lg.Length())
		_, rerr := lg.ReadAt(p, got, 0)
		serr := lg.Sync(p)
		if rerr == nil && !bytes.Equal(got, e.acked["wal"]) {
			e.t.Fatalf("read through the death of %s returned %d bytes that are not the %d acknowledged", victim, len(got), len(e.acked["wal"]))
		}
		if mirror != (rerr != nil && serr != nil) {
			e.t.Fatalf("read %v, barrier %v: want both to fail under mirror (two segments never arrived) and neither otherwise", rerr, serr)
		}
		if serr != nil {
			if lg, err = l.Recover(p, "wal"); err != nil {
				e.t.Fatalf("second recover, from the remaining majority: %v", err)
			}
			if got := e.readAll(p, lg); !bytes.Equal(got, e.acked["wal"]) {
				e.t.Fatalf("second recover: %d bytes are not the %d acknowledged", len(got), len(e.acked["wal"]))
			}
		}
		// A member that needed no catch-up (quorum) is found dead by the next
		// write and repaired like any other.
		e.append(p, lg, 1)
		p.Sleep(2 * time.Second)
		if live := lg.LivePeers(); len(live) != lg.place.Slots || slices.Contains(live, victim) {
			e.t.Fatalf("membership after the barrier %v, want whole and without %s", live, victim)
		}
		e.crashApp(p)
		e.recover(p, "wal", nil)
	}},
	{"second crash before the barrier", func(e *conf, p *simnet.Proc) {
		// The rule of DESIGN.md §16 from both sides. The crash leaves a record
		// in flight on just enough members to be recovered (one under the
		// max-sequence rules, k under ec's). Read before the barrier and
		// followed by the loss of the application and of a member that held
		// it, it is gone from the next recovery — an un-fsynced read; once
		// Sync has returned it may not be.
		reach := 1
		if e.spec.Kind == PolicyEC {
			reach = e.spec.K
		}
		for _, barrier := range []bool{false, true} {
			name := fmt.Sprintf("wal-barrier-%v", barrier)
			var members []string
			var inflight []byte
			posted := simnet.NewChan[struct{}](e.c.sim)
			e.c.appNode.Go("app-v1", func(ap *simnet.Proc) {
				lg := e.open(ap, e.lib(ap, e.cfg), name)
				e.append(ap, lg, 20)
				members = lg.LivePeers()
				for _, m := range members[reach:] {
					e.c.sim.Net().Partition(e.c.appNode, e.c.pNodes[m])
				}
				inflight = e.rec(name)
				posted.Send(ap, struct{}{})
				lg.Append(ap, inflight) //nolint:errcheck // never acknowledged: the crash cuts it short
			})
			posted.Recv(p)
			p.Sleep(100 * time.Microsecond) // lands where it can; nobody is declared failed yet
			e.c.appNode.Crash()
			for _, m := range members[reach:] {
				e.c.sim.Net().Heal(e.c.appNode, e.c.pNodes[m])
			}
			p.Sleep(10 * time.Millisecond)
			e.c.appNode.Restart()

			lg, err := e.lib(p, e.cfg).Recover(p, name)
			if err != nil {
				e.t.Fatalf("%s: recover: %v", name, err)
			}
			read := e.readAll(p, lg)
			if want := append(append([]byte(nil), e.acked[name]...), inflight...); !bytes.Equal(read, want) {
				e.t.Fatalf("%s: recovered %d bytes, want the %d acknowledged and the record in flight", name, len(read), len(e.acked[name]))
			}
			if barrier {
				if err := lg.Sync(p); err != nil {
					e.t.Fatalf("%s: barrier: %v", name, err)
				}
				e.acked[name] = read // vouched for
			}
			e.crashPeers(members[0])
			e.crashApp(p)
			if e.recover(p, name, inflight); barrier != (e.recovered == len(read)) {
				// Without the barrier the older cut is only allowed, not
				// demanded; but the second crash came before the background
				// phase could have finished, so seeing the newer one means the
				// script no longer cuts it short.
				e.t.Fatalf("%s: %d bytes recovered after the second crash, %d read before it", name, e.recovered, len(read))
			}
		}
	}},
	{"app crash mid-release", func(e *conf, p *simnet.Proc) {
		// A file's life — set-up, appends, the unlink, then its successor's
		// open on the regions it parked, a record and the successor's unlink —
		// cut short before every dispatch of the application node leaves no
		// file or one whole file that holds what was acknowledged: never an
		// ap-map entry whose regions are gone, which no later instance could
		// recover or get past. A record is 12 dispatches when it is one work
		// request a member (quorum) and some 21 when it is six in all (mirror,
		// ec): enough of them for a life of about 200.
		appends := map[PolicyKind]int{PolicyMirror: 7, PolicyEC: 5, PolicyQuorum: 11}[e.spec.Kind]
		e.capacity = 64 << 10
		simnet.CutLadder(e.t.Logf, ladderSeed, ladderDense, func(k int) bool {
			name, next := fmt.Sprintf("wal-%d", k), fmt.Sprintf("wal-%d-next", k)
			var inflight []byte
			if e.c.appNode.RunCut(p, k, func(ap *simnet.Proc) {
				l := e.lib(ap, e.cfg)
				lg := e.open(ap, l, name)
				for i := 0; i < appends; i++ {
					inflight = e.rec(name)
					e.append(ap, lg, 1)
					inflight = nil
				}
				lg.Release(ap) //nolint:errcheck
				lg = e.open(ap, l, next)
				inflight = e.rec(next)
				e.append(ap, lg, 1)
				inflight = nil
				lg.Release(ap) //nolint:errcheck
			}) || e.t.Failed() {
				return true
			}
			e.crashApp(p)
			l := e.lib(p, e.cfg)
			files, err := l.ListFiles(p)
			if err != nil {
				e.t.Fatalf("cut %d: list: %v", k, err)
			}
			if len(files) == 0 {
				if _, err := l.Recover(p, name); !errors.Is(err, ErrNotFound) {
					e.t.Fatalf("cut %d: no files, recover: %v", k, err)
				}
				return false
			}
			if len(files) > 1 {
				e.t.Fatalf("cut %d: files %v, want the one the cut left", k, files)
			}
			e.crashApp(p)
			if err := e.recover(p, files[0], inflight).Release(p); err != nil {
				e.t.Fatalf("cut %d: release after recovery: %v", k, err)
			}
			return false
		})
		// Regions orphaned by a cut once the delete was submitted go to the
		// peers' epoch GC.
		p.Sleep(6 * time.Second) // GC interval + grace
		for name, pr := range e.c.peers {
			if pr.Regions() != 0 {
				e.t.Fatalf("peer %s still holds %d regions", name, pr.Regions())
			}
		}
	}},
	{"app crash with a spare parked", func(e *conf, p *simnet.Proc) {
		// The released log's regions outlive the application that parked them,
		// named by no ap-map entry: once the GC's grace has passed, every peer
		// holds exactly the regions of the files that are left.
		l := e.lib(p, e.cfg)
		e.append(p, e.open(p, l, "wal-kept"), 3)
		lg := e.open(p, l, "wal")
		e.append(p, lg, 3)
		if err := lg.Release(p); err != nil || l.spare == nil {
			e.t.Fatalf("release: %v, spare %v", err, l.spare)
		}
		e.crashApp(p)
		p.Sleep(e.c.peerCfg.GCInterval + e.c.peerCfg.GCGrace + time.Millisecond)
		e.heldByEntries(p, "wal-kept")
		e.recover(p, "wal-kept", nil)
	}},
	{"app crash mid-rotation", func(e *conf, p *simnet.Proc) {
		// A rotation — the unlink of a full log, its successor's open on the
		// group it parked, one record — cut short before every dispatch of the
		// application node. The successor's set-up may recycle the old regions
		// before the old file's ap-map delete has committed. Whatever the cut,
		// the next instance finds the old file gone, whole, or released with
		// only its delete missing — a tombstone, which recovery finishes — and
		// the successor absent or whole: never an entry whose regions are gone.
		// That instance releases what it found and runs the next rotation.
		e.capacity = 64 << 10
		l := e.lib(p, e.cfg)
		simnet.CutLadder(e.t.Logf, ladderSeed, rotationDense, func(k int) bool {
			name, next := fmt.Sprintf("wal-%d", k), fmt.Sprintf("wal-%d-next", k)
			lg := e.open(p, l, name)
			e.append(p, lg, 2)
			var inflight []byte
			completed := e.c.appNode.RunCut(p, k, func(ap *simnet.Proc) {
				lg.Release(ap) //nolint:errcheck
				lg := e.open(ap, l, next)
				inflight = e.rec(next)
				e.append(ap, lg, 1)
				inflight = nil
			})
			if e.t.Failed() {
				return true
			}
			e.crashApp(p)
			l = e.lib(p, e.cfg)
			for _, f := range []struct {
				name     string
				inflight []byte
			}{{name, nil}, {next, inflight}} {
				lg, err := l.Recover(p, f.name)
				if errors.Is(err, ErrNotFound) {
					if entry, _, err := l.lookup(p, f.name); !errors.Is(err, ErrNotFound) {
						e.t.Fatalf("cut %d: %s not found by recovery, but the ap-map still holds %+v (%v)", k, f.name, entry, err)
					}
					continue
				}
				if err != nil {
					e.t.Fatalf("cut %d: recover %s: %v", k, f.name, err)
				}
				got, want := e.readAll(p, lg), e.acked[f.name]
				if tail := got[min(len(want), len(got)):]; !bytes.HasPrefix(got, want) || (len(tail) > 0 && !bytes.Equal(tail, f.inflight)) {
					e.t.Fatalf("cut %d: %s holds %d bytes, want the %d acknowledged and at most the record in flight", k, f.name, len(got), len(want))
				}
				if err := lg.Release(p); err != nil {
					e.t.Fatalf("cut %d: release %s after recovery: %v", k, f.name, err)
				}
			}
			return completed
		})
		// The orphans — parked or recycled regions, a successor set up but
		// never created — go to the peers' GC, and so do the tombstones the
		// recycles left, every delete having committed.
		p.Sleep(e.c.peerCfg.GCInterval + e.c.peerCfg.GCGrace + time.Millisecond)
		e.heldByEntries(p)
		for pn, pr := range e.c.peers {
			if n := pr.Tombstones(); n != 0 {
				e.t.Fatalf("peer %s keeps %d tombstones once the GC has swept", pn, n)
			}
		}
	}},
	{"delete lost after the recycle", func(e *conf, p *simnet.Proc) {
		// The application loses the controller across the unlink of a log and
		// its successor's set-up, which recycles the old regions while the old
		// file's ap-map delete is still being retried, and dies as the link
		// heals: the delete is lost. The members left tombstones, so the next
		// instance's recovery of the old file finishes the release instead of
		// failing ErrUnavailable on regions that are gone — then and at every
		// later start.
		l := e.lib(p, e.cfg)
		lg := e.open(p, l, "wal")
		e.append(p, lg, 3)
		members := lg.LivePeers()
		for _, n := range e.c.svc.Nodes() {
			e.c.sim.Net().Partition(e.c.appNode, n)
		}
		e.c.appNode.Go("rotate", func(ap *simnet.Proc) {
			lg.Release(ap)                            //nolint:errcheck
			l.Open(ap, "wal-next", e.capacity, false) //nolint:errcheck // its create waits out the partition
		})
		recycled := func() bool {
			for _, pn := range members {
				if _, ok := e.c.peers[pn].RegionBytes("app1", "wal-next"); !ok {
					return false
				}
			}
			return true
		}
		for !recycled() {
			p.Sleep(100 * time.Microsecond)
		}
		for _, n := range e.c.svc.Nodes() {
			e.c.sim.Net().Heal(e.c.appNode, n)
		}
		e.crashApp(p)
		for start := 0; start < 2; start++ {
			l := e.lib(p, e.cfg)
			if _, err := l.Recover(p, "wal"); !errors.Is(err, ErrNotFound) {
				e.t.Fatalf("start %d: recover of the released file: %v, want ErrNotFound", start, err)
			}
			if files, err := l.ListFiles(p); err != nil || len(files) != 0 {
				e.t.Fatalf("start %d: files %v (%v), want none", start, files, err)
			}
			e.crashApp(p)
		}
		p.Sleep(e.c.peerCfg.GCInterval + e.c.peerCfg.GCGrace + time.Millisecond)
		e.heldByEntries(p)
		for _, pn := range members {
			if n := e.c.peers[pn].Tombstones(); n != 0 {
				e.t.Fatalf("peer %s keeps %d tombstones once the GC has swept", pn, n)
			}
		}
	}},
	{"set-ups lost beside the create", func(e *conf, p *simnet.Proc) {
		// A rotation proposes its successor's create beside the set-ups that
		// recycle the parked group. Here the set-ups to some members are lost
		// on the way — to every member, or to one — and the application dies
		// after the create has committed, before the open could replace those
		// members. The entry names regions that never came to be; the members
		// that did not get theirs still hold the released file's, which the
		// entry names as the one it recycled. That proves the open never
		// returned, so the next instance recovers the successor as an empty
		// file on a whole membership, never ErrUnavailable. With one member
		// lost and no crash, the open itself replaces it and names it under
		// the next epoch, and no recycled file, before it returns.
		for _, c := range []struct {
			name  string
			lose  func(members []string) []string
			crash bool
		}{
			{"every", func(m []string) []string { return m }, true},
			{"one", func(m []string) []string { return m[1:2] }, true},
			{"one, open completes", func(m []string) []string { return m[1:2] }, false},
		} {
			l := e.lib(p, e.cfg)
			name, next := "wal-"+c.name, "wal-"+c.name+"-next"
			lg := e.open(p, l, name)
			e.append(p, lg, 2)
			lost := c.lose(lg.peerNames())
			for _, pn := range lost {
				e.c.sim.Net().PartitionOneWay(e.c.appNode, e.c.pNodes[pn])
			}
			var opened *Log
			var openErr error
			done := false
			e.c.appNode.Go("rotate", func(ap *simnet.Proc) {
				lg.Release(ap) //nolint:errcheck
				opened, openErr = l.Open(ap, next, e.capacity, false)
				done = true
			})
			if c.crash {
				p.Sleep(20 * time.Millisecond) // the create commits; the lost set-ups are still awaited
				e.crashApp(p)
			} else {
				for !done {
					p.Sleep(time.Millisecond)
				}
				if openErr != nil {
					e.t.Fatalf("open on a spare that lost %s: %v", lost[0], openErr)
				}
			}
			for _, pn := range lost {
				e.c.sim.Net().HealOneWay(e.c.appNode, e.c.pNodes[pn])
			}
			entry, _, err := e.lib(p, e.cfg).lookup(p, next)
			if err != nil {
				e.t.Fatalf("%s lost: the successor's entry: %v", c.name, err)
			}
			if !c.crash {
				if entry.Epoch != 2 || entry.Recycled != "" || slices.Contains(entry.Peers, lost[0]) ||
					!slices.Equal(entry.Peers, opened.LivePeers()) || opened.Epoch() != 2 {
					e.t.Fatalf("open on a spare that lost %s: entry %+v, log epoch %d on %v; want epoch 2 naming the replacement",
						lost[0], entry, opened.Epoch(), opened.LivePeers())
				}
				e.append(p, opened, 2)
				e.crashApp(p)
			} else if entry.Epoch != 1 || entry.Recycled != name {
				e.t.Fatalf("%s lost: entry %+v, want epoch 1 recycling %s", c.name, entry, name)
			}
			if _, err := e.lib(p, e.cfg).Recover(p, name); !errors.Is(err, ErrNotFound) {
				e.t.Fatalf("%s lost: recover of the released file: %v, want ErrNotFound", c.name, err)
			}
			e.recover(p, next, nil)
			if c.crash && e.recovered != 0 {
				e.t.Fatalf("%s lost: recovered %d bytes of a successor that was never written", c.name, e.recovered)
			}
			e.crashApp(p)
		}
	}},
	{"app crash in a fresh open", func(e *conf, p *simnet.Proc) {
		// A group set up from the registry is set up before its create is
		// proposed: a fresh member that never got its set-up leaves nothing
		// by which a recovery could tell it from one that lost the file. Every
		// set-up of a fresh open is lost and the application dies while the
		// open waits for them: no entry was created, so the next instance
		// finds no file — not one whose members are gone. Undisturbed, the
		// create of a fresh open starts once its last set-up has ended.
		l := e.lib(p, e.cfg)
		for _, n := range e.c.pNodes {
			e.c.sim.Net().PartitionOneWay(e.c.appNode, n)
		}
		e.c.appNode.Go("open", func(ap *simnet.Proc) {
			l.Open(ap, "wal", e.capacity, false) //nolint:errcheck // the set-ups are lost
		})
		p.Sleep(20 * time.Millisecond)
		e.crashApp(p)
		for _, n := range e.c.pNodes {
			e.c.sim.Net().HealOneWay(e.c.appNode, n)
		}
		l = e.lib(p, e.cfg)
		if _, err := l.Recover(p, "wal"); !errors.Is(err, ErrNotFound) {
			e.t.Fatalf("recover of a fresh open cut short with its set-ups lost: %v, want ErrNotFound", err)
		}
		col := trace.New()
		e.c.sim.SetTracer(col)
		lg := e.open(p, l, "wal")
		e.c.sim.SetTracer(nil)
		create := trace.First(col.Spans(), "controller", "create")
		for _, sp := range trace.Filter(col.Spans(), "peer", "setup") {
			if create == nil || create.Start < sp.End {
				e.t.Fatalf("fresh open: create %+v starts before the set-up on %s ends at %v", create, sp.Node, sp.End)
			}
		}
		e.append(p, lg, 2)
		e.crashApp(p)
		e.recover(p, "wal", nil)
	}},
	{"spare members down beside the create", func(e *conf, p *simnet.Proc) {
		// More than f members of the parked group crashed while parked, so
		// the rotation's create commits beside set-ups that never land. An
		// open that then runs out of peers deletes the entry it created: the
		// name is absent, as if the open had never begun. An application
		// that dies while the set-ups are still awaited leaves the entry, and
		// nothing proves the set-ups missing — the crashed members hold
		// neither the file nor the released file's region — so the successor
		// answers ErrUnavailable, before and after those members restart,
		// until it is unlinked (DESIGN.md §14, the create beside the
		// set-ups' residue).
		for _, c := range []struct {
			tag      string
			appDies  bool
			crashAll bool // every peer outside the group too: the open runs out
		}{{"a", false, true}, {"b", true, false}} {
			l := e.lib(p, e.cfg)
			name, next := "wal-"+c.tag, "wal-"+c.tag+"-next"
			lg := e.open(p, l, name)
			e.append(p, lg, 2)
			members := lg.peerNames()
			down := members[:lg.place.Slots-lg.place.MinAlive+1]
			var crashed []string
			for pn := range e.c.pNodes {
				if slices.Contains(down, pn) || c.crashAll && !slices.Contains(members, pn) {
					crashed = append(crashed, pn)
				}
			}
			slices.Sort(crashed)
			e.crashPeers(crashed...)
			var openErr error
			done := false
			e.c.appNode.Go("rotate", func(ap *simnet.Proc) {
				lg.Release(ap) //nolint:errcheck
				_, openErr = l.Open(ap, next, e.capacity, false)
				done = true
			})
			if c.appDies {
				p.Sleep(20 * time.Millisecond) // the create commits; the set-ups are still awaited
				e.crashApp(p)
			} else {
				for !done {
					p.Sleep(time.Millisecond)
				}
				if !errors.Is(openErr, ErrNoPeers) {
					e.t.Fatalf("open with %v down: %v, want ErrNoPeers", crashed, openErr)
				}
			}
			want := ErrNotFound
			if c.appDies {
				want = ErrUnavailable
			}
			if _, err := e.lib(p, e.cfg).Recover(p, next); !errors.Is(err, want) {
				e.t.Fatalf("open cut short (app dies %v) with %v down: recover %v, want %v", c.appDies, down, err, want)
			}
			for _, pn := range crashed {
				e.c.restartPeer(p, e.t, pn)
			}
			l = e.lib(p, e.cfg)
			if _, err := l.Recover(p, next); !errors.Is(err, want) {
				e.t.Fatalf("open cut short (app dies %v), %v restarted: recover %v, want %v", c.appDies, down, err, want)
			}
			if c.appDies {
				if err := l.ReleaseByName(p, next); err != nil {
					e.t.Fatalf("unlink of the unrecoverable successor: %v", err)
				}
			}
			e.append(p, e.open(p, l, next), 2)
			e.crashApp(p)
			e.recover(p, next, nil)
			e.crashApp(p)
		}
	}},
	{"spare member crashed while parked", func(e *conf, p *simnet.Proc) {
		// The open that takes the spare finds one member dead: its set-up
		// fails, and that slot alone goes to the registry's wave.
		l := e.lib(p, e.cfg)
		lg := e.open(p, l, "wal-1")
		e.append(p, lg, 3)
		if err := lg.Release(p); err != nil {
			e.t.Fatalf("release: %v", err)
		}
		spare := lg.peerNames()
		victim := spare[1]
		e.crashPeers(victim)
		lg = e.open(p, l, "wal-2")
		for slot, pn := range lg.peerNames() {
			if (slot == 1) == (pn == spare[slot]) {
				e.t.Fatalf("open on %v after the spare %v lost %s: want every slot but 1 on the spare", lg.peerNames(), spare, victim)
			}
		}
		e.append(p, lg, 5)
		e.crashApp(p)
		e.recover(p, "wal-2", nil)
	}},
	{"spare's name re-created at another size", func(e *conf, p *simnet.Proc) {
		// A spare parked under "wal" and a new "wal" of another shape: the new
		// file must not leave the spare naming it, or the next open of the
		// spare's shape recycles — frees — the new file's regions. Only the
		// spare's members are left alive, so the new "wal" lands on them.
		l := e.lib(p, e.cfg)
		lg := e.open(p, l, "wal")
		e.append(p, lg, 3)
		members := lg.LivePeers()
		if err := lg.Release(p); err != nil {
			e.t.Fatalf("release: %v", err)
		}
		var others []string
		for name := range e.c.pNodes {
			if !slices.Contains(members, name) {
				others = append(others, name)
			}
		}
		slices.Sort(others)
		e.crashPeers(others...)
		e.acked["wal"] = nil
		size := e.capacity
		e.capacity = 2 * size
		e.append(p, e.open(p, l, "wal"), 5)
		e.capacity = size
		e.open(p, l, "wal-2")
		e.crashApp(p)
		e.recover(p, "wal", nil)
	}},
	{"app crash mid-staging", func(e *conf, p *simnet.Proc) {
		// A recovery cut short at any point abandons what it held on the peers
		// — under mirror a catch-up staging region per survivor; the frame logs
		// catch up in place. However many are abandoned, every peer lends what
		// it lent before once its GC has seen them age out.
		e.capacity = 64 << 10
		e.append(p, e.open(p, e.lib(p, e.cfg), "wal"), 20)
		lent := func() (sum int64) {
			for _, pr := range e.c.peers {
				sum += pr.Avail()
			}
			return sum
		}
		before := lent()
		simnet.CutLadder(e.t.Logf, ladderSeed, ladderDense, func(k int) bool {
			e.crashApp(p)
			return e.c.appNode.RunCut(p, k, func(ap *simnet.Proc) {
				if lg, err := e.lib(ap, e.cfg).Recover(ap, "wal"); err == nil {
					lg.Sync(ap) //nolint:errcheck
				}
			}) || e.t.Failed()
		})
		e.crashApp(p)
		e.recover(p, "wal", nil)
		p.Sleep(6 * time.Second) // GC interval + grace
		if after := lent(); after != before {
			e.t.Fatalf("peers lend %d bytes after the abandoned recoveries, %d before", after, before)
		}
	}},
	{"a quiet log loses members another log sees", func(e *conf, p *simnet.Proc) {
		// A peer that is down on one log is down on every log of the lib. The
		// second log is written once and then posts nothing, so only the first
		// log's work requests find out that the members they share died —
		// more of them than the policy tolerates. The quiet log is repaired
		// all the same, and a recovery after the application crashes finds
		// enough of its members.
		l := e.lib(p, e.cfg)
		lg := e.open(p, l, "wal")
		e.append(p, lg, 5)
		need := e.spec.Tolerates() + 1
		q := e.open(p, l, nameSharing(e.t, p, l, e.spec, e.capacity, "quiet-", lg.LivePeers(), need))
		e.append(p, q, 3)
		victims := e.shared(q, lg, need)
		e.crashPeers(victims...)
		e.append(p, lg, 3)
		for wait := 0; q.Replacements < need && wait < 100; wait++ {
			p.Sleep(time.Millisecond)
		}
		e.crashApp(p)
		e.recover(p, q.name, nil)
	}},
	{"a stalled log that sorts after a quiet log is repaired first", func(e *conf, p *simnet.Proc) {
		// The lib replaces one member at a time, a stalled log's first. Two
		// logs lose the same members, more than the policy tolerates: the one
		// that sorts first is quiet, the other has a Record waiting on its
		// acks. The stalled log's replacement is active before the quiet
		// log's starts.
		l := e.lib(p, e.cfg)
		q := e.open(p, l, "a-quiet")
		e.append(p, q, 3)
		need := e.spec.Tolerates() + 1
		st := e.open(p, l, nameSharing(e.t, p, l, e.spec, e.capacity, "b-stalled-", q.LivePeers(), need))
		e.append(p, st, 3)
		victims := e.shared(st, q, need)
		col := trace.New()
		e.c.sim.SetTracer(col)
		e.crashPeers(victims...)
		e.c.appNode.Go("stalled", func(ap *simnet.Proc) { e.append(ap, st, 1) })
		for wait := 0; q.Replacements == 0 && wait < 1000; wait++ {
			p.Sleep(time.Millisecond)
		}
		e.c.sim.SetTracer(nil)
		active, start := time.Duration(-1), time.Duration(-1)
		for _, sp := range trace.Filter(col.Spans(), "ncl", "replace") {
			if sp.StrAttr("file") == st.name && sp.Done() && active < 0 {
				active = sp.End
			} else if sp.StrAttr("file") == q.name && start < 0 {
				start = sp.Start
			}
		}
		if active < 0 || start < active {
			e.t.Fatalf("the quiet log's replacement started at %v, the stalled log's first was active at %v", start, active)
		}
		e.restored(p, l, q, 1, victims...)
		e.restored(p, l, st, 1, victims...)
		e.crashApp(p)
		e.recover(p, q.name, nil)
		e.recover(p, st.name, nil)
	}},
	{"a live replacement sends each byte once", func(e *conf, p *simnet.Proc) {
		// The catch-up sends the new member its slot's replica up to the cut,
		// the activation what was recorded since (§4.5.2), and every record
		// after it goes out as to any member: what the new member is sent adds
		// up to its replica once. Sending the whole log again at activation
		// would send the bytes before the cut twice.
		e.capacity = 1 << 20
		var l *Lib
		var lg *Log
		stop, stopped := false, false
		e.c.appNode.Go("app-v1", func(ap *simnet.Proc) {
			l = e.lib(ap, e.cfg)
			lg = e.open(ap, l, "wal")
			for !stop {
				e.append(ap, lg, 1)
				ap.Sleep(5 * time.Millisecond)
			}
			stopped = true
		})
		for len(e.acked["wal"]) < 10000 {
			p.Sleep(time.Millisecond)
		}
		col := trace.New()
		e.c.sim.SetTracer(col)
		victim := lg.LivePeers()[1]
		e.crashPeers(victim)
		for lg.Replacements == 0 {
			p.Sleep(time.Millisecond)
		}
		p.Sleep(20 * time.Millisecond) // a few records after the activation
		for stop = true; !stopped; {
			p.Sleep(time.Millisecond)
		}
		e.c.sim.SetTracer(nil)
		e.restored(p, l, lg, 1, victim)
		newcomer := lg.peers[1]
		var sent, headers int64
		for _, sp := range trace.Filter(col.Spans(), "rdma", "write") {
			if sp.StrAttr("remote") == newcomer.name {
				sent += sp.IntAttr("bytes")
				if sp.IntAttr("bytes") == HeaderSize { // mirror's header WRs; records and frames are longer
					headers++
				}
			}
		}
		replica := lg.length
		switch pol := lg.policy.(type) {
		case *ecPolicy:
			replica = pol.shardLen
		case *quorumPolicy:
			replica = pol.journalLen
		}
		if content := sent - headers*HeaderSize; content != replica || newcomer.cut == 0 || newcomer.cut >= replica {
			e.t.Fatalf("new member %s was sent %d bytes of its %d-byte replica (catch-up cut at %d)", newcomer.name, content, replica, newcomer.cut)
		}
		e.crashApp(p)
		e.recover(p, "wal", nil)
	}},
	{"overwrite below the catch-up cut", func(e *conf, p *simnet.Proc) {
		// A circular log overwrites in place (SQLite's WAL, Fig 7ii). An
		// overwrite below a live catch-up's cut, made before the activation,
		// reaches the new member all the same. The member takes the failed
		// member's slot, 0, which is where recovery reads first once as many
		// old members as the policy tolerates and the application have died.
		col := trace.New()
		e.c.sim.SetTracer(col)
		l := e.lib(p, e.cfg)
		lg := e.open(p, l, "wal")
		e.append(p, lg, 20)
		victim := lg.LivePeers()[0]
		mark := col.Len()
		e.crashPeers(victim)
		e.c.appNode.Go("detect", func(ap *simnet.Proc) { e.append(ap, lg, 1) })
		casInFlight := func() bool {
			for _, sp := range col.Since(mark) {
				if sp.Layer == "ncl" && sp.Op == "replace.apmap" && !sp.Done() {
					return true
				}
			}
			return false
		}
		for !casInFlight() {
			p.Sleep(20 * time.Microsecond)
		}
		e.c.sim.SetTracer(nil)
		if lg.Replacements != 0 {
			e.t.Fatalf("the new member was active before the overwrite")
		}
		over := bytes.Repeat([]byte{0xee}, 64)
		if err := lg.Record(p, 0, over); err != nil {
			e.t.Fatalf("overwrite: %v", err)
		}
		copy(e.acked["wal"], over)
		e.restored(p, l, lg, 1, victim)
		e.crashPeers(lg.LivePeers()[1 : 1+e.spec.Tolerates()]...)
		e.crashApp(p)
		e.recover(p, "wal", nil)
	}},
	{"gray members then correlated crash", func(e *conf, p *simnet.Proc) {
		// The schedule an acknowledgement one ack short of the commit rule does
		// not survive: every member but one is gray (+5 ms a work request on an
		// in-order queue pair), the fast one acknowledges at once, and it dies
		// together with the application. Under the policy's AckNeed every
		// acknowledged record is also on as many gray members as recovery needs.
		// Then the teeth: the same schedule with AckNeed poked to 1 — the fast
		// member's word alone — and the suite's own reference check has to go red.
		for _, poke := range []bool{false, true} {
			name := fmt.Sprintf("wal-poke-%v", poke)
			var members []string
			var inflight []byte
			e.c.appNode.Go("app", func(ap *simnet.Proc) {
				lg := e.open(ap, e.lib(ap, e.cfg), name)
				if poke {
					lg.place.AckNeed = 1
				}
				for _, m := range lg.LivePeers()[1:] {
					e.c.sim.Net().SetLinkLatency(e.c.appNode, e.c.pNodes[m], 5*time.Millisecond)
				}
				members = lg.LivePeers()
				for {
					inflight = e.rec(name)
					e.append(ap, lg, 1)
					inflight = nil
				}
			})
			for len(e.acked[name]) < 2000 {
				p.Sleep(time.Millisecond)
			}
			e.crashPeers(members[0])
			e.c.sim.Net().HealAll()
			e.crashApp(p)
			if _, err := e.reopen(p, name, inflight); (err != nil) != poke {
				e.t.Fatalf("AckNeed poked to 1: %v; reference check: %v", poke, err)
			}
		}
	}},
}

// Every cut ladder of this suite is dense throughout (its windows are 43 to
// 187 dispatches); ladderSeed would seed the stride of one that outgrew
// ladderDense.
const (
	ladderSeed  = 22
	ladderDense = 256
)

// rotationDense is where "app crash mid-rotation" starts to stride: its
// window is 40 to 70 dispatches — the release is the first few, the
// successor's set-up wave the next — and every cut pays the recovery of two
// files, more than the suite's time budget allows for all of them.
const rotationDense = 12

func TestPolicyConformance(t *testing.T) {
	peerCfg := smallPeerCfg()
	peerCfg.GCGrace = 3 * time.Second // the partition script waits it out
	for si, sc := range confScripts {
		for _, pol := range allPolicies {
			for _, ttl := range []time.Duration{0, time.Minute} {
				t.Run(fmt.Sprintf("%s/%s/ttl=%v", sc.name, pol, ttl), func(t *testing.T) {
					t.Parallel()
					cfg := policyCfg(t, pol)
					cfg.PoolRefresh = ttl
					spec, err := ParsePolicy(pol)
					if err != nil {
						t.Fatal(err)
					}
					e := &conf{t: t, c: newCluster(int64(100+si), 12, peerCfg), cfg: cfg, spec: spec, acked: map[string][]byte{},
						capacity: 256 << 10, recScale: 1}
					e.c.run(t, func(p *simnet.Proc) { sc.run(e, p) })
				})
			}
		}
	}
}
