package apps_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"splitft/internal/apps"
	"splitft/internal/apps/applog"
	"splitft/internal/core"
	"splitft/internal/harness"
	"splitft/internal/ncl"
	"splitft/internal/simnet"
	"splitft/internal/trace"
)

// TestPortConformance runs one set of scripts against every port under every
// durability a script applies to, checking the store against an in-memory
// map of acknowledged state: whatever the port's log format and reclaim
// cycle, Strong and SplitFT lose nothing that was acknowledged, across any
// sequence of crashes.
func TestPortConformance(t *testing.T) {
	all := []applog.Durability{applog.Weak, applog.Strong, applog.SplitFT}
	durable := all[1:]
	scripts := []struct {
		name string
		ds   []applog.Durability
		run  func(r *run, p *simnet.Proc) error
	}{
		{"round trip", all, (*run).roundTrip},
		{"crash", all, (*run).crashOnce},
		{"random ops", durable[1:], (*run).randomOps},
		{"peer crash", durable[1:], (*run).peerCrash},
		{"reclaim", durable, (*run).acrossReclaim},
		{"double crash", durable, (*run).doubleCrash},
		{"crash mid-recovery", durable, (*run).crashMidRecovery},
		{"crash with an empty successor", durable, (*run).crashWithSuccessor},
		{"empty successor, crash mid-recovery", durable[1:], (*run).crashWithSuccessorMidRecovery},
		{"recovery peer crash", durable, (*run).recoveryPeerCrash},
		{"controller unreachable at recovery", durable, (*run).controllerOutAtRecovery},
	}
	// Small capacities, so every port's reclaim cycle (WAL rotation + flush,
	// AOF rewrite, WAL wrap + checkpoint, journal -> chunk) runs often.
	sizing := map[string]apps.Sizing{
		"kvstore":  {LogBytes: 64 << 10, Region: 256 << 10},
		"redstore": {LogBytes: 64 << 10, Region: 512 << 10},
		"litedb":   {Region: 128 << 10, Pages: 512},
		"kvell":    {LogBytes: 64 << 10, Region: 256 << 10},
	}
	for _, port := range apps.Ports {
		for _, sc := range scripts {
			for _, d := range sc.ds {
				t.Run(fmt.Sprintf("%s/%s/%s", port.Name, sc.name, d), func(t *testing.T) {
					t.Parallel()
					r := &run{t: t, port: port, d: d, sz: sizing[port.Name], acked: map[string][]byte{}}
					// Eight peers: a log's three members, and spares enough that
					// the next log never has to land on a slow or dead one.
					r.c = harness.New(harness.Options{Seed: 7, NumPeers: 8})
					if err := r.c.Run(func(p *simnet.Proc) error { return sc.run(r, p) }); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// run is one script execution: a cluster, a port under a durability, and the
// reference the store is checked against.
type run struct {
	t     *testing.T
	c     *harness.Cluster
	port  apps.Port
	d     applog.Durability
	sz    apps.Sizing
	fence int64 // the app's incarnation: 0 opens, later ones recover
	fs    *core.FS
	st    apps.Store
	err   error // first failure seen by an app-node proc

	// acked is the last acknowledged value per key (nil: deleted). inflight
	// is the one write that had not returned when the app crashed: it may or
	// may not have taken effect.
	acked    map[string][]byte
	inflight *[2]string
}

// start runs the app's next incarnation on fs's node in proc p.
func (r *run) start(p *simnet.Proc) (err error) {
	if r.fs, err = r.c.NewFS(p, r.port.AppID, r.fence); err != nil {
		return err
	}
	open := r.port.Open
	if r.fence > 0 {
		open = r.port.Recover
	}
	r.st, err = open(p, r.fs, r.c.Profile.Apps, r.d, r.sz)
	return err
}

// launch starts the next incarnation on the app node, runs body against it
// and parks until the crash.
func (r *run) launch(body func(ap *simnet.Proc) error) {
	r.c.AppNode.Go(fmt.Sprintf("app-v%d", r.fence), func(ap *simnet.Proc) {
		err := r.start(ap)
		if err == nil && body != nil {
			err = body(ap)
		}
		if err != nil && r.err == nil {
			r.err = err
		}
		ap.Sleep(time.Hour)
	})
}

func (r *run) crash(p *simnet.Proc) {
	r.c.CrashApp()
	p.Sleep(10 * time.Millisecond)
	r.c.RestartApp()
	r.fence++
}

// write puts (or, with a nil value, deletes) key and records it as
// acknowledged once the store returns.
func (r *run) write(p *simnet.Proc, key string, val []byte) (err error) {
	r.inflight = &[2]string{key, string(val)}
	if val == nil {
		err = r.st.Delete(p, key)
	} else {
		err = r.st.Put(p, key, val)
	}
	if err == nil {
		r.acked[key], r.inflight = val, nil
	}
	return err
}

// fill writes n keys of size-byte values tagged with gen.
func (r *run) fill(gen string, n, size int) func(*simnet.Proc) error {
	return func(p *simnet.Proc) error {
		for i := 0; i < n; i++ {
			val := append([]byte(fmt.Sprintf("%s-%d|", gen, i)), make([]byte, size)...)
			if err := r.write(p, fmt.Sprintf("key%05d", i), val); err != nil {
				return err
			}
		}
		return nil
	}
}

// lost counts the acknowledged keys whose state in the store is neither the
// acknowledged one nor that of the write in flight at the crash.
func (r *run) lost(p *simnet.Proc) (n int, err error) {
	keys := make([]string, 0, len(r.acked))
	for key := range r.acked {
		keys = append(keys, key)
	}
	sort.Strings(keys) // reads cost virtual time: keep the order, and so the run, deterministic
	for _, key := range keys {
		want := r.acked[key]
		got, found, err := r.st.Get(p, key)
		if err != nil {
			return 0, err
		}
		if w := r.inflight; w != nil && w[0] == key && string(got) == w[1] {
			continue
		}
		if found != (want != nil) || !bytes.Equal(got, want) {
			n++
		}
	}
	return n, nil
}

// settle checks the recovered store against the reference — nothing
// acknowledged is lost (Strong, SplitFT), or something is (Weak) — and then
// settles the reference on what survived of the write in flight: a read has
// seen it, so it has to stay that way.
func (r *run) settle(p *simnet.Proc) error {
	n, err := r.lost(p)
	if err != nil {
		return err
	}
	if (n > 0) != (r.d == applog.Weak) {
		return fmt.Errorf("%s lost %d of %d acknowledged writes", r.d, n, len(r.acked))
	}
	if w := r.inflight; w != nil {
		got, found, _ := r.st.Get(p, w[0])
		if r.acked[w[0]], r.inflight = nil, nil; found {
			r.acked[w[0]] = got
		}
	}
	return nil
}

// recoverIntact recovers in p and demands the guarantee of r.d (settle; under
// Weak the data-loss window is the point of the comparison). The recovered
// store must then keep working.
func (r *run) recoverIntact(p *simnet.Proc) error {
	if r.err != nil {
		return r.err
	}
	if len(r.acked) == 0 {
		return fmt.Errorf("nothing was acknowledged before the crash")
	}
	if err := r.start(p); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if err := r.settle(p); err != nil {
		return err
	}
	if err := r.write(p, "after", []byte("recovery")); err != nil {
		return err
	}
	if got, _, err := r.st.Get(p, "after"); string(got) != "recovery" {
		return fmt.Errorf("write after recovery reads %q (%v)", got, err)
	}
	return nil
}

func (r *run) roundTrip(p *simnet.Proc) error {
	if err := r.start(p); err != nil {
		return err
	}
	if err := r.fill("v", 100, 8)(p); err != nil {
		return err
	}
	if r.st.Delete != nil {
		if err := r.write(p, "key00007", nil); err != nil {
			return err
		}
	}
	if n, err := r.lost(p); err != nil || n != 0 {
		return fmt.Errorf("%d keys differ from what was written (%v)", n, err)
	}
	if _, found, _ := r.st.Get(p, "missing"); found {
		return fmt.Errorf("phantom key")
	}
	return nil
}

// crashOnce crashes a writer mid-stream (the slower configurations are
// still writing at 400ms; the faster ones have filled several logs).
func (r *run) crashOnce(p *simnet.Proc) error {
	r.launch(r.fill("v", 2500, 8))
	p.Sleep(400 * time.Millisecond)
	r.crash(p)
	return r.recoverIntact(p)
}

// randomOps is a seeded random stream of puts, deletes and reads, checked as
// it runs, crashed at a random point and checked after recovery.
func (r *run) randomOps(p *simnet.Proc) error {
	r.sz.LogBytes, r.sz.Region = r.sz.LogBytes/4, r.sz.Region/2 // reclaim more often still
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		crashAt := 20*time.Millisecond + time.Duration(rng.Intn(100))*time.Millisecond
		r.launch(func(ap *simnet.Proc) error {
			for i := 0; ; i++ {
				key := fmt.Sprintf("k%03d", rng.Intn(90))
				switch n := rng.Intn(10); {
				case n == 0 && r.st.Delete != nil:
					if err := r.write(ap, key, nil); err != nil {
						return err
					}
				case n < 3:
					got, found, err := r.st.Get(ap, key)
					if want := r.acked[key]; err != nil || found != (want != nil) || !bytes.Equal(got, want) {
						return fmt.Errorf("seed %d op %d: read %s = %q (%v), want %q", seed, i, key, got, err, want)
					}
				default:
					if err := r.write(ap, key, []byte(fmt.Sprintf("v%d-%d", seed, i))); err != nil {
						return err
					}
				}
			}
		})
		p.Sleep(crashAt)
		r.crash(p)
		if err := r.recoverIntact(p); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		r.crash(p)
	}
	return nil
}

// peerCrash loses one peer of the active log (within f) under load, then the
// app, possibly before the replacement caught up.
func (r *run) peerCrash(p *simnet.Proc) error {
	r.launch(r.fill("v", 20000, 8))
	p.Sleep(20 * time.Millisecond)
	r.c.Sim.Node(r.nclLog().LivePeers()[0]).Crash()
	p.Sleep(30 * time.Millisecond)
	r.crash(p)
	return r.recoverIntact(p)
}

// acrossReclaim crashes after the log was reclaimed several times: recovery
// must merge what reached the dfs with the surviving log.
func (r *run) acrossReclaim(p *simnet.Proc) error {
	r.launch(r.fill("v", 3000, 100))
	p.Sleep(2 * time.Second)
	r.crash(p)
	return r.recoverIntact(p)
}

// doubleCrash crashes again right after a recovery, with a few writes in
// between: what the first recovery replayed must still be durable.
func (r *run) doubleCrash(p *simnet.Proc) error {
	r.launch(r.fill("a", 60, 8))
	p.Sleep(400 * time.Millisecond)
	r.crash(p)
	r.launch(func(ap *simnet.Proc) error {
		for i := 60; i < 70; i++ {
			if err := r.write(ap, fmt.Sprintf("key%05d", i), []byte("b")); err != nil {
				return err
			}
		}
		return nil
	})
	p.Sleep(400 * time.Millisecond)
	r.crash(p)
	return r.recoverIntact(p)
}

// crashMidRecovery interrupts recovery itself — NewFS and the port's Recover —
// at every point of a cut ladder before recovering for good: each of the
// application node's first 96 dispatches, then a stride seeded 22 (kvell's
// SplitFT recovery is some 7,000 of them).
func (r *run) crashMidRecovery(p *simnet.Proc) error {
	r.launch(r.fill("v", 200, 8))
	p.Sleep(600 * time.Millisecond)
	r.crash(p)
	return r.cutRecoveries(p)
}

func (r *run) cutRecoveries(p *simnet.Proc) error {
	simnet.CutLadder(r.t.Logf, 22, 96, func(k int) bool {
		var err error
		if r.c.AppNode.RunCut(p, k, func(ap *simnet.Proc) { err = r.start(ap) }) {
			r.err = err
			return true
		}
		r.crash(p)
		return false
	})
	r.crash(p)
	return r.recoverIntact(p)
}

// regions counts the regions the log peers hold.
func (r *run) regions() (n int) {
	for _, pr := range r.c.Peers {
		n += pr.Regions()
	}
	return n
}

// nclLog is the ncl log behind the store's active log file (SplitFT only).
func (r *run) nclLog() *ncl.Log { return r.st.Log().(interface{ Log() *ncl.Log }).Log() }

// slots is how many peers the active log lives on.
func (r *run) slots() int { return len(r.nclLog().LivePeers()) }

// withSuccessor crashes a store whose log is some 60 % of the way to its
// reclaim: past the half where kvstore sets its next WAL up in the background,
// short of the rotation that would write to it. It returns the name of the
// second ncl file that was there at the crash — observed, not assumed; the
// other ports have none and run the script as one more crash.
func (r *run) withSuccessor(p *simnet.Proc) (successor string, err error) {
	r.launch(r.fill("v", 320, 100))
	p.Sleep(400 * time.Millisecond)
	if r.d == applog.SplitFT {
		files, err := r.fs.ListNCL(p)
		if err != nil {
			return "", err
		}
		if i := slices.Index(files, r.st.Log().Path()); len(files) == 2 && i >= 0 {
			successor = files[1-i]
		}
		if r.port.Name == "kvstore" && (successor == "" || r.regions() != 2*r.slots()) {
			return "", fmt.Errorf("ncl files %v on %d regions at the crash: kvstore has not pre-opened its next WAL, the script tests nothing", files, r.regions())
		}
	}
	r.crash(p)
	return successor, nil
}

// oneLogLeft holds a recovered store to what is left of its logs. Where there
// was a successor it is the one log left and the active one — itself, not a
// third log set up in its place — and takes the next write. On every port,
// once the peers' GC has seen anything else age out, no region is left that
// is not a listed log's.
func (r *run) oneLogLeft(p *simnet.Proc, successor string) error {
	if r.d != applog.SplitFT {
		return nil
	}
	log := r.st.Log()
	files, err := r.fs.ListNCL(p)
	if err != nil {
		return err
	}
	if successor != "" {
		if len(files) != 1 || files[0] != successor || log.Path() != successor {
			return fmt.Errorf("ncl files after recovery: %v, active %s, want the successor %s to be both", files, log.Path(), successor)
		}
		size := log.Size()
		if err := r.write(p, "next", []byte("write")); err != nil {
			return err
		}
		if r.st.Log().Path() != log.Path() || log.Size() <= size {
			return fmt.Errorf("the next write went to %s, not to %s", r.st.Log().Path(), log.Path())
		}
	}
	p.Sleep(r.c.Profile.Peer.GCInterval + r.c.Profile.Peer.GCGrace)
	if got, want := r.regions(), len(files)*r.slots(); got != want {
		return fmt.Errorf("peers hold %d regions after the GC, want %d: the %d of each of %v", got, want, r.slots(), files)
	}
	return nil
}

// successorScript crashes a store that has (under kvstore) an empty successor,
// recovers it the given way and holds it to oneLogLeft.
func (r *run) successorScript(p *simnet.Proc, recover func(*simnet.Proc) error) error {
	successor, err := r.withSuccessor(p)
	if err != nil {
		return err
	}
	if err := recover(p); err != nil {
		return err
	}
	return r.oneLogLeft(p, successor)
}

func (r *run) crashWithSuccessor(p *simnet.Proc) error { return r.successorScript(p, r.recoverIntact) }

// crashWithSuccessorMidRecovery cuts that recovery short at every point of
// crashMidRecovery's ladder first: a recovery abandoned before it released
// the replayed log, or after, leaves the same one log to the one that
// completes.
func (r *run) crashWithSuccessorMidRecovery(p *simnet.Proc) error {
	return r.successorScript(p, r.cutRecoveries)
}

// recoveryPeerCrash is the barrier rule of DESIGN.md §16 seen from a port.
// The crash leaves a write in flight on one member of the active log alone;
// recovery streams the log from that member, the other two are slow (15 ms a
// message: the tail they lack takes two work requests, so 30 ms, to reach
// them — longer than any port needs to finish its recovery once the log is
// parsed), and the member dies while ReadLog is parsing. Whatever Recover then
// hands back — that write included, once a read has seen it — has been
// externalized, and the application crashes again the moment it has: Recover
// must have failed, or have waited until the slow survivors held everything
// it returned. Under Strong there are no peers, and what is left is a second
// crash right after the first read.
func (r *run) recoveryPeerCrash(p *simnet.Proc) error {
	net := r.c.Sim.Net()
	var members []*simnet.Node
	r.launch(r.fill("v", 20000, 8))
	p.Sleep(20 * time.Millisecond)
	if r.d == applog.SplitFT {
		for _, name := range r.nclLog().LivePeers() {
			members = append(members, r.c.Sim.Node(name))
		}
		for _, m := range members[1:] {
			net.Partition(r.c.AppNode, m)
		}
		p.Sleep(100 * time.Microsecond) // the next write lands on members[0] alone
	}
	r.crash(p)
	col := trace.New()
	if r.d == applog.SplitFT {
		for _, m := range members[1:] {
			net.Heal(r.c.AppNode, m)
			net.SetLinkLatency(r.c.AppNode, m, 15*time.Millisecond)
		}
		r.c.Sim.SetTracer(col)
		r.c.Sim.Go("crash-recovery-peer", func(kp *simnet.Proc) {
			for trace.First(col.Spans(), "app", "readlog") == nil {
				kp.Sleep(20 * time.Microsecond)
			}
			kp.Sleep(50 * time.Microsecond) // a log of this size has arrived; its parse has not ended
			members[0].Crash()
		})
	}
	err := r.start(p)
	r.c.Sim.SetTracer(nil)
	if err == nil {
		if err = r.settle(p); err != nil {
			return err
		}
	}
	r.crash(p)
	net.HealAll()
	return r.recoverIntact(p)
}

// controllerOutAtRecovery cuts the application off from the controller just
// as recovery starts and heals the cut once the first lookup has run out its
// OpTimeout. A lookup that fails is not a log that is absent: the recovery
// either fails — and the next one finds everything — or returns every
// acknowledged write.
func (r *run) controllerOutAtRecovery(p *simnet.Proc) error {
	r.launch(r.fill("v", 200, 8))
	p.Sleep(600 * time.Millisecond)
	r.crash(p)
	fs, err := r.c.NewFS(p, r.port.AppID, r.fence)
	if err != nil {
		return err
	}
	net, ctrl := r.c.Sim.Net(), r.c.Controller
	for _, n := range ctrl.Nodes() {
		net.Partition(r.c.AppNode, n)
	}
	r.c.Sim.Go("heal", func(hp *simnet.Proc) {
		hp.Sleep(ctrl.Config().OpTimeout)
		for _, n := range ctrl.Nodes() {
			net.Heal(r.c.AppNode, n)
		}
	})
	if r.st, err = r.port.Recover(p, fs, r.c.Profile.Apps, r.d, r.sz); err == nil {
		if n, err := r.lost(p); err != nil || n > 0 {
			return fmt.Errorf("recovery through a controller outage lost %d of %d acknowledged writes (%v)", n, len(r.acked), err)
		}
	}
	p.Sleep(ctrl.Config().OpTimeout) // the cut is healed whichever way that went
	r.crash(p)
	return r.recoverIntact(p)
}
