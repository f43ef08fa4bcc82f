package bench

import (
	"encoding/binary"
	"fmt"
	"time"

	"splitft/internal/apps/applog"
	"splitft/internal/apps/kvstore"
	"splitft/internal/harness"
	"splitft/internal/model"
	"splitft/internal/modelcheck"
	"splitft/internal/ncl"
	"splitft/internal/simnet"
)

// The chaos experiment behind `splitft-bench chaos` sweeps adversarial
// failure schedules (harness.ChaosScenarios) against a live kvstore
// workload for every replication policy and seed, and checks the fsynced
// prefix after every injected event: the app is crashed, restarted with a
// bumped fencing token, recovered from the surviving peers, and every key
// the workload ever wrote is audited against the writers' history
// (internal/modelcheck.History). The writers run on the app node and call
// the store directly, so unavailability is the longest gap with no ack and
// no client timeout or retry gap quantizes it. A correct protocol shows
// violations = 0 on every cell. Two cells follow the sweep: "gray-crash", a
// correlated gray-members-plus-crash schedule that a commit rule one ack
// short would not survive (internal/ncl's conformance suite breaks the rule
// under it and demands a loss), and the same audit over the store under
// applog.Weak — the paper's weak-app DFT configuration, which does lose
// acknowledged writes (Table 1) — to prove the checker produces
// counterexamples when there are any.
// Everything runs on the virtual clock, so the committed BENCH_chaos.json
// is deterministic and the chaos gate diffs it at ±2%.

// chaosSeeds is the sweep's seed axis: every scenario's fault schedule and
// workload interleaving replays byte-identically per seed.
var chaosSeeds = []int64{1, 2}

const (
	chaosWriters       = 4
	chaosKeysPerWriter = 4
	chaosOpGap         = 1 * time.Millisecond // paced, not closed-loop flat out
	chaosWeakCell      = "app-crash/weak"     // the one cell that must lose writes
)

// chaos runs the scenario x policy x seed sweep plus the two cells that
// show its teeth, one cell per (scenario, policy, seed): injected fault events,
// writes acked durable, post-event crash+recover audits, the slowest
// recovery, the longest gap between acks, and history violations. Each
// policy is first model-checked offline (bounded BFS) so a protocol-level
// ack-rule bug fails fast, before any simulated hardware is involved.
func chaos(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: "Chaos sweep: durability of the acked prefix under fault schedules (virtual time)"}
	for _, pol := range replPolicies {
		spec, err := ncl.ParsePolicy(pol)
		if err != nil {
			return rep, err
		}
		if res := modelcheck.CheckReplication(spec, modelcheck.DefaultReplConfig(spec)); res.Violation != nil {
			return rep, fmt.Errorf("chaos: policy %s fails offline model check: %s", pol, res.Violation.Kind)
		}
	}
	for _, scenario := range harness.ChaosScenarios {
		for _, pol := range replPolicies {
			for _, off := range chaosSeeds {
				if err := chaosOnce(&rep, sc, seed+off-1, scenario, pol); err != nil {
					return rep, fmt.Errorf("chaos %s/%s/seed%d: %w", scenario, pol, seed+off-1, err)
				}
			}
		}
	}
	if err := chaosCrash(&rep, sc, seed, applog.SplitFT); err != nil {
		return rep, fmt.Errorf("chaos gray-crash: %w", err)
	}
	if err := chaosCrash(&rep, sc, seed, applog.Weak); err != nil {
		return rep, fmt.Errorf("chaos %s: %w", chaosWeakCell, err)
	}
	return rep, nil
}

// chaosCell is the shared live-workload machinery of one cell: a kvstore on
// the app node, paced writers beside it recording every invoke/ack into a
// history, and the post-event audit that crashes the app, re-opens it with a
// higher fencing token, times recovery, and checks every key ever written
// against the history.
type chaosCell struct {
	c     *harness.Cluster
	hist  *modelcheck.History
	dbCfg kvstore.Config
	fence int64
	vers  [chaosWriters]int64 // each writer's last version, across generations

	stop       bool
	wg         simnet.WaitGroup
	lastAck    time.Duration
	maxGap     time.Duration
	recoveries int
	maxRecover time.Duration
}

func newChaosCell(c *harness.Cluster, d applog.Durability) *chaosCell {
	dbCfg := kvstore.DefaultConfig()
	dbCfg.Durability = d
	dbCfg.KVStoreCosts = c.Profile.Apps.KVStore
	dbCfg.MemtableBytes = 32 << 20 // paced writes never rotate mid-cell
	dbCfg.WALRegion = 8 << 20
	return &chaosCell{c: c, hist: modelcheck.NewHistory(), dbCfg: dbCfg}
}

// start creates the generation-zero store and launches its writers.
func (ce *chaosCell) start(p *simnet.Proc) (*kvstore.DB, error) {
	fs, err := ce.c.NewFS(p, "chaoskv", ce.fence)
	if err != nil {
		return nil, err
	}
	db, err := kvstore.Open(p, fs, ce.dbCfg)
	if err != nil {
		return nil, err
	}
	ce.lastAck = p.Now()
	ce.write(p, db)
	return db, nil
}

// write launches one generation of paced writers on the app node, each
// calling db directly; a crash of the app kills them with it. Each writer
// owns its keys and writes strictly increasing versions across generations,
// so the history's per-key window invariant is exactly linearizability of
// the acked prefix.
func (ce *chaosCell) write(p *simnet.Proc, db *kvstore.DB) {
	ce.wg.Add(chaosWriters)
	for i := range chaosWriters {
		p.GoOn(ce.c.AppNode, fmt.Sprintf("chaos-writer%d", i), func(wp *simnet.Proc) {
			defer ce.wg.Done(wp)
			val := make([]byte, 16)
			for !ce.stop {
				ce.vers[i]++
				ver := ce.vers[i]
				key := fmt.Sprintf("c%dk%d", i, (ver-1)%chaosKeysPerWriter)
				ce.hist.Invoke(key, ver)
				binary.BigEndian.PutUint64(val, uint64(ver))
				if err := db.Put(wp, key, val); err == nil {
					now := wp.Now()
					ce.hist.Ack(key, ver, now)
					ce.maxGap = max(ce.maxGap, now-ce.lastAck)
					ce.lastAck = now
				}
				wp.Sleep(chaosOpGap)
			}
		})
	}
}

// stopWriters drains the writers.
func (ce *chaosCell) stopWriters(p *simnet.Proc) {
	ce.stop = true
	ce.wg.Wait(p)
}

// audit is the durability check run after every injected event: crash the
// app mid-whatever-it-was-doing, restart it, recover the store from the
// surviving peers under a new fencing token, and compare every key the
// workload ever wrote against the acked window. Recovery is retried while
// the fault the scenario injected still blocks it — a failed attempt pays
// its own timeouts, and that wait IS the unavailability being measured; the
// recovered generation then gets a new set of writers.
func (ce *chaosCell) audit(p *simnet.Proc, what string) error {
	ce.c.CrashApp()
	ce.c.RestartApp()
	start := p.Now()
	var db *kvstore.DB
	var rerr error
	for attempt := 0; db == nil; attempt++ {
		if attempt > 60 {
			return fmt.Errorf("bench: recovery stuck after %q: %w", what, rerr)
		}
		ce.fence++
		fs, err := ce.c.NewFS(p, "chaoskv", ce.fence)
		if rerr = err; err != nil {
			continue
		}
		db, rerr = kvstore.Recover(p, fs, ce.dbCfg)
	}
	if d := p.Now() - start; d > ce.maxRecover {
		ce.maxRecover = d
	}
	ce.recoveries++
	for _, k := range ce.hist.Keys() {
		val, ok, err := db.Get(p, k)
		if err != nil {
			return fmt.Errorf("bench: audit read %s: %w", k, err)
		}
		var ver int64
		if ok && len(val) >= 8 {
			ver = int64(binary.BigEndian.Uint64(val))
		}
		ce.hist.Observe(k, ver, ok, p.Now())
	}
	ce.write(p, db)
	return nil
}

// fill records the cell's measurements.
func (ce *chaosCell) fill(rep *Report, cell string, events int) {
	rep.add(cell, "events", float64(events), "count")
	rep.add(cell, "acked_ops", float64(ce.hist.Acks), "count")
	rep.add(cell, "recoveries", float64(ce.recoveries), "count")
	rep.dur(cell, "max_recovery_ns", ce.maxRecover)
	rep.dur(cell, "max_unavail_ns", ce.maxGap)
	rep.add(cell, "violations", float64(len(ce.hist.Violations())), "count")
}

// chaosCellName is the (scenario, policy, seed) coordinate.
func chaosCellName(scenario, policy string, seed int64) string {
	return fmt.Sprintf("%s/%s/seed%d", scenario, policy, seed)
}

// chaosOnce measures one (scenario, policy, seed) cell on a fresh cluster.
func chaosOnce(rep *Report, sc Scale, seed int64, scenario, policy string) error {
	prof := model.Baseline()
	prof.NCL.Replication = policy
	c := newTestbed(rep, sc, harness.Options{
		Seed: seed, NumPeers: 8, PeerMem: 512 << 20, AppCores: 10,
		PeerDomainCount: 4, Profile: prof,
	})
	ce := newChaosCell(c, applog.SplitFT)
	return c.Run(func(p *simnet.Proc) error {
		if _, err := ce.start(p); err != nil {
			return err
		}
		p.Sleep(200 * time.Millisecond) // steady state before the first fault
		in := harness.NewInjector(c, seed)
		in.OnEvent = ce.audit
		if err := in.Run(p, scenario); err != nil {
			return err
		}
		p.Sleep(200 * time.Millisecond) // post-heal acks close the last gap
		ce.stopWriters(p)
		ce.fill(rep, chaosCellName(scenario, policy, seed), len(in.Events))
		return nil
	})
}

// chaosCrash runs one crash-and-audit cell outside the sweep. Under SplitFT
// it is the correlated gray-members-plus-crash schedule: two of the three
// mirror members are made gray, so their in-order RDMA engines fall thousands
// of WRs behind while the third acks instantly; then the fast member and the
// app crash together. Under the F+1 rule every acked record also lives on a
// gray member and recovery finds it: zero violations. Under Weak the log has
// no members to gray — it sits in the dfs client cache — and the app crash
// alone loses what was acknowledged since the last writeback: the history
// checker reports lost-acked-write.
func chaosCrash(rep *Report, sc Scale, seed int64, d applog.Durability) error {
	prof := model.Baseline()
	prof.NCL.Replication = "mirror"
	c := newTestbed(rep, sc, harness.Options{
		Seed: seed, NumPeers: 5, PeerMem: 512 << 20, AppCores: 10, Profile: prof,
	})
	ce := newChaosCell(c, d)
	return c.Run(func(p *simnet.Proc) error {
		db, err := ce.start(p)
		if err != nil {
			return err
		}
		p.Sleep(100 * time.Millisecond)
		cell, events := chaosWeakCell, 1
		net := c.Sim.Net()
		if d == applog.SplitFT {
			// Identify the WAL's member peers and gray two of the three: +5 ms
			// per WR on an in-order queue pair is an ever-growing backlog.
			members := db.WAL().(hasLog).Log().LivePeers()
			if len(members) != 3 {
				return fmt.Errorf("bench: mirror WAL has %d members, want 3", len(members))
			}
			for _, name := range members[1:] {
				net.SetLinkLatency(c.AppNode, c.Sim.Node(name), 5*time.Millisecond)
			}
			p.Sleep(300 * time.Millisecond)
			// Correlated crash: the only up-to-date member dies with the app,
			// which the audit crashes at this same instant.
			c.Sim.Node(members[0]).Crash()
			cell, events = "gray-crash/mirror", 3
		}
		net.HealAll()
		if err := ce.audit(p, cell); err != nil {
			return err
		}
		p.Sleep(100 * time.Millisecond)
		ce.stopWriters(p)
		ce.fill(rep, fmt.Sprintf("%s/seed%d", cell, seed), events)
		return nil
	})
}
