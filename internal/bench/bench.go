// Package bench regenerates every table and figure of the paper's
// evaluation (§5) on the simulated testbed, plus the §6 ablations. Each
// experiment builds a fresh deterministic cluster (3 controller nodes, a
// CephFS-like dfs, 6 log peers, an application server, a client machine),
// runs the three configurations the paper compares — weak-app DFT,
// strong-app DFT, and SplitFT — and prints rows shaped like the paper's.
//
// Absolute numbers come from the calibrated cost models in internal/dfs,
// internal/rdma and the application packages; EXPERIMENTS.md records
// paper-vs-measured values and the scaling notes (dataset sizes are
// simulation-scaled; flags adjust them).
package bench

import (
	"fmt"
	"strings"
	"time"

	"splitft/internal/apps"
	"splitft/internal/dfs"
	"splitft/internal/harness"
	"splitft/internal/metrics"
	"splitft/internal/model"
	"splitft/internal/simnet"
	"splitft/internal/trace"
	"splitft/internal/wire"
	"splitft/internal/ycsb"
)

// Scale sets dataset and run sizes. The paper loads 100M rows and runs 120s
// per point on real hardware; the defaults here reproduce the same shapes
// at simulation-friendly sizes.
type Scale struct {
	LoadKeys  int64         // kvstore/redstore rows (litedb uses 1/4)
	RunDur    time.Duration // measured window per data point
	Warmup    time.Duration
	Clients   int // client threads for throughput experiments
	LogSizeMB int // recovery-experiment log size (paper: 60MB)
	// Apps lists the applications fig1, fig9, fig10 and fig11b run, in
	// order.
	Apps []apps.Port
	// Smoke makes the scale experiment run its one CI-sized point instead
	// of the full client-count sweep.
	Smoke bool
	// Profile is the hardware cost model every experiment cluster is built
	// with. Nil means model.Baseline().
	Profile *model.Profile
	// Trace, when non-nil, is attached to every experiment cluster so runs
	// record spans into it (the -trace flag of cmd/splitft-bench).
	Trace *trace.Collector
}

// profile resolves the scale's cost model.
func (sc Scale) profile() *model.Profile {
	if sc.Profile != nil {
		return sc.Profile
	}
	return model.Baseline()
}

// DefaultScale suits the CLI harness (minutes for the full suite).
func DefaultScale() Scale {
	return Scale{LoadKeys: 200000, RunDur: 2 * time.Second, Warmup: 300 * time.Millisecond, Clients: 12, LogSizeMB: 60,
		Apps: apps.Ports[:3]}
}

// QuickScale suits go test -bench (seconds per experiment).
func QuickScale() Scale {
	return Scale{LoadKeys: 30000, RunDur: 250 * time.Millisecond, Warmup: 100 * time.Millisecond, Clients: 12, LogSizeMB: 16,
		Apps: apps.Ports[:3], Smoke: true}
}

// Configs under comparison.
const (
	CfgWeak    = "weak-app DFT"
	CfgStrong  = "strong-app DFT"
	CfgSplitFT = "SplitFT"
)

// AllConfigs in presentation order.
var AllConfigs = []string{CfgStrong, CfgWeak, CfgSplitFT}

// Experiment is one entry of the registry: a name the CLI accepts, a line
// of help, and the function that runs it.
type Experiment struct {
	Name string
	Help string
	run  func(sc Scale, seed int64) (Report, error)
}

// Run runs the experiment, appends what the run cost the host — wall clock
// and simulator events dispatched, both host-clock rows that nothing gates —
// and stamps its name on every row. A report that comes back with an error
// still carries the rows measured before it (the calibration gate fails with
// its probe table filled in).
func (e Experiment) Run(sc Scale, seed int64) (Report, error) {
	t0 := time.Now()
	rep, err := e.run(sc, seed)
	rep.host(runCell, "host_ns", float64(time.Since(t0)), "ns")
	rep.host(runCell, "events", float64(rep.simEvents()), "count")
	rep.sim = nil // a kept report does not keep its last cluster alive
	for i := range rep.Rows {
		rep.Rows[i].Experiment = e.Name
	}
	return rep, err
}

// Experiments is the registry, in the order `splitft-bench all` runs them.
// It is the only list of experiment names: the CLI, the registry test and
// the root benchmark all iterate it.
var Experiments = []Experiment{
	{"table1", "cost of strong guarantees: weak vs strong DFT, write-only (Table 1)", table1},
	{"table2", "writes in storage-centric applications (Table 2, qualitative)", table2},
	{"fig1", "durable write-size CDFs, log vs background, per app (Fig 1a-c)", fig1},
	{"fig1d", "dfs sequential sync-write throughput vs IO size (Fig 1d)", fig1d},
	{"fig8", "write latency, embedded mode: strong / weak / NCL (Fig 8)", fig8},
	{"fig9", "latency vs throughput, write-only, per app (Fig 9)", fig9},
	{"fig10", "YCSB A/B/C/D/F throughput per app and configuration (Fig 10)", fig10},
	{"fig11a", "sequential read latency during recovery (Fig 11a)", fig11a},
	{"fig11b", "application recovery time with the NCL phase breakdown (Fig 11b)", fig11b},
	{"table3", "peer replacement latency breakdown (Table 3)", table3},
	{"fig12", "kvstore throughput under peer failures (Fig 12)", fig12},
	{"ablate-repl", "NCL vs consensus replication for small writes (§6)", ablateRepl},
	{"ablate-split", "fine-granular write splitting (§6)", ablateSplit},
	{"ablate-nolog", "no-log KVell-style store with NCL as absorber tier (§6)", ablateNoLog},
	{"calibrate", "cost-model calibration gate for the selected profile (fails outside the bands)", calibrate},
	{"sweep", "fig8 128 B latencies across all named profiles", sweep},
	{"perf", "simulator wall-clock and allocation suite (BENCH_simnet.json)", perf},
	{"scale", "open-loop client-count sweep on one controller group", scale},
	{"dfs", "extent data path: flat vs chain, IO sizes, chain shapes, 1M-row load (BENCH_dfs.json)", dfsSweep},
	{"repl", "NCL replication policies x profiles: memory, write latency, recovery (BENCH_repl.json)", repl},
	{"chaos", "fault schedules x policies x seeds with per-event durability audits (BENCH_chaos.json)", chaos},
}

// newTestbed is the one place an experiment cluster is built. It fills in
// the scale's collector and, unless the caller passes a mutated copy, its
// cost-model profile, and registers the simulation with the run's report,
// where Experiment.Run and perf read the event count from.
func newTestbed(rep *Report, sc Scale, o harness.Options) *harness.Cluster {
	if o.Profile == nil {
		o.Profile = sc.profile()
	}
	o.Trace = sc.Trace
	c := harness.New(o)
	rep.track(c.Sim)
	return c
}

// newCluster builds the standard testbed for one experiment run under the
// scale's cost-model profile.
func newCluster(rep *Report, sc Scale, seed int64) *harness.Cluster {
	return newClusterDFS(rep, sc, seed, nil)
}

// newClusterSized additionally sizes the application server's block cache
// to 30% of the dataset, the paper's cache configuration for the key-value
// stores and the database (§5 "Application Configuration").
func newClusterSized(rep *Report, sc Scale, seed int64, dataset int64) *harness.Cluster {
	if dataset <= 0 {
		return newCluster(rep, sc, seed)
	}
	params := sc.profile().DFS
	params.CacheCapacity = dataset * 30 / 100
	if params.CacheCapacity < 1<<20 {
		params.CacheCapacity = 1 << 20
	}
	return newClusterDFS(rep, sc, seed, &params)
}

// newClusterDFS builds the testbed with the profile's dfs parameters
// overridden (nil keeps them).
func newClusterDFS(rep *Report, sc Scale, seed int64, params *dfs.Params) *harness.Cluster {
	return newTestbed(rep, sc, harness.Options{
		Seed: seed, NumPeers: 6, PeerMem: 1 << 30, AppCores: 10,
		WithLocalFS: true, DFSParams: params,
	})
}

// point is one measured latency/throughput sample set.
type point struct {
	hist  metrics.Histogram
	count int64
	dur   time.Duration
}

func (pt *point) kops() float64 {
	if pt.dur == 0 {
		return 0
	}
	return float64(pt.count) / pt.dur.Seconds() / 1000
}

// Bench wire codes (0x40–0x4f, see internal/wire).
const (
	codeOp      wire.Code = 0x40 // client->server YCSB operation
	codeRaftRec wire.Code = 0x41 // consensus-baseline log record
)

// opMsg encodes one client->server YCSB operation.
func opMsg(op ycsb.Op, val []byte) simnet.Msg {
	m := simnet.Msg{Code: codeOp, S: [3]string{op.Key}, B: val}
	m.U[0] = uint64(op.Type)
	return m
}

const serverThreads = 20

// startServer puts an application behind the simulated network with a
// bounded worker pool (the paper's 20 application-server threads).
func startServer(c *harness.Cluster, addr string, a *ycsbApp) {
	sem := simnet.NewSemaphore(serverThreads)
	// Precomputed "<app>.<optype>" span names keep string concatenation off
	// the per-request path.
	var ops [4]string
	for _, t := range []ycsb.OpType{ycsb.Read, ycsb.Update, ycsb.Insert, ycsb.ReadModifyWrite} {
		ops[t] = a.Name + "." + t.String()
	}
	c.Sim.Net().Register(addr, c.AppNode, func(p *simnet.Proc, req simnet.Msg) (simnet.Msg, error) {
		op := ycsb.Op{Type: ycsb.OpType(req.U[0]), Key: req.S[0]}
		sem.Acquire(p)
		defer sem.Release(p)
		sp := p.StartSpan("app", ops[op.Type])
		defer p.EndSpan(sp)
		return simnet.Msg{Code: wire.CodeAck}, a.do(p, op, req.B)
	})
}

// clientSeed is client i's generator seed, derived from the cluster seed so
// -seed varies the workload; at the default seed 1 it reduces to the
// historical i*7919+1, keeping published numbers unchanged.
func clientSeed(c *harness.Cluster, i int) int64 {
	return (c.Seed-1)*15485863 + int64(i)*7919 + 1
}

// runWorkload drives `clients` closed-loop clients against addr for the
// scale's window and returns the measured point. A non-nil sampler gets one
// observation per completed op (Fig 12's time series).
func runWorkload(c *harness.Cluster, p *simnet.Proc, addr string, spec ycsb.Spec,
	records int64, clients int, sc Scale, sampler *metrics.ThroughputSampler) *point {

	pt := &point{dur: sc.RunDur}
	start := p.Now()
	warmEnd := start + sc.Warmup
	end := warmEnd + sc.RunDur
	var wg simnet.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		g := ycsb.NewGenerator(spec, records, clientSeed(c, i))
		p.GoOn(c.ClientNode, fmt.Sprintf("client%d", i), func(cp *simnet.Proc) {
			defer wg.Done(cp)
			for cp.Now() < end {
				op := g.Next()
				var val []byte
				if op.Type != ycsb.Read {
					val = g.Value()
				}
				t0 := cp.Now()
				_, err := c.Sim.Net().CallTimeout(cp, c.ClientNode, addr, opMsg(op, val), 10*time.Second)
				if err != nil {
					continue
				}
				if now := cp.Now(); now > warmEnd && now <= end {
					pt.hist.Record(now - t0)
					pt.count++
				}
				if sampler != nil {
					sampler.Observe(cp.Now() - start)
				}
			}
		})
	}
	wg.Wait(p)
	return pt
}

// parallelLoad is the shared loader used by the app adapters.
func parallelLoad(node *simnet.Node, p *simnet.Proc, keys int64, loaders int,
	put func(lp *simnet.Proc, key string, val []byte) error) error {

	var wg simnet.WaitGroup
	wg.Add(loaders)
	var firstErr error
	for i := 0; i < loaders; i++ {
		p.GoOn(node, fmt.Sprintf("loader%d", i), func(lp *simnet.Proc) {
			defer wg.Done(lp)
			val := make([]byte, ycsb.ValueSize)
			for j := int64(i); j < keys; j += int64(loaders) {
				if err := put(lp, ycsb.Key(j), val); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
			}
		})
	}
	wg.Wait(p)
	return firstErr
}

// ---- Table 1: cost of strong guarantees ----

// table1 reproduces Table 1 (RocksDB-like store, write-only, 12 clients,
// weak vs strong on the dfs).
func table1(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: "Table 1. Cost of Strong Guarantees (write-only, 12 clients)"}
	keys := sc.LoadKeys / 4
	for _, cfgName := range []string{CfgWeak, CfgStrong} {
		pt, err := ycsbRun{kvPort, cfgName, "kv", keys, writeOnly, sc.Clients}.run(&rep, sc, seed)
		if err != nil {
			return rep, fmt.Errorf("table1 %s: %w", cfgName, err)
		}
		rep.add(cfgName, "kops", pt.kops(), "KOps/s")
		rep.dur(cfgName, "avg_lat", pt.hist.Mean())
	}
	return rep, nil
}

// writeOnly is the update-only zipfian workload of Table 1, Fig 1, 9 and 12.
var writeOnly = ycsb.Spec{Name: "write-only", UpdateProp: 1.0, Dist: ycsb.Zipfian}

// ---- Table 2: writes in storage-centric applications ----

// table2 reproduces the paper's qualitative analysis table as notes. The
// first three lines are the applications implemented in this repository
// (their file naming follows the packages); the rest cite the paper's
// analysis of systems not re-implemented here. The one machine-readable
// column — whether the large file is reclaimed by overwrite (circular) or
// by delete — is also a row per application.
func table2(Scale, int64) (Report, error) {
	rep := Report{Title: "Table 2. Writes in Storage-Centric Applications (*: from the paper's analysis)"}
	rows := [][]string{
		{"kvstore (RocksDB)", "write-ahead log (wal-*.log)", "sorted-string tables (L*.sst)", "delete"},
		{"redstore (Redis)", "append-only file (appendonly-*.aof)", "snapshot (dump-*.rdb)", "delete"},
		{"litedb (SQLite)", "write-ahead log (data.db-wal)", "database (data.db)", "overwrite"},
		{"LevelDB*", "write-ahead log (log)", "sorted tables (ldb)", "delete"},
		{"PostgreSQL*", "write-ahead log (pg_wal)", "database (base)", "overwrite"},
		{"HyperSQL*", "redo log (log)", "database (data)", "overwrite"},
		{"MariaDB*", "redo log (ib_logfile)", "tablespace file (ibd)", "overwrite"},
		{"MongoDB*", "journal (WiredTigerLog)", "WiredTiger store (wt)", "delete"},
	}
	table := metrics.Table([]string{"App", "Small, sync writes", "Large, bg writes", "Reclaim"}, rows)
	rep.Notes = strings.Split(strings.TrimRight(table, "\n"), "\n")
	for _, row := range rows {
		overwrite := 0.0
		if row[3] == "overwrite" {
			overwrite = 1
		}
		rep.add(row[0], "reclaim_by_overwrite", overwrite, "bool")
	}
	return rep, nil
}
