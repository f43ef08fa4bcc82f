package main

// This file is the benchmark's contract in code: the workloads, and every
// metric with its unit, clock, direction and (end-to-end only) regression
// bound. BENCHMARK.json at the repository root carries the same names; a
// unit test fails if the two drift apart.

// Clocks. A virtual metric is the calibrated cost model's time (Proc.Now):
// for a fixed seed it repeats exactly, so two commits compare exactly. A
// host metric is wall time or memory of the simulator process: noisy on a
// shared machine, so it is taken from the fastest of the untraced repeats
// (interference only ever adds time). "-" marks counts and ratios.
const (
	virtual = "virtual"
	host    = "host"
	noClock = "-"
)

type metricDef struct {
	Name   string
	Unit   string
	Clock  string
	Better string  // "higher" or "lower"
	Bound  float64 // share of the parent's median a later PR may lose (end-to-end only)
	Doc    string
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them, and none is ever zero.
var endToEnd = []metricDef{
	{"ops_kops", "KOps/s", virtual, "higher", 0.05, "client ops completed per virtual second of the throughput window (closed loop: capacity; open loop: the offered rate it kept up with)"},
	{"sync_mbps", "MB/s", virtual, "higher", 0.05, "user bytes acknowledged durable per virtual second of the same window"},
	{"write_p50_us", "us", virtual, "lower", 0.05, "median client-observed latency of write/append ops, ack = durable; open-loop phases time from the op's due instant"},
	{"write_p99_us", "us", virtual, "lower", 0.25, "99th percentile of the same population (every population has >= 10 samples beyond it, or the run fails)"},
	{"recovery_ms", "ms", virtual, "lower", 0.09, "RestartApp -> first client read served (NewFS + application Recover + first read), mean over the workload's crash events"},
	{"unavail_ms", "ms", virtual, "lower", 0.09, "longest interval with no acknowledged write around a fault: median over the >f peer-crash events on peer-fault-open; elsewhere application crash -> first write acknowledged after recovery, mean over the crash events"},
	{"host_events_per_s", "1/s", host, "higher", 0.25, "Sim.Events() delta / wall seconds of the measured window"},
	{"host_allocs_per_event", "count", host, "lower", 0.05, "MemStats.Mallocs delta / events over the measured window"},
	{"host_s", "s", host, "lower", 0.25, "wall seconds of the measured window"},
	{"setup_s", "s", host, "lower", 0.25, "wall seconds from workload start to the start of the measured window (input generation, cluster build, boot, dataset load, warm-up), median of the repeats"},
}

// perLayer are single-layer metrics from the traced run, the outside timings
// of public calls, and the application's own counters. They carry no bound.
// A metric a workload does not exercise reads 0 there.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out,
			metricDef{l + ".self_us", "us", virtual, "lower", 0, "foreground self time of " + l + " spans per client op (duration minus the union of child intervals, inside bench/op trees, before the op returned)"},
			metricDef{l + ".calls", "count", noClock, "lower", 0, l + " spans inside op trees per client op"},
			metricDef{l + ".bg_ms", "ms/s", virtual, "lower", 0, "self time of " + l + " spans outside op trees (or after the op returned) per virtual second of steady window"},
		)
	}
	return append(out, []metricDef{
		{"simnet.events_per_op", "count", noClock, "lower", 0, "events dispatched per client op in the measured window (untraced)"},
		{"simnet.host_ns_per_event", "ns", host, "lower", 0, "wall ns per event in the measured window (untraced)"},
		{"simnet.host_alloc_bytes_per_event", "B", host, "lower", 0, "MemStats.TotalAlloc delta per event"},
		{"simnet.host_peak_rss_mb", "MB", host, "lower", 0, "process peak resident set (getrusage) at the end of the run"},
		{"simnet.host_gc_frac", "ratio", host, "lower", 0, "GC cpu-seconds per wall second of the measured window"},
		{"simnet.trace_overhead_frac", "ratio", host, "lower", 0, "traced / untraced wall time per event - 1"},

		{"bench.gen_late_p99_us", "us", virtual, "lower", 0, "open-loop dispatch minus due, 99th percentile"},
		{"bench.backlog_max", "count", noClock, "lower", 0, "most open-loop arrivals due but not yet dispatched"},
		{"bench.budget_cover", "ratio", noClock, "lower", 0, "sum of foreground self time / sum of op latency (1 = serial, > 1 = parallel children)"},
		{"bench.p999_us", "us", virtual, "lower", 0, "99.9th percentile of the write population (0 when it has < 10 samples beyond)"},
		{"bench.read_p50_us", "us", virtual, "lower", 0, "median read latency: in-window reads where the workload has them, else the post-recovery read-back"},
		{"bench.read_p99_us", "us", virtual, "lower", 0, "99th percentile of the same population (0 when unsupported)"},
		{"bench.failed_frac", "ratio", noClock, "lower", 0, "ops failed, refused or (open loop) still queued at window end / ops attempted"},
		{"bench.lost_acked", "count", noClock, "lower", 0, "acknowledged writes absent or stale after crash + recovery (must be 0)"},

		{"ncl.record_us", "us", virtual, "lower", 0, "mean ncl/record span"},
		{"ncl.open_ms", "ms", virtual, "lower", 0, "mean ncl/open span (allocation: controller, peer set-up, MR registration, ap-map)"},
		{"ncl.rotations", "count", noClock, "lower", 0, "log regions opened during the measured window"},
		{"ncl.mem_factor", "ratio", noClock, "lower", 0, "peer bytes reserved / log capacity at window end"},
		{"ncl.detect_ms", "ms", virtual, "lower", 0, "peer crash -> start of the first ncl/replace span, mean over fault events"},
		{"ncl.redundancy_restore_ms", "ms", virtual, "lower", 0, "peer crash -> LivePeers() back at the slot count (polled every 100 us virtual), median over fault events"},
		{"ncl.recover_ms", "ms", virtual, "lower", 0, "mean ncl/recover span"},
		{"ncl.recover.getpeer_ms", "ms", virtual, "lower", 0, "mean ncl/recover.getpeer"},
		{"ncl.recover.connect_ms", "ms", virtual, "lower", 0, "mean ncl/recover.connect"},
		{"ncl.recover.rdmaread_ms", "ms", virtual, "lower", 0, "mean ncl/recover.rdmaread"},
		{"ncl.recover.syncpeer_ms", "ms", virtual, "lower", 0, "mean ncl/recover.syncpeer"},
		{"ncl.replace_ms", "ms", virtual, "lower", 0, "mean ncl/replace span"},
		{"ncl.replace.getpeer_ms", "ms", virtual, "lower", 0, "mean ncl/replace.getpeer"},
		{"ncl.replace.connect_ms", "ms", virtual, "lower", 0, "mean ncl/replace.connect"},
		{"ncl.replace.catchup_ms", "ms", virtual, "lower", 0, "mean ncl/replace.catchup"},
		{"ncl.replace.apmap_ms", "ms", virtual, "lower", 0, "mean ncl/replace.apmap"},

		{"rdma.wrs_per_op", "count", noClock, "lower", 0, "rdma write work requests per client op (steady window)"},
		{"rdma.write_bytes_per_user_byte", "ratio", noClock, "lower", 0, "bytes of rdma writes / user bytes written (steady window)"},
		{"rdma.register_ms", "ms", virtual, "lower", 0, "mean rdma/register span"},

		{"core.write_ncl_us", "us", virtual, "lower", 0, "mean core/write.ncl span"},
		{"core.write_dfs_us", "us", virtual, "lower", 0, "mean core/write.dfs span"},

		{"dfs.fsync_us", "us", virtual, "lower", 0, "mean dfs/fsync span"},
		{"dfs.pread_us", "us", virtual, "lower", 0, "mean dfs/pread span"},
		{"dfs.fsyncs_per_kop", "count", noClock, "lower", 0, "dfs fsyncs per thousand client ops"},
		{"dfs.write_bytes_per_user_byte", "ratio", noClock, "lower", 0, "bytes of dfs pwrites / user bytes written (write amplification into the dfs)"},
		{"dfs.pread_bytes_per_op", "B", noClock, "lower", 0, "bytes of dfs preads per client op"},

		{"controller.op_us", "us", virtual, "lower", 0, "mean controller command span (keep-alives excluded)"},
		{"controller.ops_per_s", "1/s", virtual, "lower", 0, "controller commands per virtual second (keep-alives included)"},
		{"raft.propose_us", "us", virtual, "lower", 0, "mean raft/propose span"},
		{"raft.proposals_per_s", "1/s", virtual, "lower", 0, "raft proposals per virtual second"},
		{"peer.setup_ms", "ms", virtual, "lower", 0, "mean peer/setup span"},
		{"peer.rpcs_per_s", "1/s", virtual, "lower", 0, "peer RPCs served per virtual second"},

		{"app.batch_ops", "count", noClock, "higher", 0, "kvstore ops per group-commit batch (Stats.Ops / Stats.Batches)"},
		{"app.stall_ms", "ms", virtual, "lower", 0, "kvstore StallTime + SlowdownTime in the measured window"},
		{"app.flushes", "count", noClock, "lower", 0, "kvstore memtable flushes in the measured window"},
		{"app.compactions", "count", noClock, "lower", 0, "kvstore compactions in the measured window"},
		{"app.recover_parse_ms", "ms", virtual, "lower", 0, "recovery_ms minus the ncl/recover spans inside it: application-level read, parse and rebuild"},
		{"app.kvstore.recovery_ms", "ms", virtual, "lower", 0, "recovery_ms over kvstore crash events"},
		{"app.litedb.recovery_ms", "ms", virtual, "lower", 0, "recovery_ms over litedb crash events"},

		{"entry.newfs_ms", "ms", virtual, "lower", 0, "core.NewFS after RestartApp, timed from outside"},
		{"entry.app_recover_ms", "ms", virtual, "lower", 0, "the application's Recover (or the recovering OpenFile), timed from outside"},
		{"entry.first_op_us", "us", virtual, "lower", 0, "first read after recovery"},
		{"entry.append_us", "us", virtual, "lower", 0, "uncontended 128 B core.File.Write+Sync on an O_NCL file (calibration probe)"},
		{"entry.bulk_sync_ms", "ms", virtual, "lower", 0, "one bulk file create + Write + Sync"},
		{"entry.pread_us", "us", virtual, "lower", 0, "one 4 KB core.File.Pread on a dfs file"},
	}...)
}()

// workloadDef is one workload: its name, the one-line reason it exists, and
// the function that runs it once.
type workloadDef struct {
	Name string
	Why  string
	run  func(*env) error
}

var workloads = []workloadDef{
	{"kv-ycsb-a", "Paper headline (Fig 10): kvstore on SplitFT under YCSB-A, closed loop for capacity then open loop for latency; app+core+ncl+rdma carry it, dfs only on read misses and in the background", runKVYCSB},
	{"log-append-open", "One O_NCL|O_APPEND log, unbatched 128 B-8 KB appends at a fixed rate, 4 MiB region so rotation (controller, peers, MR registration) is on the path; ncl+rdma do nearly all the work, dfs none", runLogAppend},
	{"dfs-bulk-sync", "No NCL: 64 KB-64 MB file Write+Sync beside 4 KB random Preads over 4x the client cache; dfs, extent leases and rpc do the work, so an NCL/RDMA change must not move it", runDFSBulk},
	{"crash-recover", "Eight fill -> crash -> recover -> read-back cycles, kvstore and litedb alternating: NCL used for reads (ap-map, connect, RDMA READ, peer sync) plus application parse, which dominates", runCrashRecover},
	{"peer-fault-open", "kvstore with an embedded open-loop writer pool while WAL peers crash, alternately within and beyond f; ncl repair/replace, peer set-up, controller/raft and rdma.register do the work", runPeerFault},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
