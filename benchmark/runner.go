package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"splitft/internal/model"
	"splitft/internal/trace"
)

// repeats is how many untraced runs one measurement makes. Virtual metrics
// must be identical across them; host metrics come from the fastest.
const repeats = 3

// metricVal is one reported number.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock,omitempty"`
	N     int     `json:"n,omitempty"` // sample count behind a percentile or a mean
}

// workloadReport is everything one workload reported.
type workloadReport struct {
	Name      string               `json:"name"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	EndToEnd  map[string]metricVal `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricVal `json:"per_layer,omitempty"`
	// HostRepeats holds every repeat's value of each host-clock end-to-end
	// metric, so a comparison can tell a difference from the spread.
	HostRepeats map[string][]float64 `json:"host_repeats,omitempty"`
	Events      []string             `json:"events,omitempty"` // one line per injected peer crash, and the recovery times
	Checks      []check              `json:"checks"`
}

func (w *workloadReport) ok() bool {
	for _, c := range w.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// runOnce executes one workload once.
func runOnce(w *workloadDef, seed int64, scale float64, traced bool) (*env, error) {
	runtime.GC() // the previous run's garbage is not this run's cost
	e := newEnv(seed, scale, traced)
	e.t0 = time.Now()
	if err := w.run(e); err != nil {
		return e, fmt.Errorf("%s (seed %d, traced %v): %w", w.Name, seed, traced, err)
	}
	return e, nil
}

func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

// unavail is unavail_ms: the median no-ack gap over the >f peer-crash events
// when the workload injects any, else the mean crash -> first-acked-write
// interval over its application crashes (like recovery_ms, a mean over the
// workload's fixed list of crash events).
func unavail(r *result) (time.Duration, int) {
	var over, all []time.Duration
	for _, f := range r.faults {
		all = append(all, f.gap)
		if f.overF {
			over = append(over, f.gap)
		}
	}
	if len(over) > 0 {
		return medianDur(over), len(over)
	}
	return meanDur(all), len(all)
}

// endToEndOf computes the ten end-to-end metrics of one run.
func endToEndOf(r *result) map[string]metricVal {
	def := map[string]metricDef{}
	for _, d := range endToEnd {
		def[d.Name] = d
	}
	out := map[string]metricVal{}
	set := func(name string, v float64, n int) {
		out[name] = metricVal{Value: v, Unit: def[name].Unit, Clock: def[name].Clock, N: n}
	}
	set("ops_kops", float64(r.thrOps)/r.thrDur.Seconds()/1e3, int(r.thrOps))
	set("sync_mbps", float64(r.syncBytes)/r.syncDur.Seconds()/1e6, 0)
	w := r.write.sorted()
	set("write_p50_us", us(quantile(w, 0.50)), len(w))
	set("write_p99_us", us(quantile(w, 0.99)), len(w))
	rec := r.recoveries
	if r.recoveryUse > 0 {
		rec = rec[:r.recoveryUse]
	}
	set("recovery_ms", ms(float64(meanDur(rec))), len(rec))
	gap, n := unavail(r)
	set("unavail_ms", ms(float64(gap)), n)
	wall := r.winEnd.wall.Sub(r.winStart.wall).Seconds()
	events := float64(r.winEnd.events - r.winStart.events)
	set("host_events_per_s", events/wall, 0)
	set("host_allocs_per_event", float64(r.winEnd.mallocs-r.winStart.mallocs)/events, 0)
	set("host_s", wall, 0)
	set("setup_s", r.setup.Seconds(), 0)
	return out
}

// runChecks are the output checks every untraced run must pass.
func runChecks(w *workloadDef, e *env) []check {
	r := &e.res
	cs := []check{
		checkf("lost_acked", r.lostAcked == 0 && r.readBack > 0,
			"%d acknowledged writes lost; %d read back after crash + recovery", r.lostAcked, r.readBack),
		checkf("failed_frac", float64(r.failed) <= 0.001*float64(r.attempted),
			"%d of %d ops failed, were refused, or were still queued at window end", r.failed, r.attempted),
		checkf("write_p99_supported", supported(len(r.write), 0.99),
			"%d write samples (need >= 10 beyond p99)", len(r.write)),
	}
	prof := e.prof
	for _, t := range model.Targets(prof) {
		var got time.Duration
		switch {
		case t.Probe == model.ProbeNCLRecord128 && len(r.appendProbe) > 0:
			got = time.Duration(r.appendProbe.mean())
		case t.Probe == model.ProbeDFSSyncWrite128 && len(r.dfsSyncProbe) > 0:
			got = time.Duration(r.dfsSyncProbe.mean())
		default:
			continue
		}
		cs = append(cs, checkf("calibration:"+t.Probe, got >= t.Lo && got <= t.Hi,
			"%v, band [%v, %v] from model.Targets(%s)", got, t.Lo, t.Hi, prof.Name))
	}
	if w.Name == "peer-fault-open" {
		cs = append(cs, faultChecks(r)...)
	}
	return cs
}

// faultChecks: every peer-crash event must restore redundancy; an event
// within f must not stall writes, an event beyond f must.
func faultChecks(r *result) []check {
	var within, beyond []time.Duration
	unrestored := 0
	for _, f := range r.faults {
		if f.victims == 0 {
			continue
		}
		if f.restore == 0 {
			unrestored++
		}
		if f.overF {
			beyond = append(beyond, f.gap)
		} else {
			within = append(within, f.gap)
		}
	}
	return []check{
		checkf("redundancy_restored", unrestored == 0 && len(within)+len(beyond) > 0,
			"%d of %d peer-crash events did not return to a full live group", unrestored, len(within)+len(beyond)),
		checkf("fault_gaps", len(beyond) > 0 && medianDur(beyond) > 2*medianDur(within),
			"no-ack gap: median %v over %d events within f (queueing only), %v over %d events beyond f (writes wait for a caught-up replacement)",
			medianDur(within), len(within), medianDur(beyond), len(beyond)),
	}
}

// measure runs the untraced repeats of one workload and assembles its
// end-to-end report. It returns the repeats so a traced run can be compared
// against the first.
func measure(w *workloadDef, seed int64, scale float64, n int) (*workloadReport, []*env, error) {
	rep := &workloadReport{Name: w.Name, HostRepeats: map[string][]float64{}}
	var envs []*env
	var all []map[string]metricVal
	for i := 0; i < n; i++ {
		e, err := runOnce(w, seed, scale, false)
		if err != nil {
			return nil, nil, err
		}
		e.c = nil // the cluster is garbage now; the result is what is kept
		envs = append(envs, e)
		all = append(all, endToEndOf(&e.res))
	}
	first := envs[0]
	rep.Attempted, rep.Failed = first.res.attempted, first.res.failed
	rep.Checks = runChecks(w, first)
	for _, f := range first.res.faults {
		if f.victims > 0 {
			rep.Events = append(rep.Events, fmt.Sprintf("t=%v: %d peer(s) crashed (beyond f: %v), longest no-ack gap %v, full group back after %v",
				f.at.Round(time.Millisecond), f.victims, f.overF, f.gap, f.restore))
		}
	}
	rep.Events = append(rep.Events, fmt.Sprintf("recoveries (RestartApp -> first read served): %v", first.res.recoveries))

	// Determinism: every virtual number of every repeat equals the first's.
	var diffs []string
	for i := 1; i < n; i++ {
		for _, d := range endToEnd {
			if d.Clock == virtual && all[i][d.Name].Value != all[0][d.Name].Value {
				diffs = append(diffs, fmt.Sprintf("repeat %d %s %v != %v", i, d.Name, all[i][d.Name].Value, all[0][d.Name].Value))
			}
		}
		a, b := &envs[i].res, &first.res
		if a.totalOps != b.totalOps || a.winEnd.events-a.winStart.events != b.winEnd.events-b.winStart.events {
			diffs = append(diffs, fmt.Sprintf("repeat %d (ops, events) differ", i))
		}
	}
	rep.Checks = append(rep.Checks, checkf("determinism", len(diffs) == 0,
		"%d repeats, virtual metrics identical: %v %v", n, len(diffs) == 0, diffs))

	// Host metrics. Every repeat's whole-window values are kept for the
	// spread; the reported host_s is the window's slices each taken from the
	// repeat that ran it fastest (see env.tick), host_events_per_s follows
	// from it, allocations come from the repeat with the shortest window, and
	// set-up is the median of the repeats.
	rep.EndToEnd = all[0]
	fastest := 0
	var setups []float64
	for i := range all {
		if all[i]["host_s"].Value < all[fastest]["host_s"].Value {
			fastest = i
		}
		setups = append(setups, all[i]["setup_s"].Value)
		for _, d := range endToEnd {
			if d.Clock == host {
				rep.HostRepeats[d.Name] = append(rep.HostRepeats[d.Name], all[i][d.Name].Value)
			}
		}
	}
	var ticks [][]time.Time
	for _, e := range envs {
		ticks = append(ticks, e.res.ticks)
	}
	wall, sameSlices := sliceMin(ticks)
	rep.Checks = append(rep.Checks, checkf("slices", sameSlices,
		"every repeat cut its window at the same %d points", len(first.res.ticks)))
	events := float64(first.res.winEnd.events - first.res.winStart.events)
	put := func(name string, v float64) {
		m := rep.EndToEnd[name]
		m.Value = v
		rep.EndToEnd[name] = m
	}
	put("host_s", wall.Seconds())
	put("host_events_per_s", events/wall.Seconds())
	put("host_allocs_per_event", all[fastest]["host_allocs_per_event"].Value)
	sort.Float64s(setups)
	put("setup_s", setups[len(setups)/2])
	return rep, envs, nil
}

// sliceMin adds up, over the slices between consecutive tick points, the
// shortest wall time any repeat took for that slice. same is false when the
// repeats did not tick the same number of times.
func sliceMin(ticks [][]time.Time) (total time.Duration, same bool) {
	for _, t := range ticks {
		if len(t) != len(ticks[0]) {
			return 0, false
		}
	}
	for k := 1; k < len(ticks[0]); k++ {
		best := time.Duration(math.MaxInt64)
		for _, t := range ticks {
			if d := t[k].Sub(t[k-1]); d < best {
				best = d
			}
		}
		total += best
	}
	return total, true
}

// layerMetrics runs the traced quarter-window run and reduces it, with the
// untraced run u of the same seed, to the per-layer metrics and their checks.
func layerMetrics(w *workloadDef, seed int64, scale float64, u *env) (map[string]metricVal, []check, *trace.Collector, error) {
	t, err := runOnce(w, seed, scale, true)
	if err != nil {
		return nil, nil, nil, err
	}
	t.c = nil
	ur, tr := &u.res, &t.res
	def := map[string]metricDef{}
	for _, d := range perLayer {
		def[d.Name] = d
	}
	out := map[string]metricVal{}
	set := func(name string, v float64, n int) {
		d, ok := def[name]
		if !ok {
			panic("benchmark: undeclared per-layer metric " + name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metricVal{Value: v, Unit: d.Unit, Clock: d.Clock, N: n}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	spans := t.col.Spans()
	b := reduce(spans, tr.steady)
	ops, virt := float64(b.ops), tr.steadyVirt.Seconds()
	for _, l := range layers {
		a := b.layer(l)
		set(l+".self_us", div(us(float64(a.fgSelf)), ops), a.fgCalls)
		set(l+".calls", div(float64(a.fgCalls), ops), a.fgCalls)
		set(l+".bg_ms", div(ms(float64(a.bgSelf)), virt), 0)
	}
	steady := aggregate(spans, func(i int) bool { return inRanges(tr.steady, i) })
	window := aggregate(spans, func(i int) bool { return i >= tr.winMark })
	meanUS := func(agg map[[2]string]opAgg, layer, op string) (float64, int) {
		a := agg[[2]string{layer, op}]
		return us(float64(a.mean())), a.count
	}
	meanMS := func(agg map[[2]string]opAgg, layer, op string) (float64, int) {
		v, n := meanUS(agg, layer, op)
		return v / 1e3, n
	}

	// simnet: the untraced window, and the traced one against it.
	uWall := ur.winEnd.wall.Sub(ur.winStart.wall)
	uEvents := float64(ur.winEnd.events - ur.winStart.events)
	tWall := tr.winEnd.wall.Sub(tr.winStart.wall)
	tEvents := float64(tr.winEnd.events - tr.winStart.events)
	set("simnet.events_per_op", div(uEvents, float64(ur.totalOps)), int(ur.totalOps))
	set("simnet.host_ns_per_event", div(float64(uWall), uEvents), 0)
	set("simnet.host_alloc_bytes_per_event", div(float64(ur.winEnd.bytes-ur.winStart.bytes), uEvents), 0)
	set("simnet.host_peak_rss_mb", peakRSSMB(), 0)
	set("simnet.host_gc_frac", div(ur.winEnd.gcCPU-ur.winStart.gcCPU, uWall.Seconds()), 0)
	set("simnet.trace_overhead_frac", div(div(float64(tWall), tEvents), div(float64(uWall), uEvents))-1, 0)

	// bench: the driver's own numbers.
	late := ur.late.sorted()
	set("bench.gen_late_p99_us", us(quantile(late, 0.99)), len(late))
	set("bench.backlog_max", float64(ur.backlogMax), 0)
	set("bench.budget_cover", b.cover(), b.ops)
	wr := ur.write.sorted()
	if supported(len(wr), 0.999) {
		set("bench.p999_us", us(quantile(wr, 0.999)), len(wr))
	} else {
		set("bench.p999_us", 0, len(wr))
	}
	reads := ur.read
	if len(reads) == 0 {
		reads = ur.readBackLat
	}
	rd := reads.sorted()
	set("bench.read_p50_us", us(quantile(rd, 0.5)), len(rd))
	if supported(len(rd), 0.99) {
		set("bench.read_p99_us", us(quantile(rd, 0.99)), len(rd))
	} else {
		set("bench.read_p99_us", 0, len(rd))
	}
	set("bench.failed_frac", div(float64(ur.failed), float64(ur.attempted)), int(ur.attempted))
	set("bench.lost_acked", float64(ur.lostAcked), int(ur.readBack))

	// ncl.
	v, n := meanUS(steady, "ncl", "record")
	set("ncl.record_us", v, n)
	v, n = meanMS(window, "ncl", "open")
	set("ncl.open_ms", v, n)
	set("ncl.rotations", float64(steady[[2]string{"ncl", "open"}].count), 0)
	set("ncl.mem_factor", ur.memFactor, 0)
	var detect []time.Duration
	replaces := trace.Filter(spans, "ncl", "replace")
	for _, f := range tr.faults {
		for _, s := range replaces {
			if f.victims > 0 && s.Start >= f.at {
				detect = append(detect, s.Start-f.at)
				break
			}
		}
	}
	set("ncl.detect_ms", ms(float64(meanDur(detect))), len(detect))
	var restore []time.Duration
	for _, f := range ur.faults {
		if f.victims > 0 {
			restore = append(restore, f.restore)
		}
	}
	set("ncl.redundancy_restore_ms", ms(float64(medianDur(restore))), len(restore))
	for _, phase := range []string{"recover", "recover.getpeer", "recover.connect", "recover.rdmaread", "recover.syncpeer",
		"replace", "replace.getpeer", "replace.connect", "replace.catchup", "replace.apmap"} {
		v, n = meanMS(window, "ncl", phase)
		set("ncl."+phase+"_ms", v, n)
	}

	// rdma, core, dfs.
	wrs := steady[[2]string{"rdma", "write"}]
	set("rdma.wrs_per_op", div(float64(wrs.count), ops), wrs.count)
	set("rdma.write_bytes_per_user_byte", div(float64(wrs.bytes), float64(tr.userBytes)), 0)
	v, n = meanMS(window, "rdma", "register")
	set("rdma.register_ms", v, n)
	v, n = meanUS(steady, "core", "write.ncl")
	set("core.write_ncl_us", v, n)
	v, n = meanUS(steady, "core", "write.dfs")
	set("core.write_dfs_us", v, n)
	v, n = meanUS(steady, "dfs", "fsync")
	set("dfs.fsync_us", v, n)
	set("dfs.fsyncs_per_kop", div(float64(n)*1e3, ops), n)
	v, n = meanUS(steady, "dfs", "pread")
	set("dfs.pread_us", v, n)
	set("dfs.write_bytes_per_user_byte", div(float64(steady[[2]string{"dfs", "pwrite"}].bytes), float64(tr.userBytes)), 0)
	set("dfs.pread_bytes_per_op", div(float64(steady[[2]string{"dfs", "pread"}].bytes), ops), 0)

	// controller, raft, peer.
	ctl := layerTotal(window, "controller")
	ka := window[[2]string{"controller", "keep-alive"}]
	ctl.count, ctl.total = ctl.count-ka.count, ctl.total-ka.total
	set("controller.op_us", us(float64(ctl.mean())), ctl.count)
	set("controller.ops_per_s", div(float64(layerTotal(steady, "controller").count), virt), 0)
	v, n = meanUS(steady, "raft", "propose")
	set("raft.propose_us", v, n)
	set("raft.proposals_per_s", div(float64(n), virt), n)
	v, n = meanMS(window, "peer", "setup")
	set("peer.setup_ms", v, n)
	set("peer.rpcs_per_s", div(float64(layerTotal(steady, "peer").count), virt), 0)

	// app: the store's own counters, and recovery split by the spans inside.
	set("app.batch_ops", div(float64(ur.kvOps), float64(ur.kvBatches)), int(ur.kvBatches))
	set("app.stall_ms", ms(float64(ur.stall)), 0)
	set("app.flushes", float64(ur.flushes), 0)
	set("app.compactions", float64(ur.compacts), 0)
	nclRecover := trace.Sum(spans, "ncl", "recover")
	parse := float64(meanDur(tr.recoveries)) - div(float64(nclRecover), float64(len(tr.recoveries)))
	set("app.recover_parse_ms", ms(parse), len(tr.recoveries))
	set("app.kvstore.recovery_ms", ms(float64(meanDur(ur.kvRecov))), len(ur.kvRecov))
	set("app.litedb.recovery_ms", ms(float64(meanDur(ur.liteRecov))), len(ur.liteRecov))

	// entry: outside timings of public calls.
	set("entry.newfs_ms", ms(float64(meanDur(ur.newFS))), len(ur.newFS))
	set("entry.app_recover_ms", ms(float64(meanDur(ur.appRecover))), len(ur.appRecover))
	set("entry.first_op_us", us(float64(meanDur(ur.firstOp))), len(ur.firstOp))
	set("entry.append_us", us(ur.appendProbe.mean()), len(ur.appendProbe))
	set("entry.bulk_sync_ms", ms(ur.bulkSync.mean()), len(ur.bulkSync))
	set("entry.pread_us", us(ur.preadEntry.mean()), len(ur.preadEntry))

	// Checks of the traced run.
	cs := []check{
		checkf("non_perturbation", tr.quarterOps == ur.quarterOps && tr.quarterEv == ur.quarterEv && tr.quarterEv > 0,
			"quarter mark (ops, events): untraced (%d, %d), traced (%d, %d)", ur.quarterOps, ur.quarterEv, tr.quarterOps, tr.quarterEv),
		checkf("traced_lost_acked", tr.lostAcked == 0 && tr.readBack > 0,
			"%d acknowledged writes lost in the traced run; %d read back", tr.lostAcked, tr.readBack),
	}
	// Accounting identity: the layers' foreground self time plus the roots'
	// own unattributed time is cover x total op latency, and cover >= 1.
	var fg time.Duration
	for _, a := range b.layers {
		fg += a.fgSelf
	}
	identity := math.Abs(float64(fg+b.rootSelf)-b.cover()*float64(b.opDur)) <= 1e-6*float64(b.opDur)+1
	cs = append(cs, checkf("budget", b.ops > 0 && b.cover() >= 1 && identity,
		"%d ops: layers %v + root %v = %.4f x op latency %v", b.ops, fg, b.rootSelf, b.cover(), b.opDur))
	for _, tg := range model.Targets(t.prof) {
		if tg.Probe == model.ProbeControllerOp && ctl.count > 0 {
			got := ctl.mean()
			cs = append(cs, checkf("calibration:"+tg.Probe, got >= tg.Lo && got <= tg.Hi,
				"%v over %d ops, band [%v, %v]", got, ctl.count, tg.Lo, tg.Hi))
		}
	}
	cs = append(cs, separationChecks(w.Name, &b)...)
	return out, cs, t.col, nil
}

// separationChecks assert each workload loads the layers it was built to
// load and bypasses the ones it was built to bypass.
func separationChecks(name string, b *budget) []check {
	fg := func(l string) time.Duration { return b.layer(l).fgSelf }
	largest := func(of time.Duration) bool {
		for _, l := range layers {
			if l != "ncl" && l != "rdma" && l != "dfs" && fg(l) > of {
				return false
			}
		}
		return true
	}
	switch name {
	case "log-append-open":
		nr := fg("ncl") + fg("rdma")
		return []check{checkf("layers", largest(nr) && nr > fg("dfs") && fg("dfs") == 0,
			"foreground self: ncl+rdma %v is the largest slice, dfs %v", nr, fg("dfs"))}
	case "dfs-bulk-sync":
		nr := fg("ncl") + fg("rdma")
		return []check{checkf("layers", largest(fg("dfs")) && nr == 0,
			"foreground self: dfs %v is the largest slice, ncl+rdma %v", fg("dfs"), nr)}
	}
	return nil
}
