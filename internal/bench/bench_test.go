package bench

import (
	"slices"
	"testing"
	"time"

	"splitft/internal/apps"
)

// The bench tests validate the *shapes* the paper reports at a reduced
// scale (QuickScale): who wins, by roughly what factor, and where gaps
// close. Absolute values are checked loosely; EXPERIMENTS.md records the
// full-scale numbers.
//
// The virtual-clock tests that take seconds call t.Parallel: a simulation is
// self-contained and runs one goroutine at a time, so spare host cores
// shorten the package without touching a single result. The host-clock
// tests (TestBaselines' perf rows, TestPerfShape) stay sequential — they
// read process-wide allocation counters.

// run runs one experiment and logs its table.
func run(t *testing.T, exp func(Scale, int64) (Report, error), sc Scale, seed int64) Report {
	t.Helper()
	rep, err := exp(sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.Render())
	return rep
}

// val reads one (cell, metric) value; a missing coordinate fails the test.
func val(t *testing.T, rep Report, cell, metric string) float64 {
	t.Helper()
	v, ok := rep.Value(cell, metric)
	if !ok {
		t.Fatalf("%s: no row %s/%s", rep.Title, cell, metric)
	}
	return v
}

// dur reads a duration-valued ("ns") coordinate.
func dur(t *testing.T, rep Report, cell, metric string) time.Duration {
	t.Helper()
	return time.Duration(val(t, rep, cell, metric))
}

// only restricts the scale's app list.
func only(sc Scale, app string) Scale {
	port, _ := apps.Lookup(app)
	sc.Apps = []apps.Port{port}
	return sc
}

func TestTable1Shape(t *testing.T) {
	rep := run(t, table1, QuickScale(), 1)
	weakK, strongK := val(t, rep, CfgWeak, "kops"), val(t, rep, CfgStrong, "kops")
	weakLat, strongLat := dur(t, rep, CfgWeak, "avg_lat"), dur(t, rep, CfgStrong, "avg_lat")
	if weakK < 5*strongK {
		t.Errorf("weak %.1f KOps vs strong %.1f KOps: want order(s)-of-magnitude gap", weakK, strongK)
	}
	if strongLat < 10*weakLat {
		t.Errorf("strong latency %v vs weak %v: want >=10x", strongLat, weakLat)
	}
	if strongLat < time.Millisecond {
		t.Errorf("strong latency %v: should be ms-scale (fsync-bound)", strongLat)
	}
}

func TestFig1dShape(t *testing.T) {
	rep := run(t, fig1d, QuickScale(), 2)
	ratio := val(t, rep, "64MB", "throughput") / val(t, rep, "512B", "throughput")
	if ratio < 300 || ratio > 10000 {
		t.Errorf("64MB/512B throughput ratio = %.0f, want ~3 orders of magnitude", ratio)
	}
}

func TestFig8Shape(t *testing.T) {
	rep := run(t, fig8, QuickScale(), 3)
	nclSmall := dur(t, rep, "128B", "NCL")
	weakSmall := dur(t, rep, "128B", "weak-bench DFS")
	strongSmall := dur(t, rep, "128B", "strong-bench DFS")
	// Paper: NCL 4.6us, weak 1.2us, strong ~2000us at 128B.
	if nclSmall < 2*time.Microsecond || nclSmall > 12*time.Microsecond {
		t.Errorf("NCL 128B = %v, want ~4.6us", nclSmall)
	}
	if weakSmall > nclSmall {
		t.Errorf("weak (%v) should beat NCL (%v) slightly", weakSmall, nclSmall)
	}
	if strongSmall < 100*nclSmall {
		t.Errorf("strong (%v) should be ~2 orders above NCL (%v)", strongSmall, nclSmall)
	}
}

func TestFig10KVShape(t *testing.T) {
	t.Parallel()
	rep := run(t, fig10, only(QuickScale(), "kvstore"), 4)
	kops := func(cfg, w string) float64 { return val(t, rep, "kvstore/"+cfg, w) }
	// Write-heavy (A, F): SplitFT crushes strong and approximates weak.
	for _, w := range []string{"a", "f"} {
		sp, wk, st := kops(CfgSplitFT, w), kops(CfgWeak, w), kops(CfgStrong, w)
		if sp < 2.5*st {
			t.Errorf("workload %s: splitft %.1f vs strong %.1f, want >=2.5x", w, sp, st)
		}
		if sp < 0.7*wk {
			t.Errorf("workload %s: splitft %.1f vs weak %.1f, want close", w, sp, wk)
		}
	}
	// Read-only (C): the gap closes.
	if st, sp := kops(CfgStrong, "c"), kops(CfgSplitFT, "c"); st < 0.7*sp {
		t.Errorf("workload c: strong %.1f vs splitft %.1f, gap should close", st, sp)
	}
}

func TestFig10RedstoreShape(t *testing.T) {
	t.Parallel()
	rep := run(t, fig10, only(QuickScale(), "redstore"), 5)
	kops := func(cfg, w string) float64 { return val(t, rep, "redstore/"+cfg, w) }
	// Single-threaded head-of-line blocking: strong is poor even on the
	// read-heavy workload B, not just A.
	for _, w := range []string{"a", "b", "f"} {
		if sp, st := kops(CfgSplitFT, w), kops(CfgStrong, w); sp < 2*st {
			t.Errorf("workload %s: splitft %.1f vs strong %.1f, want >=2x (head-of-line)", w, sp, st)
		}
	}
	if st, sp := kops(CfgStrong, "c"), kops(CfgSplitFT, "c"); st < 0.7*sp {
		t.Errorf("read-only c: strong %.1f vs splitft %.1f should match", st, sp)
	}
}

func TestFig9LitedbShape(t *testing.T) {
	rep := run(t, fig9, only(QuickScale(), "litedb"), 6)
	sp := val(t, rep, "litedb/"+CfgSplitFT+"/1c", "kops")
	wk := val(t, rep, "litedb/"+CfgWeak+"/1c", "kops")
	st := val(t, rep, "litedb/"+CfgStrong+"/1c", "kops")
	if sp < 2.5*st {
		t.Errorf("litedb splitft %.2f vs strong %.2f, want >=2.5x", sp, st)
	}
	if sp < 0.7*wk {
		t.Errorf("litedb splitft %.2f vs weak %.2f, want close", sp, wk)
	}
}

func TestFig11aShape(t *testing.T) {
	rep := run(t, fig11a, QuickScale(), 7)
	nclP := dur(t, rep, "128B", "NCL")
	dfsP := dur(t, rep, "128B", "DFS")
	nclNP := dur(t, rep, "128B", "NCL no prefetch")
	direct := dur(t, rep, "128B", "DFS direct IO")
	if nclP >= dfsP {
		t.Errorf("NCL prefetch (%v) should beat DFS (%v) at 128B", nclP, dfsP)
	}
	if nclNP <= dfsP {
		t.Errorf("NCL without prefetch (%v) should lose to DFS (%v)", nclNP, dfsP)
	}
	if direct < 10*dfsP {
		t.Errorf("direct IO (%v) should dwarf cached DFS (%v)", direct, dfsP)
	}
}

func TestFig11bShape(t *testing.T) {
	t.Parallel()
	rep := run(t, fig11b, QuickScale(), 8)
	for _, app := range []string{"kvstore", "redstore", "litedb"} {
		sp, dft := dur(t, rep, app+"/SplitFT", "total"), dur(t, rep, app+"/DFT", "total")
		if sp <= 0 || dft <= 0 {
			t.Fatalf("%s: missing rows", app)
		}
		// NCL recovery is comparable to DFT (same order of magnitude), and
		// the NCL-specific part is a modest fraction of the total.
		if sp > 4*dft {
			t.Errorf("%s: splitft recovery %v vs dft %v, want comparable", app, sp, dft)
		}
		if dur(t, rep, app+"/SplitFT", "connect") <= 0 || dur(t, rep, app+"/SplitFT", "rdmaread") <= 0 {
			t.Errorf("%s: NCL breakdown incomplete", app)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	rep := run(t, table3, QuickScale(), 9)
	if dur(t, rep, "total", "time") <= 0 {
		t.Fatal("no replacement recorded")
	}
	// The paper's dominant step is connect+MR registration.
	connect, getPeer, apMap := dur(t, rep, "connect", "time"), dur(t, rep, "getpeer", "time"), dur(t, rep, "apmap", "time")
	if connect < getPeer || connect < apMap {
		t.Errorf("connect (%v) should dominate controller ops (%v, %v)", connect, getPeer, apMap)
	}
	if dur(t, rep, "catchup", "time") <= 0 {
		t.Error("catch-up missing")
	}
}

func TestFig12Shape(t *testing.T) {
	t.Parallel()
	sc := QuickScale()
	sc.RunDur = 600 * time.Millisecond // x3 inside fig12
	rep := run(t, fig12, sc, 10)
	if len(rep.Notes) < 2 {
		t.Fatalf("events = %v", rep.Notes)
	}
	// during lists metric over the 100ms rows that start in [from, to).
	during := func(metric string, from, to time.Duration) (vals []float64) {
		for _, row := range rep.Rows {
			at, err := time.ParseDuration(row.Cell)
			if err != nil {
				t.Fatalf("cell %q: %v", row.Cell, err)
			}
			if row.Metric == metric && at >= from && at < to {
				vals = append(vals, row.Value)
			}
		}
		if len(vals) == 0 {
			t.Fatalf("no %s rows in [%v, %v)", metric, from, to)
		}
		return vals
	}
	mean := func(vals []float64) float64 {
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return sum / float64(len(vals))
	}
	total := sc.Warmup + 3*sc.RunDur
	crash := (total * 4 / 10).Truncate(100 * time.Millisecond) // the row the 40% crash lands in
	healthy := mean(during("kops", sc.Warmup, crash))
	stallWin := slices.Min(during("min_kops", crash, crash+300*time.Millisecond))
	after := mean(during("kops", crash+400*time.Millisecond, total*70/100))
	if healthy <= 0 {
		t.Fatal("no healthy throughput")
	}
	// Two simultaneous crashes exceed the failure budget: writes must dip
	// until a replacement is caught up. With region recycling the
	// replacement is the paper's "much lower latency" case (~10ms), so the
	// dip is visible but brief; Table 3 covers the worst case.
	if stallWin > healthy*0.8 {
		t.Errorf("two simultaneous peer crashes: min rate %.1f vs healthy %.1f — expected a dip", stallWin, healthy)
	}
	if after < healthy*0.8 {
		t.Errorf("throughput did not recover after replacement: %.1f vs %.1f", after, healthy)
	}
}

func TestAblateReplicationShape(t *testing.T) {
	t.Parallel()
	rep := run(t, ablateRepl, QuickScale(), 11)
	nclLat, raftLat := dur(t, rep, "NCL (passive peers)", "mean_lat"), dur(t, rep, "Consensus (full replicas)", "mean_lat")
	if nclLat >= raftLat {
		t.Errorf("NCL (%v) should beat consensus (%v) on latency", nclLat, raftLat)
	}
	if raftLat < 50*nclLat {
		t.Errorf("consensus (%v) should be orders slower than NCL (%v)", raftLat, nclLat)
	}
}

func TestAblateSplitShape(t *testing.T) {
	rep := run(t, ablateSplit, QuickScale(), 12)
	split := dur(t, rep, "split (threshold)", "small_lat")
	dfsS := dur(t, rep, "dfs (sync)", "small_lat")
	allNCL := dur(t, rep, "all NCL", "small_lat")
	if split >= dfsS {
		t.Errorf("split small-write latency (%v) should beat dfs-sync (%v)", split, dfsS)
	}
	if split > 4*allNCL {
		t.Errorf("split small-write latency (%v) should be near all-NCL (%v)", split, allNCL)
	}
}

func TestAblateNoLogShape(t *testing.T) {
	rep := run(t, ablateNoLog, QuickScale(), 13)
	tier := dur(t, rep, "ncl-tier", "mean_lat")
	syncM := dur(t, rep, "dft-sync", "mean_lat")
	asyncM := dur(t, rep, "dft-async", "mean_lat")
	if tier >= syncM/50 {
		t.Errorf("ncl-tier (%v) should be orders faster than dft-sync (%v)", tier, syncM)
	}
	if tier > 20*asyncM {
		t.Errorf("ncl-tier (%v) should be near dft-async (%v)", tier, asyncM)
	}
}

// The scale smoke point (64 open-loop clients, 4 controller shards) must
// boot every client and complete its offered load with no controller
// errors. Well below the saturation knee, completed throughput should track
// offered throughput.
func TestScaleSmoke64c4s(t *testing.T) {
	rep := run(t, scale, QuickScale(), 1)
	const cell = "4s/64c"
	if got := val(t, rep, cell, "booted"); got != 64 {
		t.Errorf("booted = %v, want 64", got)
	}
	if got := val(t, rep, cell, "errs"); got != 0 {
		t.Errorf("errs = %v, want 0", got)
	}
	done, offered := val(t, rep, cell, "kops"), val(t, rep, cell, "offered_kops")
	if done <= 0 {
		t.Fatalf("completed throughput = %v KOps/s, want > 0", done)
	}
	if done < offered*0.9 {
		t.Errorf("completed %.2f KOps/s below 90%% of offered %.2f", done, offered)
	}
	if val(t, rep, cell, "p99_us") <= 0 {
		t.Error("p99 = 0, want > 0")
	}
}

// The perf suite must produce live counters for every workload. Run at a
// reduced slice so `go test` stays fast; absolute numbers are irrelevant
// here. (cmd/splitft-bench's tests cover the JSON the rows are written as.)
func TestPerfShape(t *testing.T) {
	sc := QuickScale()
	sc.LoadKeys = 5000
	sc.RunDur = 50 * time.Millisecond
	sc.Warmup = 20 * time.Millisecond
	rep := run(t, perf, sc, 1)
	if len(rep.Rows) != 8*6 {
		t.Fatalf("got %d rows, want 8 workloads x 6 metrics", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Metric != "allocs" && row.Metric != "allocs_per_event" && row.Value <= 0 {
			t.Errorf("%s: dead counter %s = %v", row.Cell, row.Metric, row.Value)
		}
	}
	// The pure scheduler rows must stay allocation-free per event up to
	// their fixed setup; one alloc every ~100 events would already mean a
	// hot-path regression.
	for _, cell := range []string{"event-churn", "event-churn-fanout", "yield-pingpong", "chan-pingpong", "mutex-convoy"} {
		if a := val(t, rep, cell, "allocs_per_event"); a > 0.01 {
			t.Errorf("%s: %.4f allocs/event, want setup-only", cell, a)
		}
	}
}
