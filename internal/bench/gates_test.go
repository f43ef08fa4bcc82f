package bench

import (
	"math"
	"slices"
	"strings"
	"sync"
	"time"
)

// gate is one experiment's entry in the gate table: everything tier-1 holds
// it to, asserted by the one driver (bench_test.go) over one run — at the
// CLI's default scale and seed when a committed baseline pins it, otherwise
// at tiny, seed 1.
type gate struct {
	baseline string // the committed BENCH_*.json the experiment regenerates
	// points re-measures, at the scale written beside it, the cells whose
	// shape does not hold at tiny, and returns what the shape reads instead
	// of the gated run reg.
	points func(reg Report) (Report, error)
	// shape is the paper's: who wins, by roughly what factor, where gaps
	// close. first names two coordinates its first inequality compares:
	// TestGatesHaveTeeth swaps their values and demands a violation.
	shape func(c *check)
	first [2]coord
	// floors hold of a committed sweep whatever its baseline says.
	floors func(c *check)

	// The driver's, once per test process.
	once   sync.Once
	skip   string   // why the entry does not run in this mode
	rep    Report   // the gated run
	shaped Report   // what the shape read: rep, or the entry's points
	bad    []string // every violation
}

type coord struct{ cell, metric string }

// tiny is the default gate scale: small enough to run every experiment
// twice in seconds, and eleven of the thirteen paper shapes hold on its rows.
func tiny() Scale {
	sc := QuickScale()
	sc.LoadKeys, sc.Clients, sc.LogSizeMB = 2000, 4, 1
	sc.RunDur, sc.Warmup = 20*time.Millisecond, 10*time.Millisecond
	return sc
}

// fig12Scale is QuickScale with the shortest window (x3 inside fig12) that
// leaves a whole 100 ms row between crash + 400 ms and 70 % of the run.
func fig12Scale() Scale {
	sc := QuickScale()
	sc.RunDur = 400 * time.Millisecond
	return sc
}

// gates has an entry per name in Experiments (TestGateTableMatchesRegistry).
var gates = map[string]*gate{
	"table2": {}, "fig1": {}, "calibrate": {},

	"table1": {first: [2]coord{{CfgWeak, "kops"}, {CfgStrong, "kops"}}, shape: func(c *check) {
		weakK, strongK := c.val(CfgWeak, "kops"), c.val(CfgStrong, "kops")
		weakLat, strongLat := c.dur(CfgWeak, "avg_lat"), c.dur(CfgStrong, "avg_lat")
		c.failIf(weakK < 5*strongK, "weak %.1f KOps vs strong %.1f KOps: want order(s)-of-magnitude gap", weakK, strongK)
		c.failIf(strongLat < 10*weakLat, "strong latency %v vs weak %v: want >=10x", strongLat, weakLat)
		c.failIf(strongLat < time.Millisecond, "strong latency %v: should be ms-scale (fsync-bound)", strongLat)
	}},

	"fig1d": {first: [2]coord{{"64MB", "throughput"}, {"512B", "throughput"}}, shape: func(c *check) {
		ratio := c.val("64MB", "throughput") / c.val("512B", "throughput")
		c.failIf(ratio < 300 || ratio > 10000, "64MB/512B throughput ratio = %.0f, want ~3 orders of magnitude", ratio)
	}},

	// Paper: NCL 4.6us, weak 1.2us, strong ~2000us at 128B.
	"fig8": {first: [2]coord{{"128B", "NCL"}, {"128B", "strong-bench DFS"}}, shape: func(c *check) {
		nclSmall, weakSmall, strongSmall := c.dur("128B", "NCL"), c.dur("128B", "weak-bench DFS"), c.dur("128B", "strong-bench DFS")
		c.failIf(nclSmall < 2*time.Microsecond || nclSmall > 12*time.Microsecond, "NCL 128B = %v, want ~4.6us", nclSmall)
		c.failIf(weakSmall > nclSmall, "weak (%v) should beat NCL (%v) slightly", weakSmall, nclSmall)
		c.failIf(strongSmall < 100*nclSmall, "strong (%v) should be ~2 orders above NCL (%v)", strongSmall, nclSmall)
	}},

	"fig9": {first: [2]coord{{"litedb/" + CfgSplitFT + "/1c", "kops"}, {"litedb/" + CfgStrong + "/1c", "kops"}}, shape: func(c *check) {
		sp, wk, st := c.val("litedb/"+CfgSplitFT+"/1c", "kops"), c.val("litedb/"+CfgWeak+"/1c", "kops"), c.val("litedb/"+CfgStrong+"/1c", "kops")
		c.failIf(sp < 2.5*st, "litedb splitft %.2f vs strong %.2f, want >=2.5x", sp, st)
		c.failIf(sp < 0.7*wk, "litedb splitft %.2f vs weak %.2f, want close", sp, wk)
	}},

	// kvstore's SplitFT/weak reads 0.58 at tiny only because a 10 ms warm-up
	// does not cover the first WALs' region registrations: its six write-heavy
	// points again at tiny with a 40 ms warm-up, where SplitFT/weak is 1.03
	// (>= 0.7) and SplitFT/strong 72x (>= 2.5x) — 1.3 s, 0.7 M events.
	// Workload c (1.00, >= 0.7) and redstore's shape hold on the gated run.
	"fig10": {points: func(reg Report) (rep Report, err error) {
		sc := tiny()
		sc.Warmup = 40 * time.Millisecond
		for _, cfg := range AllConfigs {
			for _, w := range []string{"a", "f"} {
				if err := fig10Point(&rep, sc, 1, kvPort, cfg, w); err != nil {
					return rep, err
				}
			}
		}
		return over(rep, reg), nil
	}, first: [2]coord{{"kvstore/" + CfgSplitFT, "a"}, {"kvstore/" + CfgStrong, "a"}}, shape: func(c *check) {
		kops := func(cfg, w string) float64 { return c.val("kvstore/"+cfg, w) }
		// Write-heavy (A, F): SplitFT crushes strong and approximates weak.
		for _, w := range []string{"a", "f"} {
			sp, wk, st := kops(CfgSplitFT, w), kops(CfgWeak, w), kops(CfgStrong, w)
			c.failIf(sp < 2.5*st, "workload %s: splitft %.1f vs strong %.1f, want >=2.5x", w, sp, st)
			c.failIf(sp < 0.7*wk, "workload %s: splitft %.1f vs weak %.1f, want close", w, sp, wk)
		}
		// Read-only (C): the gap closes.
		st, sp := kops(CfgStrong, "c"), kops(CfgSplitFT, "c")
		c.failIf(st < 0.7*sp, "workload c: strong %.1f vs splitft %.1f, gap should close", st, sp)
		// redstore's single-threaded head-of-line blocking: strong is poor
		// even on the read-heavy workload B, not just A.
		kops = func(cfg, w string) float64 { return c.val("redstore/"+cfg, w) }
		for _, w := range []string{"a", "b", "f"} {
			sp, st := kops(CfgSplitFT, w), kops(CfgStrong, w)
			c.failIf(sp < 2*st, "workload %s: splitft %.1f vs strong %.1f, want >=2x (head-of-line)", w, sp, st)
		}
		st, sp = kops(CfgStrong, "c"), kops(CfgSplitFT, "c")
		c.failIf(st < 0.7*sp, "read-only c: strong %.1f vs splitft %.1f should match", st, sp)
	}},

	"fig11a": {first: [2]coord{{"128B", "NCL"}, {"128B", "DFS"}}, shape: func(c *check) {
		nclP, dfsP := c.dur("128B", "NCL"), c.dur("128B", "DFS")
		nclNP, direct := c.dur("128B", "NCL no prefetch"), c.dur("128B", "DFS direct IO")
		c.failIf(nclP >= dfsP, "NCL prefetch (%v) should beat DFS (%v) at 128B", nclP, dfsP)
		c.failIf(nclNP <= dfsP, "NCL without prefetch (%v) should lose to DFS (%v)", nclNP, dfsP)
		c.failIf(direct < 10*dfsP, "direct IO (%v) should dwarf cached DFS (%v)", direct, dfsP)
	}},

	// The paper has SplitFT 4 %-2x slower than DFT. At tiny's 1 MB log kvstore
	// is 1.24x, redstore 1.35x, litedb 0.92x: what SplitFT adds is two
	// controller round trips and the next log's open, a bind on memory the
	// peers pinned ahead of demand (12.7x when that open registered three
	// 64 MiB regions one after the other). The inequality is one-sided, so
	// first trades the DFT total with a sub-millisecond phase.
	"fig11b": {first: [2]coord{{"kvstore/DFT", "total"}, {"kvstore/SplitFT", "getpeer"}}, shape: func(c *check) {
		for _, app := range []string{"kvstore", "redstore", "litedb"} {
			sp, dft := c.dur(app+"/SplitFT", "total"), c.dur(app+"/DFT", "total")
			c.failIf(sp <= 0 || dft <= 0, "%s: missing rows", app)
			// Comparable to DFT, and the NCL-specific part is accounted for.
			c.failIf(sp > 2*dft, "%s: splitft recovery %v vs dft %v, want comparable", app, sp, dft)
			c.failIf(c.dur(app+"/SplitFT", "connect") <= 0 || c.dur(app+"/SplitFT", "rdmaread") <= 0, "%s: NCL breakdown incomplete", app)
		}
	}},

	// The paper's dominant step is connect+MR registration.
	"table3": {first: [2]coord{{"connect", "time"}, {"getpeer", "time"}}, shape: func(c *check) {
		c.failIf(c.dur("total", "time") <= 0, "no replacement recorded")
		connect, getPeer, apMap := c.dur("connect", "time"), c.dur("getpeer", "time"), c.dur("apmap", "time")
		c.failIf(connect < getPeer || connect < apMap, "connect (%v) should dominate controller ops (%v, %v)", connect, getPeer, apMap)
		c.failIf(c.dur("catchup", "time") <= 0, "catch-up missing")
	}},

	// At tiny the whole run is one 100 ms row. fig12Scale: healthy 241.9
	// KOps/s, lowest 10 ms sample after the double crash 119.5 (<= 0.8x),
	// 241.8 after the replacement (>= 0.8x) — 3.5 s, 2.8 M events.
	"fig12": {points: func(Report) (Report, error) { return fig12(fig12Scale(), 1) },
		first: [2]coord{{"0.5s", "min_kops"}, {"0.1s", "min_kops"}}, shape: func(c *check) {
			sc := fig12Scale()
			c.failIf(len(c.rep.Notes) < 2, "events = %v", c.rep.Notes)
			// during lists metric over the 100ms rows that start in [from, to).
			during := func(metric string, from, to time.Duration) (vals []float64) {
				for _, row := range c.rep.Rows {
					at, err := time.ParseDuration(row.Cell)
					c.failIf(err != nil, "cell %q: %v", row.Cell, err)
					if row.Metric == metric && at >= from && at < to {
						vals = append(vals, row.Value)
					}
				}
				c.failIf(len(vals) == 0, "no %s rows in [%v, %v)", metric, from, to)
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
			stallWin := slices.Min(append(during("min_kops", crash, crash+300*time.Millisecond), math.Inf(1)))
			after := mean(during("kops", crash+400*time.Millisecond, total*70/100))
			c.failIf(healthy <= 0, "no healthy throughput")
			// Two simultaneous crashes exceed the failure budget: writes dip until
			// a replacement is caught up — briefly, on a peer that has pinned its
			// memory (~4 ms).
			c.failIf(stallWin > healthy*0.8, "two simultaneous peer crashes: min rate %.1f vs healthy %.1f — expected a dip", stallWin, healthy)
			c.failIf(after < healthy*0.8, "throughput did not recover after replacement: %.1f vs %.1f", after, healthy)
		}},

	"ablate-repl": {first: [2]coord{{"NCL (passive peers)", "mean_lat"}, {"Consensus (full replicas)", "mean_lat"}}, shape: func(c *check) {
		nclLat, raftLat := c.dur("NCL (passive peers)", "mean_lat"), c.dur("Consensus (full replicas)", "mean_lat")
		c.failIf(nclLat >= raftLat, "NCL (%v) should beat consensus (%v) on latency", nclLat, raftLat)
		c.failIf(raftLat < 50*nclLat, "consensus (%v) should be orders slower than NCL (%v)", raftLat, nclLat)
	}},

	"ablate-split": {first: [2]coord{{"split (threshold)", "small_lat"}, {"dfs (sync)", "small_lat"}}, shape: func(c *check) {
		split, dfsS, allNCL := c.dur("split (threshold)", "small_lat"), c.dur("dfs (sync)", "small_lat"), c.dur("all NCL", "small_lat")
		c.failIf(split >= dfsS, "split small-write latency (%v) should beat dfs-sync (%v)", split, dfsS)
		c.failIf(split > 4*allNCL, "split small-write latency (%v) should be near all-NCL (%v)", split, allNCL)
	}},

	"ablate-nolog": {first: [2]coord{{"ncl-tier", "mean_lat"}, {"dft-sync", "mean_lat"}}, shape: func(c *check) {
		tier, syncM, asyncM := c.dur("ncl-tier", "mean_lat"), c.dur("dft-sync", "mean_lat"), c.dur("dft-async", "mean_lat")
		c.failIf(tier >= syncM/50, "ncl-tier (%v) should be orders faster than dft-sync (%v)", tier, syncM)
		c.failIf(tier > 20*asyncM, "ncl-tier (%v) should be near dft-async (%v)", tier, asyncM)
	}},

	// The smoke point (64 open-loop clients) boots every client and, well
	// below the knee, completes what it is offered.
	"scale": {first: [2]coord{{"64c", "booted"}, {"64c", "errs"}}, shape: func(c *check) {
		const cell = "64c"
		booted, errs := c.val(cell, "booted"), c.val(cell, "errs")
		c.failIf(booted != 64, "booted = %v, want 64", booted)
		c.failIf(errs != 0, "errs = %v, want 0", errs)
		done, offered := c.val(cell, "kops"), c.val(cell, "offered_kops")
		c.failIf(done <= 0, "completed throughput = %v KOps/s, want > 0", done)
		c.failIf(done < offered*0.9, "completed %.2f KOps/s below 90%% of offered %.2f", done, offered)
		c.failIf(c.val(cell, "p99_us") <= 0, "p99 = 0, want > 0")
	}},

	// Every workload's counters are live; absolute numbers are irrelevant.
	"perf": {baseline: "BENCH_simnet.json", first: [2]coord{{"event-churn", "allocs_per_event"}, {"event-churn", "events"}}, shape: func(c *check) {
		c.failIf(len(c.rep.Rows) != 8*6+2, "got %d rows, want 8 workloads x 6 metrics + the run's 2", len(c.rep.Rows))
		for _, row := range c.rep.Rows {
			c.failIf(row.Metric != "allocs" && row.Metric != "allocs_per_event" && row.Value <= 0, "%s: dead counter %s = %v", row.Cell, row.Metric, row.Value)
		}
		// The pure scheduler rows allocate their fixed setup and nothing per
		// event; one alloc every ~100 events is already a hot-path regression.
		for _, cell := range []string{"event-churn", "event-churn-fanout", "yield-pingpong", "chan-pingpong", "mutex-convoy"} {
			a := c.val(cell, "allocs_per_event")
			c.failIf(a > 0.01, "%s: %.4f allocs/event, want setup-only", cell, a)
		}
	}, floors: func(c *check) {
		// The transport is allocation-free, so whole-run allocations — cluster
		// construction, YCSB key/value strings, the applications' own
		// structures — stay at or below 0.5 per simulator event.
		for _, cell := range []string{"rpc-echo", "ycsb-a-12c"} {
			a := c.val(cell, "allocs_per_event")
			c.failIf(a > 0.5, "%s: %.4f allocs/event exceeds the 0.5 budget", cell, a)
		}
	}},

	// A 64 MB chained append syncs at least 5x faster than the flat
	// primary-copy sync of the same bytes; the 1M-row load is bounded.
	"dfs": {baseline: "BENCH_dfs.json", floors: func(c *check) {
		flat, chain := c.dur("flat-sync-64MB", "virtual_ns"), c.dur("chain-append-64MB", "virtual_ns")
		c.failIf(chain <= 0 || flat < 5*chain, "chain 64MB sync %v not ≥5x faster than flat %v", chain, flat)
		v := c.dur("kvload-1M", "virtual_ns")
		c.failIf(v <= 0 || v > time.Minute, "1M-row load took %v of virtual time, want bounded (0, 1m]", v)
	}},

	// Mirror stores ~3x, ec(4,2) <= 1.6x, and quorum's one-RTT write has the
	// lower p99.
	"repl": {baseline: "BENCH_repl.json", floors: func(c *check) {
		for _, row := range c.rep.Rows {
			policy := row.Cell
			switch {
			case row.Metric == "mem_factor" && policy == "mirror" && (row.Value < 2.9 || row.Value > 3.1):
				c.errorf("%s: memory factor %.2f, want ~3x", row.Cell, row.Value)
			case row.Metric == "mem_factor" && policy == "ec:4,2" && row.Value > 1.6:
				c.errorf("%s: memory factor %.2f, want <= 1.6x", row.Cell, row.Value)
			case row.Metric == "recovery_ns" && row.Value <= 0:
				c.errorf("%s: no recovery time measured", row.Cell)
			case row.Metric == "write_p99_ns" && policy == "quorum":
				m := c.val("mirror", "write_p99_ns")
				c.failIf(row.Value >= m, "quorum p99 %vns not below mirror p99 %vns", row.Value, m)
			}
		}
	}},

	// A correct protocol never loses an acked write, whatever the schedule;
	// the store under applog.Weak always does; every cell acks writes, and
	// every event is followed by a timed recovery across a measured
	// unavailability window. On the sweep's cells that window is the slowest
	// recovery, which sits inside a gap with no ack, plus under 25 ms: the
	// writers run beside the store, so nothing of the harness's may widen it.
	"chaos": {baseline: "BENCH_chaos.json", floors: func(c *check) {
		for _, row := range c.rep.Rows {
			weak := strings.HasPrefix(row.Cell, chaosWeakCell)
			sweep := !weak && !strings.HasPrefix(row.Cell, "gray-crash/")
			switch {
			case row.Metric == "violations" && weak && row.Value == 0:
				c.errorf("%s: weak durability produced no counterexample", row.Cell)
			case row.Metric == "violations" && !weak && row.Value != 0:
				c.errorf("%s: %v violations on a correct protocol", row.Cell, row.Value)
			case row.Metric == "recoveries" && row.Value < c.val(row.Cell, "events") && !strings.HasPrefix(row.Cell, "gray-crash/"):
				c.errorf("%s: %v recoveries, want an audit per event", row.Cell, row.Value)
			case row.Metric != "violations" && row.Value <= 0:
				c.errorf("%s: %s = %v, want > 0", row.Cell, row.Metric, row.Value)
			case row.Metric == "max_unavail_ns" && sweep:
				unavail, rec := time.Duration(row.Value), c.dur(row.Cell, "max_recovery_ns")
				c.failIf(unavail < rec || unavail >= rec+25*time.Millisecond,
					"%s: unavailable for %v around a %v recovery, want [recovery, recovery + 25ms)", row.Cell, unavail, rec)
			}
		}
	}},
}
