package bench

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// baselines names, per experiment, the committed BENCH_*.json that the
// experiment regenerates at the CLI's default scale and seed
// (BENCH_scale.json is committed too, but gates nothing).
var baselines = map[string]string{
	"perf":  "BENCH_simnet.json",
	"dfs":   "BENCH_dfs.json",
	"repl":  "BENCH_repl.json",
	"chaos": "BENCH_chaos.json",
}

// sweepRun is the one run per test process of a baseline-backed experiment.
// These ignore the scale's sizes and cost up to ~12 s each, so
// TestBaselines gates the run and TestRegistry reuses it as the first of
// its two determinism runs. reproduced marks a run whose virtual rows
// matched the committed file bit for bit — the file is then itself the
// second identical run at that (scale, seed), and TestRegistry need not pay
// for a third.
type sweepRun struct {
	rep        Report
	reproduced bool
}

var sweeps = struct {
	sync.Mutex
	byName map[string]*sweepRun
}{byName: map[string]*sweepRun{}}

// defaultRun runs a baseline-backed experiment at the CLI's default scale
// and seed, once per test process.
func defaultRun(t *testing.T, e Experiment) *sweepRun {
	t.Helper()
	sweeps.Lock()
	sw := sweeps.byName[e.Name]
	sweeps.Unlock()
	if sw != nil {
		return sw
	}
	rep, err := e.Run(DefaultScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sw = &sweepRun{rep: rep}
	sweeps.Lock()
	sweeps.byName[e.Name] = sw
	sweeps.Unlock()
	return sw
}

// TestBaselines is the one baseline gate: it regenerates every committed
// sweep and compares row by row, choosing the comparison from the row's
// clock. Virtual rows are deterministic, so ±2% only absorbs a deliberately
// regenerated baseline rounding differently on another Go release — drift
// means the cost model changed and the file must be regenerated on purpose
// (`splitft-bench -out FILE <experiment>`). Host allocs_per_event rows may
// not regress past 1.5x the committed value + 0.05 (alloc counts vary a
// little with Go version and GC timing; the gate should catch regressions,
// not noise); host wall-time rows are never gated.
func TestBaselines(t *testing.T) {
	if raceEnabled {
		t.Skip("full sweeps are too slow, and allocation counts meaningless, under -race")
	}
	if testing.Short() {
		t.Skip("runs the full sweeps")
	}
	for _, e := range Experiments {
		file, ok := baselines[e.Name]
		if !ok {
			continue
		}
		t.Run(file, func(t *testing.T) {
			if e.Name != "perf" {
				t.Parallel() // virtual rows only; perf's allocation counts are process-wide, so it runs alone
			}
			sw := defaultRun(t, e)
			rep := sw.rep
			floors(t, e.Name, rep)

			data, err := os.ReadFile("../../" + file)
			if err != nil {
				t.Fatalf("committed baseline missing (regenerate with `splitft-bench -out %s %s`): %v", file, e.Name, err)
			}
			var base struct{ Rows []Row }
			if err := json.Unmarshal(data, &base); err != nil {
				t.Fatal(err)
			}
			if len(base.Rows) != len(rep.Rows) {
				t.Fatalf("baseline has %d rows, regenerated %d", len(base.Rows), len(rep.Rows))
			}
			exact := true
			for _, want := range base.Rows {
				got, ok := rep.Value(want.Cell, want.Metric)
				exact = exact && (want.Clock != Virtual || got == want.Value)
				switch {
				case !ok:
					t.Errorf("%s/%s: committed but not regenerated", want.Cell, want.Metric)
				case want.Clock == Virtual && math.Abs(got-want.Value) > 0.02*math.Abs(want.Value):
					t.Errorf("%s/%s: %v drifted from committed %v (±2%%)", want.Cell, want.Metric, got, want.Value)
				case want.Clock == Host && want.Metric == "allocs_per_event" && got > want.Value*1.5+0.05:
					t.Errorf("%s: %.4f allocs/event regressed past committed %.4f (limit %.4f)",
						want.Cell, got, want.Value, want.Value*1.5+0.05)
				}
			}
			sw.reproduced = exact && !t.Failed() // read by TestRegistry, which starts after this test ends
		})
	}
}

// floors are the acceptance properties that hold whatever the committed
// baseline says.
func floors(t *testing.T, experiment string, rep Report) {
	t.Helper()
	switch experiment {
	case "perf":
		// With the typed wire layer the transport itself is allocation-free,
		// so whole-run allocations — cluster construction, the YCSB
		// generator's per-op key/value strings and the applications' own
		// data structures included — stay at or below 0.5 per simulator event.
		for _, cell := range []string{"rpc-echo", "ycsb-a-12c"} {
			if a := val(t, rep, cell, "allocs_per_event"); a > 0.5 {
				t.Errorf("%s: %.4f allocs/event exceeds the 0.5 budget", cell, a)
			}
		}
	case "dfs":
		// A 64 MB chained append syncs at least 5x faster than the flat
		// primary-copy sync of the same bytes; the 1M-row load is bounded.
		flat, chain := dur(t, rep, "flat-sync-64MB", "virtual_ns"), dur(t, rep, "chain-append-64MB", "virtual_ns")
		if chain <= 0 || flat < 5*chain {
			t.Errorf("chain 64MB sync %v not ≥5x faster than flat %v", chain, flat)
		}
		if v := dur(t, rep, "kvload-1M", "virtual_ns"); v <= 0 || v > time.Minute {
			t.Errorf("1M-row load took %v of virtual time, want bounded (0, 1m]", v)
		}
	case "repl":
		// On every profile mirror stores ~3x, ec(4,2) <= 1.6x, and quorum's
		// one-RTT write has the lower p99.
		for _, row := range rep.Rows {
			policy, profile, _ := strings.Cut(row.Cell, "/")
			switch {
			case row.Metric == "mem_factor" && policy == "mirror" && (row.Value < 2.9 || row.Value > 3.1):
				t.Errorf("%s: memory factor %.2f, want ~3x", row.Cell, row.Value)
			case row.Metric == "mem_factor" && policy == "ec:4,2" && row.Value > 1.6:
				t.Errorf("%s: memory factor %.2f, want <= 1.6x", row.Cell, row.Value)
			case row.Metric == "recovery_ns" && row.Value <= 0:
				t.Errorf("%s: no recovery time measured", row.Cell)
			case row.Metric == "write_p99_ns" && policy == "quorum":
				if m := val(t, rep, "mirror/"+profile, "write_p99_ns"); row.Value >= m {
					t.Errorf("%s: quorum p99 %vns not below mirror p99 %vns", profile, row.Value, m)
				}
			}
		}
	case "chaos":
		// A correct protocol never loses an acked write, whatever the
		// schedule; the seeded ack-before-quorum mutation always does; every
		// cell acks writes, and every event is followed by a timed recovery
		// across a measured unavailability window.
		for _, row := range rep.Rows {
			mutant := strings.Contains(row.Cell, chaosMutantPolicy)
			switch {
			case row.Metric == "violations" && mutant && row.Value == 0:
				t.Errorf("%s: mutation produced no counterexample", row.Cell)
			case row.Metric == "violations" && !mutant && row.Value != 0:
				t.Errorf("%s: %v violations on a correct protocol", row.Cell, row.Value)
			case row.Metric == "recoveries" && row.Value < val(t, rep, row.Cell, "events") && !strings.HasPrefix(row.Cell, "gray-crash/"):
				t.Errorf("%s: %v recoveries, want an audit per event", row.Cell, row.Value)
			case row.Metric != "violations" && row.Value <= 0:
				t.Errorf("%s: %s = %v, want > 0", row.Cell, row.Metric, row.Value)
			}
		}
	}
}
