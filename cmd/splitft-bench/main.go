// Command splitft-bench regenerates the paper's tables and figures on the
// simulated testbed. It is flag parsing plus a loop over the experiment
// registry (internal/bench.Experiments): every experiment returns rows in
// the one result schema (experiment, cell, metric, value, unit, clock — see
// DESIGN.md §12), printed as one cell x metric table; EXPERIMENTS.md records
// the paper-vs-measured comparison.
//
// Usage:
//
//	splitft-bench [flags] <experiment> [<experiment>...]
//	splitft-bench all                  # every experiment, registry order
//	splitft-bench trace <experiment>   # run + print the per-phase span aggregation
//	splitft-bench -out rows.json fig8  # also write the rows as JSON
//	splitft-bench -trace out.json fig8 # also write a Chrome trace-event JSON
//	splitft-bench -cpuprofile cpu.pb.gz perf
//
// Running with no arguments lists the experiments. Nothing is written
// unless -out names a file; the committed baselines are regenerated with
//
//	splitft-bench -quick -out BENCH_simnet.json perf
//	splitft-bench -out BENCH_dfs.json dfs      (likewise repl, chaos)
//
// and internal/bench's gate driver (TestRegistry) diffs fresh runs against
// them. Every report ends with the run's host_ns and events (clock: host).
// calibrate exits 1 when a probe lands outside its band.
//
// Every experiment runs on the one cost model, model.Baseline(): the
// paper's testbed. The -replicate flag overrides its NCL replication policy
// (mirror, mirror:F, ec:K,M, quorum) for every experiment but repl and
// chaos, which sweep the policies themselves.
//
// Tracing: -trace FILE records every layer's spans (rpc, rdma, dfs, raft,
// controller, peer, ncl, core, app) on the virtual clock and writes them as
// Chrome trace-event JSON (load in chrome://tracing or https://ui.perfetto.dev).
// The trace subcommand runs the named experiments with tracing on and prints
// the per-(layer, op) aggregation table instead of writing a file. Traces are
// deterministic: the same seed and experiment produce byte-identical output.
//
// Profiling: -cpuprofile FILE and -memprofile FILE write runtime/pprof
// profiles of the host process (CPU sampled over the whole run; heap at
// exit). Combine with perf or any experiment to see where simulation
// wall-clock goes: `go tool pprof cpu.pb.gz`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"splitft/internal/apps"
	"splitft/internal/bench"
	"splitft/internal/model"
	"splitft/internal/ncl"
	"splitft/internal/trace"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain carries the exit code back through a normal return so deferred
// cleanups (CPU profile flush) run before the process exits.
func realMain(argv []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("splitft-bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		quick      = fl.Bool("quick", false, "use the reduced QuickScale (seconds per experiment)")
		keys       = fl.Int64("keys", 0, "override row count for kvstore/redstore loads")
		dur        = fl.Duration("dur", 0, "override measured window per data point")
		clients    = fl.Int("clients", 0, "override client count for fixed-client experiments")
		logMB      = fl.Int("logmb", 0, "override recovery-log size in MiB (paper: 60)")
		seed       = fl.Int64("seed", 1, "simulation seed (also seeds the YCSB workload generators)")
		appList    = fl.String("apps", "", "comma-separated app list for fig1/fig9/fig10/fig11b (default kvstore,redstore,litedb)")
		traceOut   = fl.String("trace", "", "record spans and write a Chrome trace-event JSON to this file")
		out        = fl.String("out", "", "write every row of the run to this file as JSON (nothing is written without it)")
		replicate  = fl.String("replicate", "", "NCL replication policy for every experiment but repl and chaos: mirror|mirror:F|ec:K,M|quorum")
		cpuprofile = fl.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
		memprofile = fl.String("memprofile", "", "write a runtime/pprof heap profile at exit to this file")
	)
	fl.Usage = func() {
		fmt.Fprintf(stderr, "usage: splitft-bench [flags] [trace] <experiment...|all>\nexperiments:\n")
		for _, e := range bench.Experiments {
			fmt.Fprintf(stderr, "  %-13s %s\n", e.Name, e.Help)
		}
		fmt.Fprintf(stderr, "  %-13s %s\n", "trace", "runs the experiments that follow with tracing on and prints the span aggregation")
		fl.PrintDefaults()
	}
	if err := fl.Parse(argv); err != nil {
		return 2
	}
	args := fl.Args()
	aggregate := len(args) > 0 && args[0] == "trace"
	if aggregate {
		args = args[1:]
	}
	if len(args) == 0 {
		fl.Usage()
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "splitft-bench: "+format+"\n", a...)
		return code
	}

	sc := bench.DefaultScale()
	if *quick {
		sc = bench.QuickScale()
	}
	if *keys > 0 {
		sc.LoadKeys = *keys
	}
	if *dur > 0 {
		sc.RunDur = *dur
	}
	if *clients > 0 {
		sc.Clients = *clients
	}
	if *logMB > 0 {
		sc.LogSizeMB = *logMB
	}
	if *appList != "" {
		sc.Apps = nil
		for _, name := range strings.FieldsFunc(*appList, func(r rune) bool { return r == ',' }) {
			port, ok := apps.Lookup(name)
			if !ok {
				return fail(2, "-apps: unknown app %q", name)
			}
			sc.Apps = append(sc.Apps, port)
		}
	}
	sc.Profile = model.Baseline()
	if *replicate != "" {
		if _, err := ncl.ParsePolicy(*replicate); err != nil {
			return fail(2, "-replicate: %v", err)
		}
		sc.Profile.NCL.Replication = *replicate
	}

	var col *trace.Collector
	if aggregate || *traceOut != "" {
		col = trace.New()
		sc.Trace = col
	}

	// Validate experiment names up front so a typo fails before hours of
	// simulation, not after.
	want := map[string]bool{}
	for _, arg := range args {
		known := arg == "all"
		for _, e := range bench.Experiments {
			if arg == "all" || arg == e.Name {
				want[e.Name] = true
				known = true
			}
		}
		if !known {
			return fail(2, "unknown experiment %q (run without arguments to list them)", arg)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(2, "%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(2, "%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(stdout, "[cpu profile written to %s]\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(1, "%v", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(1, "%v", err)
				return
			}
			fmt.Fprintf(stdout, "[heap profile written to %s]\n", *memprofile)
		}()
	}

	start := time.Now()
	var rows []bench.Row
	for _, e := range bench.Experiments {
		if !want[e.Name] {
			continue
		}
		fmt.Fprintf(stdout, "==== %s ====\n", e.Name)
		rep, err := e.Run(sc, *seed)
		if err == nil || len(rep.Rows) > 0 {
			fmt.Fprintln(stdout, rep.Render())
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		rows = append(rows, rep.Rows...)
	}
	if *out != "" {
		if err := bench.WriteJSON(*out, sc.Profile.Name, *seed, rows); err != nil {
			return fail(1, "%v", err)
		}
		fmt.Fprintf(stdout, "[%d rows written to %s]\n", len(rows), *out)
	}
	if aggregate {
		fmt.Fprintf(stdout, "==== trace aggregation ====\n")
		fmt.Fprint(stdout, trace.RenderAggregate(trace.Aggregate(col.Spans())))
	}
	if *traceOut != "" {
		if err := trace.WriteChromeFile(*traceOut, col.Spans()); err != nil {
			return fail(1, "write trace: %v", err)
		}
		fmt.Fprintf(stdout, "\n[trace: %d spans written to %s]\n", col.Len(), *traceOut)
	}
	fmt.Fprintf(stdout, "\n[done in %v wall-clock]\n", time.Since(start).Round(time.Second))
	return 0
}
