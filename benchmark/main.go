// Command benchmark is the repository's benchmark of record: five workloads,
// two clocks, a per-layer budget. See README.md in this directory.
//
//	bash benchmark/run.sh --seed 1 --out r.json            all workloads
//	bash benchmark/run.sh --compare a.json b.json          judge two runs
//	bash benchmark/run.sh --workload kv-ycsb-a --seed 1 --seconds 10 --trace 0
//
// The last form is the driver's contract: one workload, one JSON object on
// the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"splitft/internal/trace"
)

// nominalSeconds is the --seconds value at which every virtual window has
// its documented length; other values scale all windows by one factor.
const nominalSeconds = 10

// fullReport is the --out file.
type fullReport struct {
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Workloads []*workloadReport `json:"workloads"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's JSON line (default: all five, full report)")
		seed     = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Int("seconds", nominalSeconds, "host-time budget of the measured windows; scales every virtual window by seconds/10")
		traceArg = flag.Int("trace", 0, "with --workload: 0 = end-to-end metrics from untraced repeats, 1 = per-layer metrics from a traced run")
		out      = flag.String("out", "", "write the full report to this file")
		traceOut = flag.String("trace-out", "", "directory for the traced runs' Chrome trace-event files")
		compare  = flag.Bool("compare", false, "compare two --out files given as arguments; exit 1 if a bound is exceeded")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("--compare needs two report files")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || flag.NArg() != 0 {
		fatalf("usage: benchmark [--workload NAME --trace 0|1] --seed N --seconds S [--out FILE] [--trace-out DIR]")
	}
	scale := float64(*seconds) / nominalSeconds

	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fatalf("unknown workload %q", *workload)
		}
		os.Exit(contractRun(w, *seed, scale, *traceArg == 1, *traceOut))
	}

	rep := fullReport{Seed: *seed, Seconds: *seconds}
	ok := true
	for i := range workloads {
		w := &workloads[i]
		wr, envs, err := measure(w, *seed, scale, repeats)
		if err != nil {
			fatalf("%v", err)
		}
		layer, checks, col, err := layerMetrics(w, *seed, scale, envs[0])
		if err != nil {
			fatalf("%v", err)
		}
		wr.PerLayer = layer
		wr.Checks = append(wr.Checks, checks...)
		writeTrace(*traceOut, w.Name, col)
		printReport(wr)
		ok = ok && wr.ok()
		rep.Workloads = append(rep.Workloads, wr)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	if !ok {
		fmt.Println("FAIL: an output check failed")
		os.Exit(1)
	}
	fmt.Println("PASS: every output check passed")
}

// contractRun runs one workload the way the driver asks and prints its JSON
// object as the last line of standard output.
func contractRun(w *workloadDef, seed int64, scale float64, traced bool, traceOut string) int {
	n := repeats
	if traced {
		n = 1
	}
	wr, envs, err := measure(w, seed, scale, n)
	if err != nil {
		fatalf("%v", err)
	}
	metrics := wr.EndToEnd
	if traced {
		layer, checks, col, err := layerMetrics(w, seed, scale, envs[0])
		if err != nil {
			fatalf("%v", err)
		}
		wr.PerLayer, metrics = layer, layer
		wr.Checks = append(wr.Checks, checks...)
		writeTrace(traceOut, w.Name, col)
	}
	printReport(wr)
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{wr.ok(), wr.Attempted, wr.Failed, map[string]val{}}
	for name, m := range metrics {
		line.Metrics[name] = val{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(data))
	if !wr.ok() {
		return 1
	}
	return 0
}

func writeTrace(dir, name string, col *trace.Collector) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	if err := trace.WriteChromeFile(filepath.Join(dir, name+".trace.json"), col.Spans()); err != nil {
		fatalf("%v", err)
	}
}

// printReport prints every metric by name with unit and clock, then the
// checks.
func printReport(wr *workloadReport) {
	fmt.Printf("== %s (attempted %d, failed %d)\n", wr.Name, wr.Attempted, wr.Failed)
	section := func(title string, defs []metricDef, vals map[string]metricVal) {
		if len(vals) == 0 {
			return
		}
		fmt.Printf("-- %s\n", title)
		for _, d := range defs {
			v := vals[d.Name]
			n := ""
			if v.N > 0 {
				n = fmt.Sprintf("  n=%d", v.N)
			}
			fmt.Printf("%-36s %16.6g %-7s %-8s %s%s\n", d.Name, v.Value, d.Unit, d.Clock, d.Better, n)
		}
	}
	section("end to end", endToEnd, wr.EndToEnd)
	if len(wr.HostRepeats) > 0 {
		names := make([]string, 0, len(wr.HostRepeats))
		for n := range wr.HostRepeats {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("   repeats %-24s %v\n", n, wr.HostRepeats[n])
		}
	}
	for _, ev := range wr.Events {
		fmt.Println("  ", ev)
	}
	section("per layer", perLayer, wr.PerLayer)
	fmt.Println("-- checks")
	for _, c := range wr.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("%s %-28s %s\n", verdict, c.Name, c.Detail)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
