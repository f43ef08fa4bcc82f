package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// compareFiles prints every (workload, end-to-end metric) pair of two full
// reports — A the parent, B the change — with both values, the relative
// difference in the metric's "worse" direction, and its bound. A virtual
// metric must match within its bound (two runs of the same code match
// exactly). A host metric whose own run-to-run spread, taken from the
// repeats recorded in either file, exceeds the bound is reported as
// unresolved rather than unchanged. The exit code is 1 if any bound is
// exceeded.
func compareFiles(pathA, pathB string) int {
	a, err := loadReport(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := loadReport(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Printf("note: runs differ in inputs (seed %d/%d, seconds %d/%d): virtual metrics are not expected to match exactly\n",
			a.Seed, b.Seed, a.Seconds, b.Seconds)
	}
	fmt.Printf("%-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	exceeded := 0
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			fmt.Printf("%-16s missing from %s\n", wa.Name, pathB)
			exceeded++
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			worse := worseBy(d, va, vb)
			verdict := "ok"
			switch {
			case d.Clock == host && math.Max(spread(wa.HostRepeats[d.Name]), spread(wb.HostRepeats[d.Name])) > d.Bound:
				verdict = "unresolved (spread exceeds bound)"
			case worse > d.Bound:
				verdict = "EXCEEDED"
				exceeded++
			case d.Clock == virtual && va == vb:
				verdict = "identical"
			}
			fmt.Printf("%-16s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				wa.Name, d.Name, va, vb, worse*100, d.Bound*100, verdict)
		}
		for _, c := range wb.Checks {
			if !c.OK {
				fmt.Printf("%-16s check %s failed in %s: %s\n", wb.Name, c.Name, pathB, c.Detail)
				exceeded++
			}
		}
	}
	if exceeded > 0 {
		fmt.Printf("FAIL: %d bound(s) exceeded or check(s) failed\n", exceeded)
		return 1
	}
	fmt.Println("PASS: no end-to-end metric is worse than its bound allows")
	return 0
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction (negative = better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spread is (max - min) / min of a metric's repeats.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if lo <= 0 {
		return 0
	}
	return (hi - lo) / lo
}

func (r *fullReport) workload(name string) *workloadReport {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func loadReport(path string) (*fullReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r fullReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
