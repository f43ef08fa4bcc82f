package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"splitft/internal/metrics"
	"splitft/internal/simnet"
)

// Clocks a row's value can be read from.
const (
	// Virtual values are simulated time and deterministic counts: a pure
	// function of (profile, scale, seed), gated tightly against baselines.
	Virtual = "virtual"
	// Host values are wall-clock and allocator readings of the simulating
	// process; they vary with the machine and are gated loosely or not at all.
	Host = "host"
)

// runCell is the cell of the two rows Experiment.Run appends to every report.
const runCell = "run"

// Row is the one result schema (DESIGN.md §12): every number an experiment
// produces is one (experiment, cell, metric) coordinate with a value, the
// unit it is in and the clock it was read from. Durations are "ns".
type Row struct {
	Experiment string  `json:"experiment"`
	Cell       string  `json:"cell"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Clock      string  `json:"clock"`
}

// Report is what every experiment returns: a title, free-text notes (event
// logs, verdict lines) and the rows.
type Report struct {
	Title string
	Notes []string
	Rows  []Row

	// The simulations the run built (newTestbed, perf): sim is the current
	// one, events the total of the finished ones before it.
	sim    *simnet.Sim
	events uint64
}

// track registers a simulation with the run. The simulations of one run are
// built and run one after the other, so the previous one is finished and
// only its event count is kept.
func (r *Report) track(s *simnet.Sim) {
	r.events = r.simEvents()
	r.sim = s
}

// count adds the simulations of a report filled on the side (one of perf's
// workloads) to the run's.
func (r *Report) count(side *Report) { r.events += side.simEvents() }

// simEvents is the number of simulator events the run has dispatched so far.
func (r *Report) simEvents() uint64 {
	if r.sim == nil {
		return r.events
	}
	return r.events + r.sim.Events()
}

// add appends a virtual-clock row.
func (r *Report) add(cell, metric string, v float64, unit string) {
	r.Rows = append(r.Rows, Row{Cell: cell, Metric: metric, Value: v, Unit: unit, Clock: Virtual})
}

// dur appends a virtual-clock duration row.
func (r *Report) dur(cell, metric string, d time.Duration) {
	r.add(cell, metric, float64(d), "ns")
}

// host appends a host-clock row.
func (r *Report) host(cell, metric string, v float64, unit string) {
	r.Rows = append(r.Rows, Row{Cell: cell, Metric: metric, Value: v, Unit: unit, Clock: Host})
}

// Value returns the (cell, metric) value, or false if the report lacks it.
func (r Report) Value(cell, metric string) (float64, bool) {
	for _, row := range r.Rows {
		if row.Cell == cell && row.Metric == metric {
			return row.Value, true
		}
	}
	return 0, false
}

// Render pivots the rows into one table: a line per cell, a column per
// metric, both in first-seen order; absent coordinates print "-". The run
// cell — what the run cost the host — prints as a footer under the table.
func (r Report) Render() string {
	var cells, mets, header, cost []string
	text := map[[2]string]string{}
	for _, row := range r.Rows {
		if row.Cell == runCell {
			cost = append(cost, row.Metric+" "+fmtValue(row.Value, row.Unit))
			continue
		}
		if !slices.Contains(mets, row.Metric) {
			mets = append(mets, row.Metric)
			h := row.Metric
			if row.Unit != "ns" { // durations print their own unit
				h += " (" + row.Unit + ")"
			}
			header = append(header, h)
		}
		if !slices.Contains(cells, row.Cell) {
			cells = append(cells, row.Cell)
		}
		text[[2]string{row.Cell, row.Metric}] = fmtValue(row.Value, row.Unit)
	}
	out := r.Title + "\n"
	for _, n := range r.Notes {
		out += "  " + n + "\n"
	}
	if len(cells) > 0 {
		var rows [][]string
		for _, c := range cells {
			line := []string{c}
			for _, m := range mets {
				v, ok := text[[2]string{c, m}]
				if !ok {
					v = "-"
				}
				line = append(line, v)
			}
			rows = append(rows, line)
		}
		out += metrics.Table(append([]string{"cell"}, header...), rows)
	}
	if len(cost) > 0 {
		out += "[run: " + strings.Join(cost, ", ") + "]\n"
	}
	return out
}

// fmtValue prints whole numbers exactly, whole nanosecond counts as
// durations, and everything else to about four significant digits.
func fmtValue(v float64, unit string) string {
	whole := v == math.Trunc(v) && math.Abs(v) < 1e15
	switch {
	case unit == "ns" && whole:
		return strings.Replace(time.Duration(v).String(), "µ", "u", 1) // keep columns byte-aligned
	case whole:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// WriteJSON writes rows to path in the committed BENCH_*.json shape: the
// host and run identity once, then one row per line so a regenerated
// baseline diffs value by value.
func WriteJSON(path, profile string, seed int64, rows []Row) error {
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  \"go_version\": %q,\n  \"goos\": %q,\n  \"goarch\": %q,\n  \"cpus\": %d,\n  \"profile\": %q,\n  \"seed\": %d,\n  \"rows\": [",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), profile, seed)
	for i, row := range rows {
		data, err := json.Marshal(row)
		if err != nil {
			return fmt.Errorf("bench: row %s/%s/%s: %w", row.Experiment, row.Cell, row.Metric, err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    ")
		b.Write(data)
	}
	b.WriteString("\n  ]\n}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
