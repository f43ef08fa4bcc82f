package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

// The one driver of the gate table (gates_test.go, DESIGN.md §12). Each
// experiment runs once per test process and that run is held to all its entry
// says: row schema, determinism, baseline diff, floors, paper shape. The
// virtual-clock entries run in parallel — a simulation is self-contained and
// single-threaded, so spare cores change no result — and perf, whose
// allocation counters are process-wide, runs alone.

// experiment looks a registry entry up by name.
func experiment(name string) Experiment {
	return Experiments[slices.IndexFunc(Experiments, func(e Experiment) bool { return e.Name == name })]
}

// gated returns the named experiment's entry, run and judged on first use.
func gated(name string) *gate {
	e, g := experiment(name), gates[name]
	g.once.Do(func() {
		sc := tiny()
		switch {
		case g.baseline == "":
		case raceEnabled:
			g.skip = "full sweeps are too slow, and allocation counts meaningless, under -race"
			return
		case testing.Short():
			g.skip = "runs the full sweeps"
			return
		default:
			sc = DefaultScale()
		}
		c := &check{}
		defer func() { g.bad = c.bad }()
		var err error
		if c.rep, err = e.Run(sc, 1); err != nil {
			c.errorf("%v", err)
			return
		}
		g.rep, g.shaped = c.rep, c.rep
		c.schema(name)
		if g.baseline == "" || !c.reproduces(g.baseline, name) {
			second, err := e.Run(sc, 1)
			a, b := virtualRows(c.rep), virtualRows(second)
			c.failIf(err != nil || !reflect.DeepEqual(a, b), "virtual rows differ across identical runs (%v):\n  %+v\n  %+v", err, a, b)
		}
		if g.floors != nil {
			g.floors(c)
		}
		if g.points != nil {
			if c.rep, err = g.points(g.rep); err != nil {
				c.errorf("points: %v", err)
				return
			}
			g.shaped = c.rep
		}
		if g.shape != nil {
			g.shape(c)
		}
	})
	return g
}

// verdict fails t with every violation of the named entry.
func verdict(t *testing.T, name string) {
	t.Helper()
	g := gated(name)
	if g.skip != "" {
		t.Skip(g.skip)
	}
	t.Log("\n" + g.shaped.Render())
	for _, v := range g.bad {
		t.Error(v)
	}
}

// TestRegistry is the driver: a subtest per experiment, the committed sweeps
// first so that the longest (dfs: its 1M-row load is a committed row) does
// not start last.
func TestRegistry(t *testing.T) {
	for _, sweeps := range []bool{true, false} {
		for _, e := range Experiments {
			if g := gates[e.Name]; g != nil && (g.baseline != "") == sweeps {
				t.Run(e.Name, func(t *testing.T) {
					if e.Name != "perf" {
						t.Parallel()
					}
					verdict(t, e.Name)
				})
			}
		}
	}
}

// The table and the registry name the same experiments, once each.
func TestGateTableMatchesRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.Name] || e.Help == "" || gates[e.Name] == nil {
			t.Errorf("experiment %q: duplicate name, no help line or no entry in the gate table", e.Name)
		}
		seen[e.Name] = true
	}
	for name := range gates {
		if !seen[name] {
			t.Errorf("gate table entry %q names no experiment", name)
		}
	}
}

// No shape is vacuous: each objects to an empty report, and to its own
// passing report once the two values at first have traded places.
func TestGatesHaveTeeth(t *testing.T) {
	for _, e := range Experiments {
		name, g := e.Name, gates[e.Name]
		if g == nil || g.shape == nil || gated(name).skip != "" {
			continue
		}
		empty := &check{}
		if g.shape(empty); len(empty.bad) == 0 {
			t.Errorf("%s: shape accepts an empty report", name)
		}
		c := &check{rep: Report{Notes: g.shaped.Notes, Rows: slices.Clone(g.shaped.Rows)}}
		at := func(co coord) *float64 {
			i := slices.IndexFunc(c.rep.Rows, func(row Row) bool { return row.Cell == co.cell && row.Metric == co.metric })
			if i < 0 {
				t.Fatalf("%s: the report has no row at %v", name, co)
			}
			return &c.rep.Rows[i].Value
		}
		a, b := at(g.first[0]), at(g.first[1])
		*a, *b = *b, *a
		if g.shape(c); len(c.bad) == 0 {
			t.Errorf("%s: shape accepts its report with %v and %v swapped", name, g.first[0], g.first[1])
		}
	}
}

// The names the gates went by before the table, kept as handles: `go test
// -run TestFig10KVShape` runs that entry alone and prints its table. Beside
// TestRegistry they run nothing a second time.
func TestTable1Shape(t *testing.T)            { verdict(t, "table1") }
func TestFig9LitedbShape(t *testing.T)        { verdict(t, "fig9") }
func TestFig10KVShape(t *testing.T)           { verdict(t, "fig10") }
func TestAblateReplicationShape(t *testing.T) { verdict(t, "ablate-repl") }
func TestAblateSplitShape(t *testing.T)       { verdict(t, "ablate-split") }
func TestAblateNoLogShape(t *testing.T)       { verdict(t, "ablate-nolog") }
func TestBaselines(t *testing.T) {
	for _, e := range Experiments {
		if g := gates[e.Name]; g != nil && g.baseline != "" {
			t.Run(g.baseline, func(t *testing.T) { verdict(t, e.Name) })
		}
	}
}

// check reads a report on behalf of a gate and collects the violations.
type check struct {
	rep Report
	bad []string
}

func (c *check) errorf(format string, a ...any) { c.bad = append(c.bad, fmt.Sprintf(format, a...)) }

func (c *check) failIf(violated bool, format string, a ...any) {
	if violated {
		c.errorf(format, a...)
	}
}

// val reads one (cell, metric) value; a missing coordinate is a violation,
// and reads as NaN so that no inequality reports it a second time.
func (c *check) val(cell, metric string) float64 {
	v, ok := c.rep.Value(cell, metric)
	if !ok {
		c.errorf("%s: no row %s/%s", c.rep.Title, cell, metric)
		return math.NaN()
	}
	return v
}

// dur reads a duration-valued ("ns") coordinate.
func (c *check) dur(cell, metric string) time.Duration { return time.Duration(c.val(cell, metric)) }

// schema: rows, every one well-formed, stamped with the experiment's name
// and alone at its (cell, metric) coordinate.
func (c *check) schema(experiment string) {
	c.failIf(len(c.rep.Rows) == 0, "no rows")
	cells := map[[2]string]bool{}
	for _, row := range c.rep.Rows {
		at := [2]string{row.Cell, row.Metric}
		c.failIf(row.Experiment != experiment || row.Cell == "" || row.Metric == "" || row.Unit == "" ||
			(row.Clock != Virtual && row.Clock != Host) || cells[at], "malformed or duplicate row %+v", row)
		cells[at] = true
	}
}

// reproduces diffs the run row by row against the committed file and
// reports whether the file is a second identical run. Virtual rows are
// deterministic: built by the Go release that wrote the file they must match
// it exactly, and ±2% only absorbs a baseline rounding differently on another
// release. Drift means the file must be regenerated on purpose, with the
// command the violation prints. Host allocs_per_event may not pass 1.5x the
// committed value + 0.05 (regressions, not GC-timing noise); host wall-time
// rows are never gated.
func (c *check) reproduces(file, experiment string) bool {
	var base struct {
		GoVersion string `json:"go_version"`
		Rows      []Row
	}
	regen := fmt.Sprintf("go run ./cmd/splitft-bench -out %s %s", file, experiment)
	data, err := os.ReadFile("../../" + file)
	if err == nil {
		err = json.Unmarshal(data, &base)
	}
	c.failIf(err != nil, "committed baseline (regenerate with `%s`): %v", regen, err)
	c.failIf(len(base.Rows) != len(c.rep.Rows), "baseline has %d rows, regenerated %d", len(base.Rows), len(c.rep.Rows))
	tol, rule := 0.02, "±2% across Go releases: "+base.GoVersion+" wrote it, "+runtime.Version()+" ran it"
	if base.GoVersion == runtime.Version() {
		tol, rule = 0, "exact under "+runtime.Version()
	}
	exact := true
	for _, want := range base.Rows {
		got, ok := c.rep.Value(want.Cell, want.Metric)
		exact = exact && (want.Clock != Virtual || got == want.Value)
		switch {
		case !ok:
			c.errorf("%s/%s: committed but not regenerated", want.Cell, want.Metric)
		case want.Clock == Virtual && math.Abs(got-want.Value) > tol*math.Abs(want.Value):
			c.errorf("%s/%s: %v drifted from committed %v (%s; regenerate with `%s`)", want.Cell, want.Metric, got, want.Value, rule, regen)
		case want.Clock == Host && want.Metric == "allocs_per_event" && got > want.Value*1.5+0.05:
			c.errorf("%s: %.4f allocs/event regressed past committed %.4f (limit %.4f)",
				want.Cell, got, want.Value, want.Value*1.5+0.05)
		}
	}
	return exact && len(c.bad) == 0
}

// over returns points followed by the rows of reg at the coordinates points
// did not re-measure.
func over(points, reg Report) Report {
	points.Title, points.Notes = reg.Title, reg.Notes
	for _, row := range reg.Rows {
		if _, again := points.Value(row.Cell, row.Metric); !again {
			points.Rows = append(points.Rows, row)
		}
	}
	return points
}

func virtualRows(rep Report) (out []Row) {
	for _, row := range rep.Rows {
		if row.Clock == Virtual {
			out = append(out, row)
		}
	}
	return out
}
