package bench

import (
	"reflect"
	"testing"
	"time"
)

// TestRegistry replaces the hand-kept experiment lists: it walks the
// registry and checks, for every experiment, that its name is unique, that
// it produces rows in the one schema, and that two runs at the same
// (scale, seed) give identical virtual rows — the whole suite is a pure
// function of its inputs. Experiments behind a committed baseline run at the
// CLI's default scale so the first run is the one TestBaselines gates; the
// rest run at a scale small enough to do everything twice in seconds.
func TestRegistry(t *testing.T) {
	t.Parallel()
	tiny := QuickScale()
	tiny.LoadKeys, tiny.Clients, tiny.LogSizeMB = 2000, 4, 1
	tiny.RunDur, tiny.Warmup = 20*time.Millisecond, 10*time.Millisecond

	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.Name] || e.Help == "" {
			t.Errorf("experiment %q: duplicate name or no help line", e.Name)
		}
		seen[e.Name] = true
		t.Run(e.Name, func(t *testing.T) {
			sc, reproduced := tiny, false
			var first Report
			if _, ok := baselines[e.Name]; ok {
				if raceEnabled || testing.Short() {
					t.Skip("full sweep; covered by the non-race TestBaselines run")
				}
				sw := defaultRun(t, e)
				sc, first, reproduced = DefaultScale(), sw.rep, sw.reproduced
			} else {
				first = run(t, e.Run, sc, 1)
			}
			if len(first.Rows) == 0 {
				t.Fatal("no rows")
			}
			cells := map[[2]string]bool{}
			for _, row := range first.Rows {
				at := [2]string{row.Cell, row.Metric}
				if row.Experiment != e.Name || row.Cell == "" || row.Metric == "" || row.Unit == "" ||
					(row.Clock != Virtual && row.Clock != Host) || cells[at] {
					t.Errorf("malformed or duplicate row %+v", row)
				}
				cells[at] = true
			}
			if reproduced {
				return
			}
			second, err := e.Run(sc, 1)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := virtualRows(first), virtualRows(second); !reflect.DeepEqual(a, b) {
				t.Errorf("virtual rows differ across identical runs:\n  %+v\n  %+v", a, b)
			}
		})
	}
}

func virtualRows(rep Report) (out []Row) {
	for _, row := range rep.Rows {
		if row.Clock == Virtual {
			out = append(out, row)
		}
	}
	return out
}
