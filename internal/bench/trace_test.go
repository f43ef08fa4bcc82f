package bench

import (
	"bytes"
	"reflect"
	"testing"

	"splitft/internal/model"
	"splitft/internal/trace"
)

// Acceptance tests for the span-based instrumentation: traces must be
// deterministic, must not perturb the simulation, and the breakdowns the
// figures now derive from spans must stay inside the same calibration bands
// the cost model is gated on.

// Two runs with the same profile and seed must produce byte-identical
// Chrome trace JSON — on the data path (fig8) and on the sharded control
// plane (the scale smoke point), where any unordered map iteration feeding a
// decision in the controller, the shard-aware client or the pooled allocator
// would diverge.
func TestTraceDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		exp  func(Scale, int64) (Report, error)
		seed int64
	}{{"fig8", fig8, 1}, {"scale", scale, 7}, {"chaos", ctrlIsolateCell, 1}} {
		export := func() []byte {
			sc := QuickScale()
			col := trace.New()
			sc.Trace = col
			if _, err := tc.exp(sc, tc.seed); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := trace.WriteChrome(&buf, col.Spans()); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		a, b := export(), export()
		if len(a) == 0 {
			t.Fatalf("%s: empty trace export", tc.name)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: trace export not deterministic: %d vs %d bytes", tc.name, len(a), len(b))
		}
	}
}

// ctrlIsolateCell is the chaos cell whose export was not byte-stable: a
// controller leader isolated mid-replacement steps down with several
// proposals parked, and raft once woke them in Go map order.
func ctrlIsolateCell(sc Scale, seed int64) (Report, error) {
	var rep Report
	return rep, chaosOnce(&rep, sc, seed, "ctrl-isolate", "mirror")
}

// Attaching a collector must not change what the simulation computes: spans
// record virtual time, they never advance it.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	bare := QuickScale()
	traced := QuickScale()
	traced.Trace = trace.New()
	r1, err := fig8(bare, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fig8(traced, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Fatalf("rows differ with tracing on:\n  %+v\n  %+v", r1.Rows, r2.Rows)
	}
	if traced.Trace.Len() == 0 {
		t.Fatal("traced run collected no spans")
	}
}

// The Table 3 breakdown is now computed from "ncl"/"replace.*" spans; for
// every named hardware profile the controller-bound steps and the
// MR-registration-bound step must land inside the same bands the
// calibration gate derives from the profile (the replacement region is the
// paper's 60 MB log, matching the MR probe size).
func TestTable3WithinCalibrationBands(t *testing.T) {
	for _, name := range model.Names() {
		prof, err := model.Resolve(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sc := QuickScale()
		sc.LogSizeMB = 60
		sc.Profile = prof
		rep, err := table3(sc, 1)
		if err != nil {
			t.Fatalf("%s: table3: %v", name, err)
		}
		targets := map[string]model.Target{}
		for _, tg := range model.Targets(prof) {
			targets[tg.Probe] = tg
		}
		check := func(step string, tg model.Target) {
			if got := dur(t, rep, step, "time"); got < tg.Lo || got > tg.Hi {
				t.Errorf("%s: %s = %v outside band [%v, %v] (%s)",
					name, step, got, tg.Lo, tg.Hi, tg.Formula)
			}
		}
		ctrl := targets[model.ProbeControllerOp]
		check("getpeer", ctrl)
		check("apmap", ctrl)
		check("connect", targets[model.ProbeMRRegister60MB])
		if dur(t, rep, "catchup", "time") <= 0 {
			t.Errorf("%s: catch-up phase span missing", name)
		}
	}
}
