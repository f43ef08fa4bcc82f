package bench

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"splitft/internal/model"
	"splitft/internal/trace"
)

// Acceptance tests for the span-based instrumentation: traces must be
// deterministic, must not perturb the simulation, and the breakdowns the
// figures now derive from spans must stay inside the same calibration bands
// the cost model is gated on.

// tracedRun is a run at tiny with a collector attached: its rows, how many
// spans it recorded and their Chrome trace JSON.
type tracedRun struct {
	rep    Report
	spans  int
	export []byte
}

func traced(exp func(Scale, int64) (Report, error), seed int64) (tracedRun, error) {
	sc := tiny()
	sc.Trace = trace.New()
	rep, err := exp(sc, seed)
	if err != nil {
		return tracedRun{}, err
	}
	var buf bytes.Buffer
	err = trace.WriteChrome(&buf, sc.Trace.Spans())
	return tracedRun{rep, sc.Trace.Len(), buf.Bytes()}, err
}

// fig8Traced is the traced counterpart of the fig8 entry's gated run, made
// once for the two tests that read it.
var fig8Traced = sync.OnceValues(tracedFig8)

func tracedFig8() (tracedRun, error) { return traced(experiment("fig8").Run, 1) }

// Two runs with the same profile and seed must produce byte-identical
// Chrome trace JSON — on the data path (fig8) and on the control plane (the
// scale smoke point), where any unordered map iteration feeding a decision
// in the controller or the pooled allocator would diverge.
func TestTraceDeterministic(t *testing.T) {
	t.Parallel()
	smoke := func() (tracedRun, error) { return traced(scale, 7) }
	isolate := func() (tracedRun, error) { return traced(ctrlIsolateCell, 1) }
	for _, tc := range []struct {
		name         string
		first, again func() (tracedRun, error)
	}{{"fig8", fig8Traced, tracedFig8}, {"scale", smoke, smoke}, {"chaos", isolate, isolate}} {
		a, err := tc.first()
		if err != nil {
			t.Fatal(err)
		}
		b, err := tc.again()
		if err != nil {
			t.Fatal(err)
		}
		if len(a.export) == 0 {
			t.Fatalf("%s: empty trace export", tc.name)
		}
		if !bytes.Equal(a.export, b.export) {
			t.Fatalf("%s: trace export not deterministic: %d vs %d bytes", tc.name, len(a.export), len(b.export))
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
// record virtual time, they never advance it. The bare run is the fig8
// entry's gated one.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	t.Parallel()
	with, err := fig8Traced()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := virtualRows(gated("fig8").rep), virtualRows(with.rep); len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("rows differ with tracing on:\n  %+v\n  %+v", a, b)
	}
	if with.spans == 0 {
		t.Fatal("traced run collected no spans")
	}
}

// The Table 3 breakdown is now computed from "ncl"/"replace.*" spans; for
// every named hardware profile the controller-bound steps and the
// MR-registration-bound step must land inside the same bands the
// calibration gate derives from the profile (the replacement region is the
// paper's 60 MB log, matching the MR probe size).
func TestTable3WithinCalibrationBands(t *testing.T) {
	t.Parallel()
	for _, name := range model.Names() {
		prof, err := model.Resolve(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sc := tiny()
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
		c := &check{rep: rep}
		band := func(step string, tg model.Target) {
			got := c.dur(step, "time")
			c.failIf(got < tg.Lo || got > tg.Hi, "%s = %v outside band [%v, %v] (%s)", step, got, tg.Lo, tg.Hi, tg.Formula)
		}
		ctrl := targets[model.ProbeControllerOp]
		band("getpeer", ctrl)
		band("apmap", ctrl)
		band("connect", targets[model.ProbeMRRegister60MB])
		c.failIf(c.dur("catchup", "time") <= 0, "catch-up phase span missing")
		for _, v := range c.bad {
			t.Errorf("%s: %s", name, v)
		}
	}
}
