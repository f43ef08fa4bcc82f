package model_test

import (
	"testing"

	"splitft/internal/bench"
	"splitft/internal/model"
)

// TestCalibrationGate is the regression gate: it runs the real micro-probes
// on the full simulated stack and fails if any lands outside its profile-
// derived band. A change that shifts the cost model (deliberately or not)
// must update internal/model, not slip through.
func TestCalibrationGate(t *testing.T) {
	prof := model.Baseline()
	t.Run(prof.Name, func(t *testing.T) {
		sc := bench.QuickScale()
		sc.Profile = prof
		meas, err := bench.Probes(sc, 1)
		if err != nil {
			t.Fatal(err)
		}
		rep := model.Calibrate(prof, meas)
		t.Log("\n" + rep.Render())
		if !rep.Pass() {
			t.Error("calibration failed")
		}
	})
}
