package opdomain

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestParallelMatchesSerial pins down the sweep's determinism guarantee:
// the same grid evaluated by one worker and by many workers must produce
// byte-identical points in the same row-major order.
func TestParallelMatchesSerial(t *testing.T) {
	d := wireVariant(t)
	truth := func(i uint32) uint32 { return i }
	sweep := Sweep{
		MuMin: -0.34, MuMax: -0.28, MuSteps: 4,
		EpsMin: 5.2, EpsMax: 6.0, EpsSteps: 3,
		LambdaTF: 5,
	}
	serial := AnalyzeOpts(d, truth, sweep, Options{Workers: 1})
	for _, workers := range []int{2, 4, 8} {
		par := AnalyzeOpts(d, truth, sweep, Options{Workers: workers})
		if !reflect.DeepEqual(serial.Points, par.Points) {
			t.Errorf("workers=%d: points differ from serial evaluation", workers)
		}
	}
}

// TestAnalyzeSolverOption runs a sweep through an explicitly selected exact
// backend and checks the outcome matches automatic dispatch on instances
// both can solve exactly.
func TestAnalyzeSolverOption(t *testing.T) {
	d := wireVariant(t)
	truth := func(i uint32) uint32 { return i }
	sweep := Sweep{
		MuMin: -0.32, MuMax: -0.32, MuSteps: 1,
		EpsMin: 5.6, EpsMax: 5.6, EpsSteps: 1,
		LambdaTF: 5,
	}
	auto := AnalyzeOpts(d, truth, sweep, Options{})
	qe := AnalyzeOpts(d, truth, sweep, Options{Solver: "quickexact"})
	if !reflect.DeepEqual(auto.Points, qe.Points) {
		t.Error("quickexact sweep disagrees with automatic dispatch")
	}
	if !qe.Points[0].Operational {
		t.Error("wire must operate at its calibration point under quickexact")
	}
	// An unknown solver name must not drop points: evaluatePoint falls back
	// to automatic dispatch.
	bogus := AnalyzeOpts(d, truth, sweep, Options{Solver: "no-such-solver"})
	if !reflect.DeepEqual(auto.Points, bogus.Points) {
		t.Error("unknown solver must fall back to automatic dispatch")
	}
}

// TestSweepMetrics checks the concurrency-safe sweep telemetry.
func TestSweepMetrics(t *testing.T) {
	d := wireVariant(t)
	tr := obs.New()
	sweep := Sweep{
		MuMin: -0.33, MuMax: -0.31, MuSteps: 2,
		EpsMin: 5.5, EpsMax: 5.7, EpsSteps: 2,
		LambdaTF: 5,
	}
	AnalyzeOpts(d, func(i uint32) uint32 { return i }, sweep, Options{Workers: 4, Tracer: tr})
	rep := tr.Report("sweep")
	if got := rep.Counter("opdomain/points"); got != 4 {
		t.Errorf("points counter = %d, want 4", got)
	}
}
