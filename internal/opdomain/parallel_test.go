package opdomain

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// TestParallelMatchesSerial pins down the sweep's determinism guarantee:
// the same grid evaluated by one worker (GOMAXPROCS 1) and by many workers
// must produce byte-identical points in the same row-major order.
func TestParallelMatchesSerial(t *testing.T) {
	d := wireVariant(t)
	truth := func(i uint32) uint32 { return i }
	sweep := Sweep{
		MuMin: -0.34, MuMax: -0.28, MuSteps: 4,
		EpsMin: 5.2, EpsMax: 6.0, EpsSteps: 3,
		LambdaTF: 5,
	}
	analyze := func(procs int) *Domain {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		dom, err := AnalyzeOpts(d, truth, sweep, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return dom
	}
	serial := analyze(1)
	for _, procs := range []int{2, 4, 8} {
		if par := analyze(procs); !reflect.DeepEqual(serial.Points, par.Points) {
			t.Errorf("GOMAXPROCS=%d: points differ from serial evaluation", procs)
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
	auto, err := AnalyzeOpts(d, truth, sweep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qe, err := AnalyzeOpts(d, truth, sweep, Options{Solver: "quickexact"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(auto.Points, qe.Points) {
		t.Error("quickexact sweep disagrees with automatic dispatch")
	}
	if !qe.Points[0].Operational {
		t.Error("wire must operate at its calibration point under quickexact")
	}
	// An unknown solver name is an error, not a silent switch to
	// automatic dispatch.
	if bogus, err := AnalyzeOpts(d, truth, sweep, Options{Solver: "no-such-solver"}); err == nil {
		t.Errorf("unknown solver accepted (%d points)", len(bogus.Points))
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
	if _, err := AnalyzeOpts(d, func(i uint32) uint32 { return i }, sweep, Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	rep := tr.Report("sweep")
	if got := rep.Counter("opdomain/points"); got != 4 {
		t.Errorf("points counter = %d, want 4", got)
	}
}

// TestPointPanicReachesCaller arms the opdomain.point.panic fault point:
// every worker panics before its first point, and AnalyzeOpts must
// re-raise the panic on the caller's goroutine (a panic left on a worker
// would kill the test binary) instead of hanging the feeder.
func TestPointPanicReachesCaller(t *testing.T) {
	d := wireVariant(t)
	sweep := Sweep{
		MuMin: -0.33, MuMax: -0.31, MuSteps: 3,
		EpsMin: 5.5, EpsMax: 5.7, EpsSteps: 3,
		LambdaTF: 5,
	}
	if err := faults.Arm("opdomain.point.panic=always", 1); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()
	r := func() (r any) {
		defer func() { r = recover() }()
		_, _ = AnalyzeOpts(d, func(i uint32) uint32 { return i }, sweep, Options{})
		return nil
	}()
	if r != "injected fault: opdomain.point.panic" {
		t.Fatalf("recovered %v, want the injected fault", r)
	}
}
