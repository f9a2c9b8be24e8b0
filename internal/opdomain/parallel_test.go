package opdomain

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/faults"
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
		return Analyze(d, truth, sweep)
	}
	serial := analyze(1)
	for _, procs := range []int{2, 4, 8} {
		if par := analyze(procs); !reflect.DeepEqual(serial.Points, par.Points) {
			t.Errorf("GOMAXPROCS=%d: points differ from serial evaluation", procs)
		}
	}
}

// TestPointPanicReachesCaller arms the opdomain.point.panic fault point:
// every worker panics before its first point, and Analyze must
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
		Analyze(d, func(i uint32) uint32 { return i }, sweep)
		return nil
	}()
	if r != "injected fault: opdomain.point.panic" {
		t.Fatalf("recovered %v, want the injected fault", r)
	}
}
