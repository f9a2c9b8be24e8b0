package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestSweepDeterministicAcrossWorkers: the same config must produce the
// same table whether evaluated serially or by a parallel pool (run under
// -race this also exercises the pool for data races).
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-library sweeps; skipped in -short")
	}
	base := Config{Densities: []float64{0.5}, Seeds: 1, Seed: 7, Solver: "quickexact"}

	serialCfg := base
	serialCfg.Workers = 1
	serial, err := Run(context.Background(), serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := base
	parCfg.Workers = 8
	par, err := Run(context.Background(), parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("parallel sweep differs from serial sweep")
	}
	if serial.Gates == 0 || len(serial.Points) != 1 {
		t.Fatalf("degenerate result: %+v", serial)
	}
	pt := serial.Points[0]
	if pt.OK+pt.Blocked+pt.Failed != serial.Gates*base.Seeds {
		t.Fatalf("tally %d+%d+%d does not cover %d gates x %d seeds",
			pt.OK, pt.Blocked, pt.Failed, serial.Gates, base.Seeds)
	}
}

// TestSweepYieldDecays: a pristine sweep yields 1.0 and a heavily
// defective surface must break at least some gates.
func TestSweepYieldDecays(t *testing.T) {
	if testing.Short() {
		t.Skip("full-library sweep; skipped in -short")
	}
	res, err := Run(context.Background(), Config{
		Densities: []float64{0, 10},
		Seeds:     1,
		Seed:      3,
		Solver:    "quickexact",
	})
	if err != nil {
		t.Fatal(err)
	}
	clean, dirty := res.Points[0], res.Points[1]
	if clean.Yield != 1.0 {
		t.Fatalf("pristine yield = %v, want 1.0", clean.Yield)
	}
	if dirty.Yield >= clean.Yield {
		t.Fatalf("yield did not decay: density 10 yield %v", dirty.Yield)
	}
	if dirty.Blocked == 0 {
		t.Fatal("no gate was classified defect_blocked at density 10")
	}
	if dirty.Failed != 0 {
		t.Fatalf("%d failures not attributed to defects (library gates pass pristine)", dirty.Failed)
	}
}

// TestSweepCancellation: cancelling mid-sweep must return the context
// error promptly and leave no leaked worker goroutines behind.
func TestSweepCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// A sweep big enough not to finish before the cancel lands.
		_, err := Run(ctx, Config{
			Densities: []float64{0.1, 0.5, 1, 2, 4, 8},
			Seeds:     20,
			Workers:   4,
			Solver:    "quickexact",
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not stop after cancellation")
	}
	// Give pool goroutines a beat to exit, then check for leaks.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("leaked goroutines: %d before, %d after", before, runtime.NumGoroutine())
}

// TestScaleMix: the mix normalizes to the requested total density.
func TestScaleMix(t *testing.T) {
	scaled := scaleMix(DefaultMix(), 2.0)
	var total float64
	for _, v := range scaled {
		total += v
	}
	if diff := total - 2.0; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("scaled mix totals %v, want 2.0", total)
	}
	if len(scaleMix(DefaultMix(), 0)) != 0 {
		t.Fatal("zero density produced a non-empty mix")
	}
}
