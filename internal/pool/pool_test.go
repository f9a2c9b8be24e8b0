package pool

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// runCaught calls Run and returns whatever it panicked with and its
// error. It fails the test if Run does not return within 30 s, which is
// how a deadlocked feeder shows.
func runCaught(t *testing.T, ctx context.Context, n, workers int, fault string, fn func(w, i int)) (any, error) {
	t.Helper()
	type outcome struct {
		err error
		r   any
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			o.r = recover()
			done <- o
		}()
		o.err = Run(ctx, n, workers, fault, fn)
	}()
	select {
	case o := <-done:
		return o.r, o.err
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return")
		return nil, nil
	}
}

func TestSize(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ n, workers, want int }{
		{10, 3, 3},
		{2, 8, 2},
		{5, 1, 1},
		{0, 4, 1},
		{0, 0, 1},
		{1000, 0, min(procs, 1000)},
		{1000, -3, min(procs, 1000)},
		{math.MaxInt, 0, procs},
	} {
		if got := Size(c.n, c.workers); got != c.want {
			t.Errorf("Size(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// TestEveryIndexOnce: each index runs exactly once, w stays below Size,
// and no two items of one w overlap, so per-worker state needs no lock.
func TestEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 0} {
		const n = 1000
		size := Size(n, workers)
		runs := make([]atomic.Int32, n)
		busy := make([]atomic.Bool, size)
		r, err := runCaught(t, context.Background(), n, workers, "", func(w, i int) {
			if w < 0 || w >= size {
				t.Errorf("workers=%d: w = %d outside [0, %d)", workers, w, size)
				return
			}
			if !busy[w].CompareAndSwap(false, true) {
				t.Errorf("workers=%d: two items overlap on w = %d", workers, w)
			}
			runs[i].Add(1)
			busy[w].Store(false)
		})
		if err != nil || r != nil {
			t.Fatalf("workers=%d: Run = %v, panic %v", workers, err, r)
		}
		for i := range runs {
			if c := runs[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestPanicReachesCaller: one panicking item among many stops neither the
// feeder nor the other workers (with one worker, only the panicking
// worker's drain keeps the feeder going); Run re-raises the panic on the
// caller.
func TestPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 2} {
		r, err := runCaught(t, context.Background(), 1000, workers, "", func(_, i int) {
			if i == 10 {
				panic("boom")
			}
		})
		if r != "boom" {
			t.Fatalf("workers=%d: recovered %v (err %v), want the item's panic", workers, r, err)
		}
	}
}

// TestFaultPointOncePerWorker: an always-firing fault point is consulted
// once by each of the Size workers, and not at all when n == 0.
func TestFaultPointOncePerWorker(t *testing.T) {
	const point = "pool.test.panic"
	if err := faults.Arm(point+"=always", 1); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()

	ran := false
	r, err := runCaught(t, context.Background(), 0, 3, point, func(_, _ int) { ran = true })
	if err != nil || r != nil || ran {
		t.Fatalf("n=0: Run = %v, panic %v, item ran %v", err, r, ran)
	}
	if got := faults.Counts()[point]; got != 0 {
		t.Fatalf("n=0 fired the fault point %d times", got)
	}

	var items atomic.Int32
	r, _ = runCaught(t, context.Background(), 100, 3, point, func(_, _ int) { items.Add(1) })
	if r != "injected fault: "+point {
		t.Fatalf("recovered %v, want the injected fault", r)
	}
	if got := faults.Counts()[point]; got != 3 {
		t.Errorf("fault point fired %d times, want once per worker (3)", got)
	}
	if got := items.Load(); got != 0 {
		t.Errorf("%d items ran after every worker's fault fired", got)
	}

	// Three workers make three calls, so a point armed for the fourth
	// call never fires, however many items there are.
	if err := faults.Arm(point+"=n:4", 1); err != nil {
		t.Fatal(err)
	}
	items.Store(0)
	r, err = runCaught(t, context.Background(), 100, 3, point, func(_, _ int) { items.Add(1) })
	if err != nil || r != nil || items.Load() != 100 {
		t.Fatalf("n:4 trigger: Run = %v, panic %v, %d of 100 items ran", err, r, items.Load())
	}
}

// TestCancelStopsItems: a done ctx starts no item and Run returns its
// error; cancelling mid-run starts no item after the cancelling one.
func TestCancelStopsItems(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var items atomic.Int32
	r, err := runCaught(t, ctx, 100, 4, "", func(_, _ int) { items.Add(1) })
	if !errors.Is(err, context.Canceled) || r != nil {
		t.Fatalf("Run = %v, panic %v, want context.Canceled", err, r)
	}
	if got := items.Load(); got != 0 {
		t.Errorf("%d items ran on a cancelled ctx", got)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	last := -1
	r, err = runCaught(t, ctx, 100, 1, "", func(_, i int) {
		last = i
		if i == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) || r != nil {
		t.Fatalf("Run = %v, panic %v, want context.Canceled", err, r)
	}
	if last != 5 {
		t.Errorf("last item %d, want 5 (the one that cancelled)", last)
	}
}
