package obs

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
)

func TestRollingWindowQuantile(t *testing.T) {
	w := NewRollingWindow(256)
	for i := 1; i <= 100; i++ {
		w.Observe(float64(i), false)
	}
	if got := w.Snapshot().Size; got != 100 {
		t.Fatalf("Size = %d, want 100", got)
	}
	// Nearest rank over 1..100: ceil(q*100).
	for _, c := range []struct{ q, want float64 }{
		{0.50, 50}, {0.90, 90}, {0.99, 99}, {1.0, 100}, {0.001, 1},
	} {
		if got := w.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestRollingWindowQuantileEviction(t *testing.T) {
	w := NewRollingWindow(4)
	for i := 1; i <= 100; i++ {
		w.Observe(float64(i), false)
	}
	// Only 97..100 remain; the median of the survivors must ignore the 96
	// evicted observations entirely.
	if got := w.Quantile(0.5); got != 98 {
		t.Fatalf("Quantile(0.5) after eviction = %v, want 98", got)
	}
	if got := w.Snapshot().Size; got != 4 {
		t.Fatalf("Size = %d, want 4", got)
	}
}

func TestRollingWindowQuantileNilAndEmpty(t *testing.T) {
	var nilW *RollingWindow
	if got := nilW.Quantile(0.9); got != 0 {
		t.Fatalf("nil Quantile = %v, want 0", got)
	}
	if got := nilW.Snapshot().Size; got != 0 {
		t.Fatalf("nil Size = %v, want 0", got)
	}
	if got := NewRollingWindow(8).Quantile(0.9); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
}

// TestRollingWindowConcurrent drives writers and quantile readers in
// parallel; run under -race it proves the locking.
func TestRollingWindowConcurrent(t *testing.T) {
	w := NewRollingWindow(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w.Observe(float64(g*1000+i), i%7 == 0)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = w.Quantile(0.9)
				_ = w.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := w.Snapshot().Size; got != 64 {
		t.Fatalf("Size after concurrent fill = %d, want 64", got)
	}
}

// TestRollingWindowMatchesSort is the reference for the sorted shadow:
// after every Observe, Quantile and Snapshot must equal nearest-rank
// lookups in a sort.Float64s of the ring's contents. The values repeat
// (a small grid of latencies, zeros of both signs, NaN) and the ring
// wraps several times at each size.
func TestRollingWindowMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	grid := []float64{0, math.Copysign(0, -1), 0.001, 0.002, 0.0025, 0.01, 0.5, 3, math.NaN()}
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	qs := []float64{0.001, 0.25, 0.5, 0.9, 0.99, 1}
	for _, n := range []int{1, 2, 7, 64} {
		w := NewRollingWindow(n)
		var held []windowSample // reference ring, oldest first
		for step := 0; step < 5*n+13; step++ {
			s := windowSample{seconds: grid[rng.IntN(len(grid))], err: rng.IntN(4) == 0}
			if rng.IntN(3) == 0 {
				s.seconds = float64(rng.IntN(5)) / 1000
			}
			w.Observe(s.seconds, s.err)
			if held = append(held, s); len(held) > n {
				held = held[1:]
			}
			lat := make([]float64, len(held))
			errs := 0
			for i, h := range held {
				lat[i] = h.seconds
				if h.err {
					errs++
				}
			}
			sort.Float64s(lat)
			for _, q := range qs {
				if got, want := w.Quantile(q), percentile(lat, q); !same(got, want) {
					t.Fatalf("n=%d step %d: Quantile(%v) = %v, sort gives %v (%v)", n, step, q, got, want, lat)
				}
			}
			snap := w.Snapshot()
			if snap.Size != len(held) || snap.Errors != errs ||
				snap.ErrorRate != float64(errs)/float64(len(held)) ||
				!same(snap.P50, percentile(lat, 0.50)) ||
				!same(snap.P90, percentile(lat, 0.90)) ||
				!same(snap.P99, percentile(lat, 0.99)) {
				t.Fatalf("n=%d step %d: Snapshot %+v disagrees with sort %v (%d errors)", n, step, snap, lat, errs)
			}
		}
	}
}
