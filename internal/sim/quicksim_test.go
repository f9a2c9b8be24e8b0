package sim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/pool"
	"repro/internal/sidb"
)

// solveQuickSim runs QuickSim without a deadline, failing the test on error.
func solveQuickSim(t testing.TB, e *Engine) ([]bool, float64) {
	t.Helper()
	gs, en, err := e.QuickSim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return gs, en
}

func TestQuickSimMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 6; trial++ {
		l := &sidb.Layout{}
		seen := map[[2]int]bool{}
		for i := 0; i < 12; i++ {
			for {
				x, y := rng.Intn(40), rng.Intn(40)
				if !seen[[2]int{x, y}] {
					seen[[2]int{x, y}] = true
					l.AddCell(x, y, sidb.RoleNormal)
					break
				}
			}
		}
		e := NewEngine(l, ParamsFig5)
		_, exact := exhaustive(t, e)
		if _, en := solveQuickSim(t, e); en > exact+1e-9 {
			t.Errorf("trial %d: quicksim %v worse than exact %v", trial, en, exact)
		}
	}
}

// TestQuickSimMatchesQuickExact: on random 20–40-dot layouts (six seeds
// per size) QuickSim reaches QuickExact's energy bit for bit wherever
// QuickExact finishes within DefaultNodeBudget. With -short only the 20–30
// dot layouts run.
func TestQuickSimMatchesQuickExact(t *testing.T) {
	sizes := []int{20, 25, 30, 35, 40}
	if testing.Short() {
		sizes = sizes[:3]
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 6; seed++ {
			e := NewEngine(benchLayout(n, seed, n*7/5), ParamsFig5)
			_, want, _, err := e.QuickExact(QuickExactOptions{NodeBudget: DefaultNodeBudget})
			if err != nil {
				continue
			}
			if _, got := solveQuickSim(t, e); got != want {
				t.Errorf("%d dots, seed %d: quicksim %v, quickexact %v", n, seed, got, want)
			}
		}
	}
}

func TestQuickSimDeterministic(t *testing.T) {
	l := &sidb.Layout{}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 15; i++ {
		l.AddCell(rng.Intn(50), rng.Intn(50), sidb.RoleNormal)
	}
	e := NewEngine(l, ParamsFig5)
	g1, e1 := solveQuickSim(t, e)
	g2, e2 := solveQuickSim(t, e)
	if math.Float64bits(e1) != math.Float64bits(e2) || !slices.Equal(g1, g2) {
		t.Errorf("runs differ: %v %v, %v %v", g1, e1, g2, e2)
	}
}

// TestQuickSimConcurrent runs QuickSim on one shared Engine from four
// goroutines at once: every run must return the serial run's charges and
// energy, so QuickSim keeps no state on the Engine.
func TestQuickSimConcurrent(t *testing.T) {
	l := &sidb.Layout{}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 30; i++ {
		role := sidb.RoleNormal
		if i%6 == 0 {
			role = sidb.RolePerturber
		}
		l.AddCell(rng.Intn(50), rng.Intn(50), role)
	}
	e := NewEngine(l, ParamsFig5)
	want, wantE := solveQuickSim(t, e)
	_ = pool.Run(context.Background(), 4, 4, "", func(_, _ int) {
		got, gotE := solveQuickSim(t, e)
		if gotE != wantE || !slices.Equal(got, want) {
			t.Errorf("concurrent run %v %v, serial %v %v", got, gotE, want, wantE)
		}
	})
}

// TestQuickSimCanceled: a done context stops QuickSim, which returns the
// context's error with a configuration over all dots (the pinned dots
// alone when no start ran); the quicksim solver returns the error alone.
func TestQuickSimCanceled(t *testing.T) {
	l := benchLayout(30, 7, 48)
	l.AddCell(60, 60, sidb.RolePerturber)
	e := NewEngine(l, ParamsFig5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gs, en, err := e.QuickSim(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QuickSim on a cancelled context: err %v", err)
	}
	if len(gs) != e.NumDots() || !gs[30] || en != e.Energy(gs) {
		t.Errorf("QuickSim on a cancelled context returned %v, %v", gs, en)
	}
	if _, err := (quickSimSolver{}).Solve(e, SolveOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("quicksim solver on a cancelled context: err %v", err)
	}
}

// TestQuickSimAllocs pins the allocations of a solve on the 20-dot
// benchmark layout at GOMAXPROCS 1: the shared problem, one walk, and one
// registry key per visited state (75 on this layout).
func TestQuickSimAllocs(t *testing.T) {
	e := NewEngine(benchLayout(20, 7, 40), ParamsFig5)
	const maxAllocs = 80
	if allocs := testing.AllocsPerRun(20, func() { solveQuickSim(t, e) }); allocs > maxAllocs {
		t.Errorf("QuickSim on 20 dots allocates %v times, want at most %d", allocs, maxAllocs)
	}
}

// TestQuickSimParallelAllocs: the visited states, and so the registry's
// allocations, are the same at any worker count, and each pool worker
// allocates one walk, so two workers allocate one walk more than one,
// plus the pool's second goroutine (a few allocations of slack).
// testing.AllocsPerRun pins GOMAXPROCS to 1 (one worker), so the
// two-worker run is counted by hand.
func TestQuickSimParallelAllocs(t *testing.T) {
	e := NewEngine(benchLayout(50, 7, 64), ParamsFig5)
	one := testing.AllocsPerRun(5, func() { solveQuickSim(t, e) })
	walk := testing.AllocsPerRun(5, func() { e.newQuickSim().newWalk() }) -
		testing.AllocsPerRun(5, func() { e.newQuickSim() })
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if two := mallocsPerRun(5, func() { solveQuickSim(t, e) }); two > one+walk+4 {
		t.Errorf("QuickSim on 2 workers allocates %v times, on 1 %v (one walk: %v)", two, one, walk)
	}
}

// mallocsPerRun is testing.AllocsPerRun at the caller's GOMAXPROCS: the
// mean heap allocation count of f over runs calls, after one warm-up.
func mallocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestQuickSimNeighbours: each free dot's hop targets are its
// hopNeighbours nearest free dots, nearest first, pinned dots excluded.
func TestQuickSimNeighbours(t *testing.T) {
	l := &sidb.Layout{}
	for i := 0; i < 12; i++ {
		role := sidb.RoleNormal
		if i == 3 {
			role = sidb.RolePerturber
		}
		l.AddCell(i*i, 0, role) // no two pairs at the same distance
	}
	e := NewEngine(l, ParamsFig5)
	p := e.newQuickSim()
	if p.k != hopNeighbours {
		t.Fatalf("k = %d, want %d", p.k, hopNeighbours)
	}
	// Dot i sits at cell i² on a line; dot 3 is pinned.
	for a, i := range p.free {
		var got []int
		for _, b := range p.near[a*p.k : (a+1)*p.k] {
			got = append(got, p.free[b])
		}
		want := slices.DeleteFunc(slices.Clone(p.free), func(j int) bool { return j == i })
		slices.SortStableFunc(want, func(x, y int) int { return abs(x*x-i*i) - abs(y*y-i*i) })
		if want = want[:p.k]; !slices.Equal(got, want) {
			t.Errorf("dot %d hops to %v, want %v", i, got, want)
		}
	}
}

func abs(x int) int { return max(x, -x) }
