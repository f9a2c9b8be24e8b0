package sim

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/pool"
	"repro/internal/sidb"
)

// exhaustive runs Exhaustive without a deadline, failing the test on error.
func exhaustive(t testing.TB, e *Engine) ([]bool, float64) {
	t.Helper()
	gs, en, err := e.Exhaustive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return gs, en
}

func TestPotentialValues(t *testing.T) {
	p := ParamsFig5
	// V(d) = 1.4399645/5.6 * exp(-d/5)/d
	cases := map[float64]float64{
		1.0: 1.4399645 / 5.6 * math.Exp(-0.2),
		2.0: 1.4399645 / 5.6 * math.Exp(-0.4) / 2,
	}
	for d, want := range cases {
		if got := p.Potential(d); math.Abs(got-want) > 1e-12 {
			t.Errorf("V(%v) = %v, want %v", d, got, want)
		}
	}
	if !math.IsInf(p.Potential(0), 1) {
		t.Error("V(0) must be +inf")
	}
	if p.Potential(1) <= p.Potential(2) {
		t.Error("potential must decrease with distance")
	}
}

func TestIsolatedDotCharges(t *testing.T) {
	l := &sidb.Layout{}
	l.AddCell(0, 0, sidb.RoleNormal)
	e := NewEngine(l, ParamsFig5)
	gs, energy := exhaustive(t, e)
	if !gs[0] {
		t.Error("isolated DB must be negatively charged (mu < 0)")
	}
	if math.Abs(energy-ParamsFig5.MuMinus) > 1e-12 {
		t.Errorf("energy = %v, want mu", energy)
	}
}

func TestClosePairSharesOneElectron(t *testing.T) {
	// Two dots 0.86 nm apart: V ≈ 0.25 < |mu|=0.32... both charge;
	// at 0.45 nm: V ≈ 0.53 > 0.32: one electron.
	l := &sidb.Layout{}
	l.AddCell(0, 0, sidb.RoleNormal)
	l.AddCell(1, 2, sidb.RoleNormal) // 0.86 nm
	e := NewEngine(l, ParamsFig5)
	gs, _ := exhaustive(t, e)
	if !gs[0] || !gs[1] {
		t.Error("0.86 nm pair should doubly charge in isolation at mu=-0.32")
	}

	l2 := &sidb.Layout{}
	l2.AddCell(0, 0, sidb.RoleNormal)
	l2.AddCell(1, 1, sidb.RoleNormal) // 0.445 nm
	e2 := NewEngine(l2, ParamsFig5)
	gs2, _ := exhaustive(t, e2)
	if gs2[0] == gs2[1] {
		t.Errorf("0.445 nm pair must hold exactly one electron, got %v", gs2)
	}
}

func TestPerturberPinned(t *testing.T) {
	l := &sidb.Layout{}
	l.AddCell(0, 0, sidb.RolePerturber)
	l.AddCell(1, 1, sidb.RolePerturber)
	e := NewEngine(l, ParamsFig5)
	gs, _ := exhaustive(t, e)
	if !gs[0] || !gs[1] {
		t.Error("perturbers must stay charged regardless of energy")
	}
}

func TestEnergyConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := &sidb.Layout{}
	for i := 0; i < 10; i++ {
		l.AddCell(rng.Intn(40), rng.Intn(40), sidb.RoleNormal)
	}
	e := NewEngine(l, ParamsFig5)
	// flipDelta must match full recomputation.
	cfg := make([]bool, 10)
	for i := range cfg {
		cfg[i] = rng.Intn(2) == 1
	}
	base := e.Energy(cfg)
	for i := 0; i < 10; i++ {
		delta := e.flipDelta(cfg, i)
		cfg[i] = !cfg[i]
		if got := e.Energy(cfg); math.Abs(got-(base+delta)) > 1e-9 {
			t.Fatalf("flipDelta inconsistent at %d: %v vs %v", i, got, base+delta)
		}
		cfg[i] = !cfg[i]
	}
}

func TestExhaustiveIsMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		l := &sidb.Layout{}
		n := 3 + rng.Intn(8)
		seen := map[[2]int]bool{}
		for i := 0; i < n; i++ {
			for {
				x, y := rng.Intn(30), rng.Intn(30)
				if !seen[[2]int{x, y}] {
					seen[[2]int{x, y}] = true
					l.AddCell(x, y, sidb.RoleNormal)
					break
				}
			}
		}
		e := NewEngine(l, ParamsFig5)
		_, bestE := exhaustive(t, e)
		// Compare against brute-force enumeration with direct Energy calls.
		min := math.Inf(1)
		cfg := make([]bool, n)
		for mask := 0; mask < 1<<n; mask++ {
			for i := range cfg {
				cfg[i] = mask>>i&1 == 1
			}
			if v := e.Energy(cfg); v < min {
				min = v
			}
		}
		if math.Abs(bestE-min) > 1e-9 {
			t.Fatalf("trial %d: exhaustive %v != brute force %v", trial, bestE, min)
		}
	}
}

func TestGroundStateIsPopulationStable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		l := &sidb.Layout{}
		seen := map[[2]int]bool{}
		for i := 0; i < 8; i++ {
			for {
				x, y := rng.Intn(25), rng.Intn(25)
				if !seen[[2]int{x, y}] {
					seen[[2]int{x, y}] = true
					l.AddCell(x, y, sidb.RoleNormal)
					break
				}
			}
		}
		e := NewEngine(l, ParamsFig5)
		gs, _ := exhaustive(t, e)
		if !e.PopulationStable(gs) {
			t.Fatalf("trial %d: ground state not population stable", trial)
		}
	}
}

func TestAnnealMatchesExhaustive(t *testing.T) {
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
		_, annealed := e.Anneal(DefaultAnnealConfig())
		if annealed > exact+1e-9 {
			t.Errorf("trial %d: anneal %v worse than exact %v", trial, annealed, exact)
		}
	}
}

func TestAnnealDeterministic(t *testing.T) {
	l := &sidb.Layout{}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 15; i++ {
		l.AddCell(rng.Intn(50), rng.Intn(50), sidb.RoleNormal)
	}
	e := NewEngine(l, ParamsFig5)
	cfg := DefaultAnnealConfig()
	g1, e1 := e.Anneal(cfg)
	g2, e2 := e.Anneal(cfg)
	if e1 != e2 {
		t.Error("anneal must be deterministic for a fixed seed")
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Error("anneal configurations differ between runs")
			break
		}
	}
}

func TestGroundStateAutoSelect(t *testing.T) {
	l := &sidb.Layout{}
	for i := 0; i < 5; i++ {
		l.AddCell(i*6, 0, sidb.RoleNormal)
	}
	e := NewEngine(l, ParamsFig5)
	gs, energy := e.GroundState()
	_, exact := exhaustive(t, e)
	if math.Abs(energy-exact) > 1e-12 {
		t.Error("auto ground state must match exhaustive for small instances")
	}
	if len(gs) != 5 {
		t.Error("wrong configuration size")
	}
}

func TestDegeneracyGap(t *testing.T) {
	// Two isolated dots far apart; interest = dot 0. Ground: both charged.
	// Best config differing on dot 0: dot 0 neutral: gap = |mu| - v where v
	// is tiny.
	l := &sidb.Layout{}
	l.AddCell(0, 0, sidb.RoleNormal)
	l.AddCell(100, 0, sidb.RoleNormal)
	e := NewEngine(l, ParamsFig5)
	gap, ground, err := e.DegeneracyGap(context.Background(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if gap < 0.3 || gap > 0.33 {
		t.Errorf("gap = %v, want ~|mu|", gap)
	}
	if !slices.Equal(ground, []bool{true, true}) {
		t.Errorf("ground = %v, want both dots charged", ground)
	}
}

func TestFig1cParams(t *testing.T) {
	if ParamsFig1c.MuMinus != -0.28 || ParamsFig1c.EpsR != 5.6 || ParamsFig1c.LambdaTF != 5 {
		t.Error("Fig 1c parameters wrong")
	}
	if ParamsFig5.MuMinus != -0.32 {
		t.Error("Fig 5 parameters wrong")
	}
}

// TestAnnealConcurrent anneals one shared Engine from four goroutines at
// once: every run must return the serial run's charges and energy, so the
// annealer keeps no state on the Engine.
func TestAnnealConcurrent(t *testing.T) {
	l := &sidb.Layout{}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 18; i++ {
		role := sidb.RoleNormal
		if i%6 == 0 {
			role = sidb.RolePerturber
		}
		l.AddCell(rng.Intn(40), rng.Intn(40), role)
	}
	e := NewEngine(l, ParamsFig5)
	cfg := DefaultAnnealConfig()
	cfg.Restarts = 2
	want, wantE := e.Anneal(cfg)
	_ = pool.Run(context.Background(), 4, 4, "", func(_, _ int) {
		got, gotE := e.Anneal(cfg)
		if gotE != wantE {
			t.Errorf("concurrent energy %v, serial %v", gotE, wantE)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("concurrent charges differ from serial at dot %d", i)
				return
			}
		}
	})
}

// TestAnnealAllocs: restarts reuse the call's RNG and state vectors, so
// the allocations of an anneal do not grow with the restart count.
func TestAnnealAllocs(t *testing.T) {
	l := &sidb.Layout{}
	for i := 0; i < 12; i++ {
		l.AddCell(i*3, i%2*4, sidb.RoleNormal)
	}
	e := NewEngine(l, ParamsFig5)
	allocs := func(restarts int) float64 {
		cfg := DefaultAnnealConfig()
		cfg.Restarts, cfg.Sweeps = restarts, 20
		return testing.AllocsPerRun(20, func() { e.Anneal(cfg) })
	}
	if one, eight := allocs(1), allocs(8); eight > one {
		t.Errorf("anneal allocates %v times with 8 restarts, %v with 1", eight, one)
	}
}

// TestAnnealParallelAllocs: each pool worker allocates one walker and
// sizes its log buffers once for the call, so with two workers the
// allocations of an anneal grow with the worker count, not the restart
// count. testing.AllocsPerRun pins GOMAXPROCS to 1 (one worker), so the
// allocations are counted by hand. At 4 restarts a worker that starts
// late may run none and allocate no walker, hence one walker of slack.
func TestAnnealParallelAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e := NewEngine(benchLayout(24, 7, 44), ParamsFig5)
	allocs := func(restarts int) float64 {
		cfg := DefaultAnnealConfig()
		cfg.Restarts, cfg.Sweeps = restarts, 400
		return mallocsPerRun(5, func() { e.Anneal(cfg) })
	}
	walker := testing.AllocsPerRun(5, func() { newAnnealWalker(e.NumDots(), 16) })
	if four, sixteen := allocs(4), allocs(16); sixteen > four+walker {
		t.Errorf("anneal on 2 workers allocates %v times with 16 restarts, %v with 4 (one walker: %v)", sixteen, four, walker)
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
