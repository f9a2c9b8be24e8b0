package sim

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

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
	gap, ground, err := e.DegeneracyGap(context.Background(), []int{0}, nil)
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
