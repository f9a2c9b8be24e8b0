package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/defects"
	"repro/internal/sidb"
)

// pairLayout is two isolated dots far enough apart to both charge.
func pairLayout() *sidb.Layout {
	l := &sidb.Layout{Name: "pair"}
	l.AddCell(0, 0, sidb.RoleNormal)
	l.AddCell(30, 0, sidb.RoleNormal)
	return l
}

// TestEngineOnPristineIdentity: NewEngineOn with a nil or empty surface
// must reproduce NewEngine bit for bit.
func TestEngineOnPristineIdentity(t *testing.T) {
	l := pairLayout()
	a := NewEngine(l, ParamsFig5)
	b := NewEngineOn(l, ParamsFig5, nil)
	c := NewEngineOn(l, ParamsFig5, defects.New())
	for _, e := range []*Engine{b, c} {
		if e.NumDots() != a.NumDots() || e.NumLayoutDots() != a.NumDots() {
			t.Fatalf("dot counts differ: %d/%d vs %d", e.NumDots(), e.NumLayoutDots(), a.NumDots())
		}
		ga, ea := exhaustive(t, a)
		gb, eb := exhaustive(t, e)
		if ea != eb {
			t.Fatalf("pristine energies differ: %v vs %v", ea, eb)
		}
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("pristine ground states differ at dot %d", i)
			}
		}
	}
}

// TestChargedDefectPerturbs: a negative defect near a dot raises that
// dot's cost of charging; a positive defect lowers it. The free-dot count
// must not grow.
func TestChargedDefectPerturbs(t *testing.T) {
	l := pairLayout()
	pristine := NewEngine(l, ParamsFig5)
	_, e0 := exhaustive(t, pristine)

	neg := defects.New()
	neg.AddCell(4, 0, defects.DB) // -1, ~1.5 nm from dot 0
	en := NewEngineOn(l, ParamsFig5, neg)
	if len(en.FreeIndices()) != len(pristine.FreeIndices()) {
		t.Fatalf("defect changed free-dot count: %d vs %d",
			len(en.FreeIndices()), len(pristine.FreeIndices()))
	}
	if en.NumDots() != 3 || en.NumLayoutDots() != 2 {
		t.Fatalf("pseudo-dot bookkeeping wrong: %d/%d", en.NumDots(), en.NumLayoutDots())
	}
	gn, eNeg := exhaustive(t, en)
	// DB- defect repels electrons: interaction with a charged dot is
	// positive, so V[dot][pseudo] > 0.
	if en.V[0][2] <= 0 {
		t.Fatalf("negative defect attractive: V=%v", en.V[0][2])
	}
	if !gn[2] {
		t.Fatal("defect pseudo-dot not pinned charged")
	}
	if eNeg == e0 {
		t.Fatal("charged defect did not change the ground-state energy")
	}

	pos := defects.New()
	pos.AddCell(4, 0, defects.Arsenic) // +1
	ep := NewEngineOn(l, ParamsFig5, pos)
	if ep.V[0][2] >= 0 {
		t.Fatalf("positive defect repulsive: V=%v", ep.V[0][2])
	}
	if ep.scale[2] != -1 || ep.scale[0] != 1 {
		t.Fatalf("charge scales wrong: %v %v", ep.scale[2], ep.scale[0])
	}

	// Neutral defects carry no field: identical energies, but the surface
	// is retained for cache identity.
	neutral := defects.New()
	neutral.AddCell(4, 0, defects.Siloxane)
	enn := NewEngineOn(l, ParamsFig5, neutral)
	_, eNeutral := exhaustive(t, enn)
	if eNeutral != e0 {
		t.Fatalf("neutral defect changed energy: %v vs %v", eNeutral, e0)
	}
	if enn.Surface().Empty() {
		t.Fatal("neutral surface dropped from engine")
	}
}

// TestDefectSolverAgreement: exhaustive, QuickSim and the auto solver
// must agree on the defective ground state.
func TestDefectSolverAgreement(t *testing.T) {
	l := &sidb.Layout{Name: "chain"}
	for i := 0; i < 5; i++ {
		l.AddCell(7*i, 0, sidb.RoleNormal)
	}
	surf := defects.New()
	surf.AddCell(17, 2, defects.DB)
	surf.AddCell(3, -4, defects.Arsenic)
	e := NewEngineOn(l, ParamsFig5, surf)

	gx, ex, err := e.Exhaustive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, eq, err := e.QuickSim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eq-ex) > 1e-9 {
		t.Fatalf("quicksim %v vs exhaustive %v", eq, ex)
	}
	sol, err := Auto().Solve(e, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.EnergyEV-ex) > 1e-9 {
		t.Fatalf("auto solver %v vs exhaustive %v", sol.EnergyEV, ex)
	}
	for i := e.NumLayoutDots(); i < e.NumDots(); i++ {
		if !gx[i] || !sol.Charges[i] {
			t.Fatalf("pseudo-dot %d not charged in solution", i)
		}
	}
	if !e.PopulationStable(gx) {
		t.Fatal("defective ground state not population stable")
	}
}
