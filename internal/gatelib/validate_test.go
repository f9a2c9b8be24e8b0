package gatelib

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/lattice"
	"repro/internal/sim"
)

// tiedPair is a design of one output pair between two perturbers, four
// sub-rows behind its Bit0 dot and four ahead of its Bit1 dot. The layout
// is point-symmetric about the pair's centre, so the pair holds one
// electron and Bit0 and Bit1 tie in energy. Its read-out emulation site
// is its own first perturber, which patternLayout does not add twice, so
// nothing biases the read-out.
func tiedPair() *Design {
	out := Pair{X: 10, Y: 10, DX: 1}
	behind, ahead := lattice.FromCell(10, 6), lattice.FromCell(11, 16)
	return &Design{Name: "tied", Pairs: []Pair{out}, Outs: []Pair{out},
		Perturbers: []lattice.Site{behind, ahead}, OutEmu: []lattice.Site{behind}}
}

// TestValidateDegenerateFallback: when the degeneracy gap cannot tell the
// ground key apart, ValidateWith reads the outputs from the solver's own
// ground state, so its answer is that of an explicit solve followed by
// the gap.
func TestValidateDegenerateFallback(t *testing.T) {
	d := tiedPair()
	l := patternLayout(d, 0)
	if freeDots(l) != 2 || len(l.Dots) != 4 {
		t.Fatalf("tied pair layout has %d dots (%d free), want 2 free and 2 perturbers", len(l.Dots), freeDots(l))
	}
	idx := l.SiteIndex()
	b := d.Outs[0].BDL()
	interest := []int{idx[b.Bit0], idx[b.Bit1]}
	for _, name := range []string{"auto", "quickexact"} {
		solver, err := sim.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine(l, sim.ParamsFig5)
		sol, err := solver.Solve(eng, sim.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gap, ground, err := eng.DegeneracyGap(context.Background(), interest)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gap) > 1e-12 {
			t.Fatalf("%s: gap %v eV, want a tie", name, gap)
		}
		if slices.Equal(ground, sol.Charges) {
			t.Errorf("%s: gap's ground key and the solve read alike; the test no longer tells the paths apart", name)
		}
		state, err := b.State(idx, sol.Charges)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if state {
			want = 1
		}

		v, err := ValidateWith(d, func(uint32) uint32 { return 0 }, sim.ParamsFig5, ValidateOptions{Solver: name})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(v.Outputs, []int{want}) || v.Method != sol.Solver ||
			math.Float64bits(v.MinGapEV) != math.Float64bits(gap) {
			t.Errorf("%s: ValidateWith outputs %v method %s gap %v; solve then gap: [%d] %s %v",
				name, v.Outputs, v.Method, v.MinGapEV, want, sol.Solver, gap)
		}
	}
}

// TestValidateCanceled: a validation whose patterns go through the
// degeneracy gap first returns the context's error under a cancelled
// context, from either exact engine.
func TestValidateCanceled(t *testing.T) {
	lib := NewLibrary()
	d, f, _ := lib.Design("inv:iNW:oSE")
	if free := freeDots(patternLayout(d, 0)); free > sim.ExactLimit {
		t.Fatalf("inv:iNW:oSE pattern 0 has %d free dots, want at most %d", free, sim.ExactLimit)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"auto", "quickexact"} {
		_, err := ValidateWith(d, TruthOf(f), sim.ParamsFig5, ValidateOptions{Solver: name, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err %v, want context.Canceled", name, err)
		}
	}
}

// BenchmarkValidateLibrary validates all 28 library variants with the
// auto solver, as the gates-cold benchmark workload does.
func BenchmarkValidateLibrary(b *testing.B) {
	lib := NewLibrary()
	keys := lib.Variants()
	for i := 0; i < b.N; i++ {
		for _, key := range keys {
			d, f, _ := lib.Design(key)
			if _, err := ValidateWith(d, TruthOf(f), sim.ParamsFig5, ValidateOptions{Solver: "auto"}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
