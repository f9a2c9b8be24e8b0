package gatelib

import (
	"context"
	"math"
	"math/bits"
	"testing"

	"repro/internal/lattice"
	"repro/internal/sidb"
	"repro/internal/sim"
)

// freeDots counts the non-perturber dots of a layout.
func freeDots(l *sidb.Layout) int {
	n := 0
	for _, d := range l.Dots {
		if d.Role != sidb.RolePerturber {
			n++
		}
	}
	return n
}

// TestEnginesAgreeOnLibraryTiles is the golden cross-check of the three
// ground-state engines: for every tile design of the Bestagon library, the
// pruned exact search must reproduce the blind-enumeration energy exactly
// (where enumeration is feasible), and QuickSim must reach the proven
// minimum.
func TestEnginesAgreeOnLibraryTiles(t *testing.T) {
	lib := NewLibrary()
	for key, d := range lib.designs {
		l := d.Layout(0, 0)
		eng := sim.NewEngine(l, sim.ParamsFig5)
		free := freeDots(l)

		gs, qe, st, err := eng.QuickExact(sim.QuickExactOptions{})
		if err != nil {
			t.Errorf("%s: quickexact failed: %v", key, err)
			continue
		}
		if !eng.PopulationStable(gs) {
			t.Errorf("%s: quickexact ground state not population stable", key)
		}
		if free <= sim.ExactLimit {
			_, ex, err := eng.Exhaustive(context.Background())
			if err != nil {
				t.Errorf("%s: exhaustive failed on %d free dots: %v", key, free, err)
				continue
			}
			if math.Abs(qe-ex) > 1e-9 {
				t.Errorf("%s: quickexact %v != exhaustive %v (stats %+v)", key, qe, ex, st)
			}
		}
		_, qs, err := eng.QuickSim(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(qs-qe) > 1e-9 {
			t.Errorf("%s: quicksim %v, quickexact %v", key, qs, qe)
		}
	}
}

// TestValidateSolversAgree cross-checks full tile validation (with I/O
// emulation perturbers, all input patterns) between the enumerating and the
// pruned exact solver: identical outputs and verdicts everywhere ExGS is
// feasible.
func TestValidateSolversAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("full-library solver cross-validation is slow")
	}
	lib := NewLibrary()
	for _, key := range validatedVariants {
		d, ok := lib.designs[key]
		if !ok {
			t.Errorf("%s: design missing from library", key)
			continue
		}
		if freeDots(d.Layout(0, 0)) > sim.ExactLimit {
			continue
		}
		truth := TruthOf(lib.funcs[key])
		ex, err := ValidateWith(d, truth, sim.ParamsFig5, ValidateOptions{Solver: "exgs"})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		qe, err := ValidateWith(d, truth, sim.ParamsFig5, ValidateOptions{Solver: "quickexact"})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if ex.OK != qe.OK {
			t.Errorf("%s: verdicts disagree: exgs ok=%v, quickexact ok=%v", key, ex.OK, qe.OK)
		}
		for p := range ex.Outputs {
			if ex.Outputs[p] != qe.Outputs[p] {
				t.Errorf("%s: pattern %d: exgs output %d != quickexact output %d",
					key, p, ex.Outputs[p], qe.Outputs[p])
			}
		}
		if ex.Method != "exgs" || qe.Method != "quickexact" {
			t.Errorf("%s: methods %q/%q, want exgs/quickexact", key, ex.Method, qe.Method)
		}
	}
}

// TestUnknownSolverRejected ensures explicit solver selection fails loudly.
func TestUnknownSolverRejected(t *testing.T) {
	lib := NewLibrary()
	var d *Design
	for _, dd := range lib.designs {
		d = dd
		break
	}
	_, err := ValidateWith(d, func(uint32) uint32 { return 0 }, sim.ParamsFig5,
		ValidateOptions{Solver: "no-such-solver"})
	if err == nil {
		t.Fatal("unknown solver name must be rejected")
	}
}

// enumeratedGap is the degeneracy gap by blind enumeration: one Gray-code
// walk over the free dots keeps the ground state and, per key of the
// interest dots, the lowest energy seen; the gap is the lowest energy of
// any other key minus the ground energy.
func enumeratedGap(e *sim.Engine, interest []int) float64 {
	freeIdx := e.FreeIndices()
	cur := make([]bool, e.NumDots())
	for i := range cur {
		cur[i] = e.IsFixed(i)
	}
	// key is the interest key of cur; flipping free dot freeIdx[b]
	// toggles the key bits in flip[b].
	key := 0
	flip := make([]int, len(freeIdx))
	for b, i := range interest {
		if cur[i] {
			key |= 1 << b
		}
		for f, j := range freeIdx {
			if j == i {
				flip[f] |= 1 << b
			}
		}
	}
	keyMin := make([]float64, 1<<len(interest))
	for k := range keyMin {
		keyMin[k] = math.Inf(1)
	}
	curE := e.Energy(cur)
	groundE, groundKey := curE, key
	keyMin[key] = curE
	for k := uint64(1); k < 1<<len(freeIdx); k++ {
		f := bits.TrailingZeros64(k)
		i := freeIdx[f]
		delta := e.Params.MuMinus + e.LocalPotential(cur, i)
		if cur[i] {
			delta = -delta
		}
		curE += delta
		cur[i] = !cur[i]
		key ^= flip[f]
		keyMin[key] = min(keyMin[key], curE)
		if curE < groundE-1e-15 {
			groundE, groundKey = curE, key
		}
	}
	other := math.Inf(1)
	for k, m := range keyMin {
		if k != groundKey {
			other = min(other, m)
		}
	}
	return other - groundE
}

// TestDegeneracyGapMatchesEnumeration checks the pinned-search degeneracy
// gap against blind enumeration on the library's own validation layouts:
// every input pattern of every variant with at most 18 free dots (the
// fan-out tiles give 2-output, 16-key interest sets) and one 22-dot XNOR
// pattern at the exact-gap limit.
func TestDegeneracyGapMatchesEnumeration(t *testing.T) {
	lib := NewLibrary()
	var twoOutputs, limit bool // the coverage the test promises
	for _, key := range lib.Variants() {
		d := lib.designs[key]
		for p := 0; p < 1<<len(d.Ins); p++ {
			l := patternLayout(d, p)
			xnor := key == "xnor:iNW:iNE:oSE" && p == 1
			if freeDots(l) > 18 && !xnor {
				continue
			}
			eng := sim.NewEngine(l, sim.ParamsFig5)
			idx := l.SiteIndex()
			var interest []int
			for _, out := range d.Outs {
				b := out.BDL()
				interest = append(interest, idx[b.Bit0], idx[b.Bit1])
			}
			got, ground, err := eng.DegeneracyGap(context.Background(), interest, nil)
			if err != nil {
				t.Fatalf("%s pattern %d: %v", key, p, err)
			}
			if want := enumeratedGap(eng, interest); got != want && !(math.Abs(got-want) <= 1e-9) {
				t.Errorf("%s pattern %d: gap %v, enumeration %v", key, p, got, want)
			}
			// ValidateWith reads the outputs from the gap's ground key when
			// the gap sets it apart: they must be the unpinned search's.
			gs, _, _, err := eng.QuickExact(sim.QuickExactOptions{})
			if err != nil {
				t.Fatalf("%s pattern %d: %v", key, p, err)
			}
			if got > degenerateGapEV && !sameOutputs(d, idx, ground, gs) {
				t.Errorf("%s pattern %d: gap's ground key reads other outputs than QuickExact", key, p)
			}
			twoOutputs = twoOutputs || len(d.Outs) == 2
			limit = limit || xnor && freeDots(l) == sim.ExactLimit
		}
	}
	if !twoOutputs || !limit {
		t.Errorf("coverage: 2-output layout %v, %d-dot xnor pattern %v", twoOutputs, sim.ExactLimit, limit)
	}
}

// sameOutputs reports whether two configurations read the same state (or
// the same error) on every output pair of the design.
func sameOutputs(d *Design, idx map[lattice.Site]int, a, b []bool) bool {
	for _, out := range d.Outs {
		sa, ea := out.BDL().State(idx, a)
		sb, eb := out.BDL().State(idx, b)
		if sa != sb || (ea == nil) != (eb == nil) {
			return false
		}
	}
	return true
}
