package gatelib

import (
	"context"
	"math"
	"testing"

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
// (where enumeration is feasible), and annealing must never find anything
// below the proven minimum.
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
		_, an := eng.Anneal(sim.DefaultAnnealConfig())
		if an < qe-1e-9 {
			t.Errorf("%s: anneal %v beats quickexact %v — exact search missed the minimum", key, an, qe)
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
