package sim

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sidb"
)

// tenDotEngine is a 10-free-dot layout, well inside ExactLimit.
func tenDotEngine() *Engine {
	l := &sidb.Layout{}
	for i := 0; i < 10; i++ {
		l.AddCell(6*(i%5), 5*(i/5), sidb.RoleNormal)
	}
	return NewEngine(l, ParamsFig5)
}

func TestSolverNamesResolve(t *testing.T) {
	names := SolverNames()
	if want := []string{"auto", "exgs", "quickexact", "quicksim"}; !slices.Equal(names, want) {
		t.Fatalf("SolverNames() = %v, want %v", names, want)
	}
	for _, n := range names {
		s, err := Lookup(n)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", n, err)
		}
		if s.Name() != n {
			t.Errorf("Lookup(%q).Name() = %q", n, s.Name())
		}
	}
	if s, err := Lookup(""); err != nil || s.Name() != "auto" {
		t.Errorf(`Lookup("") = %v, %v; want the auto dispatcher`, s, err)
	}
	_, err := Lookup("no-such-solver")
	if err == nil {
		t.Fatal("unknown solver name must be rejected")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not list %q", err, n)
		}
	}
}

func TestAutoRoutesToQuickExact(t *testing.T) {
	auto, err := Lookup("auto")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := auto.Solve(tenDotEngine(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Solver != "quickexact" || !sol.Exact {
		t.Errorf("auto on 10 free dots gave solver %q (exact %v), want quickexact", sol.Solver, sol.Exact)
	}
}

func TestAutoFallsBackToExhaustive(t *testing.T) {
	// A failing QuickExact (here a panicking shard worker) must degrade to
	// enumeration with the same ground-state energy, not to QuickSim.
	e := tenDotEngine()
	_, want := exhaustive(t, e)
	if err := faults.Arm("quickexact.shard.panic=always", 1); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()
	sol, err := autoSolver{}.Solve(e, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Solver != "exgs" || !sol.Exact || sol.EnergyEV != want {
		t.Errorf("fallback solve = %s exact=%v E=%v, want exgs E=%v", sol.Solver, sol.Exact, sol.EnergyEV, want)
	}
}
