package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/sidb"
)

// degradeTestEngine builds a small layout whose exact ground state is
// cheap, so tests control timing through contexts rather than size.
func degradeTestEngine() *Engine {
	l := &sidb.Layout{Name: "degrade-test"}
	for i := 0; i < 6; i++ {
		l.Add(lattice.FromCell(i*4, 0), sidb.RoleNormal)
	}
	return NewEngine(l, ParamsFig5)
}

// failingSolver always errors (standing in for an exact engine that ran
// out of budget) without consuming the context.
type failingSolver struct{}

func (failingSolver) Name() string  { return "failing" }
func (failingSolver) IsExact() bool { return true }
func (failingSolver) Solve(e *Engine, opts SolveOptions) (Solution, error) {
	return Solution{}, errors.New("simulated budget exhaustion")
}

func TestDegradingPassesThroughSuccess(t *testing.T) {
	e := degradeTestEngine()
	d := &Degrading{Inner: exgsSolver{}}
	sol, err := d.Solve(e, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Degraded || sol.Solver != "exgs" || !sol.Exact {
		t.Fatalf("undegraded solve came back %+v", sol)
	}
	if d.Name() != "exgs" {
		t.Fatalf("Name() = %q; the wrapper must not change cache identity", d.Name())
	}
}

func TestDegradingFallsBackOnInnerFailure(t *testing.T) {
	e := degradeTestEngine()
	tr := obs.New()
	d := &Degrading{Inner: failingSolver{}, Tracer: tr}
	sol, err := d.Solve(e, SolveOptions{})
	if err != nil {
		t.Fatalf("ladder should have degraded, not failed: %v", err)
	}
	if !sol.Degraded || sol.Solver != "quicksim" || sol.Exact {
		t.Fatalf("expected degraded quicksim solution, got %+v", sol)
	}
	if tr.Counter(obs.Labeled("sim/degraded_total", "from", "failing", "to", "quicksim")).Value() != 1 {
		t.Fatal("sim_degraded_total{from,to} not recorded")
	}
}

func TestDegradingSkipsExactWhenBudgetBelowMargin(t *testing.T) {
	e := degradeTestEngine()
	// Remaining budget is below the margin: the exact engine must not
	// even start; QuickSim answers within the budget.
	ctx, cancel := context.WithTimeout(context.Background(), DefaultDegradeMargin/2)
	defer cancel()
	d := &Degrading{Inner: neverSolver{}}
	sol, err := d.Solve(e, SolveOptions{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Degraded || sol.Solver != "quicksim" {
		t.Fatalf("expected pre-emptive degrade, got %+v", sol)
	}
}

// TestDegradingDeadlineDuringFallback: a deadline that expires while
// QuickSim runs still yields a degraded solution over every dot, never a
// timeout.
func TestDegradingDeadlineDuringFallback(t *testing.T) {
	e := NewEngine(benchLayout(200, 1, 133), ParamsFig5)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	d := &Degrading{Inner: neverSolver{}}
	sol, err := d.Solve(e, SolveOptions{Ctx: ctx})
	if err != nil {
		t.Fatalf("an expiring deadline must degrade, not fail: %v", err)
	}
	if !sol.Degraded || sol.Solver != "quicksim" || len(sol.Charges) != e.NumDots() {
		t.Fatalf("expected a degraded quicksim solution, got %+v", sol)
	}
}

// neverSolver fails the test if its Solve is reached.
type neverSolver struct{}

func (neverSolver) Name() string  { return "never" }
func (neverSolver) IsExact() bool { return true }
func (neverSolver) Solve(e *Engine, opts SolveOptions) (Solution, error) {
	panic("exact engine invoked despite budget below margin")
}

func TestDegradingHonorsExpiredContext(t *testing.T) {
	e := degradeTestEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := &Degrading{Inner: exgsSolver{}}
	if _, err := d.Solve(e, SolveOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired context should fail honestly, got %v", err)
	}
}

func TestDegradingUnwrapsQuickSim(t *testing.T) {
	e := degradeTestEngine()
	d := &Degrading{Inner: quickSimSolver{}}
	sol, err := d.Solve(e, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Degraded {
		t.Fatal("QuickSim by request is not a degrade")
	}
}

func TestDegradingFaultPointForcesLadder(t *testing.T) {
	if err := faults.Arm("sim.solve.exact=always", 1); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()
	e := degradeTestEngine()
	d := &Degrading{Inner: neverSolver{}}
	sol, err := d.Solve(e, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Degraded {
		t.Fatal("armed sim.solve.exact fault should force the QuickSim rung")
	}
}
