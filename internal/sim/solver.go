package sim

import (
	"context"
	"fmt"

	"repro/internal/obs"
)

// Solution is the outcome of a ground-state solve: a charge configuration
// (indexed like the layout's dots) and its total energy.
type Solution struct {
	Charges  []bool
	EnergyEV float64
	// Solver names the backend that produced the solution ("exgs",
	// "quickexact", "quicksim").
	Solver string
	// Exact reports whether the energy is provably minimal.
	Exact bool
	// Degraded reports that the requested backend could not finish within
	// its budget and a cheaper engine produced this solution instead (see
	// Degrading). Degraded solutions are never cached.
	Degraded bool
}

// SolveOptions carries per-call settings into a solver. The tracer is used
// for concurrency-safe metrics only (counters, gauges, histograms) — never
// spans — so solvers may safely run from parallel workers sharing one
// tracer (spans nest on a single implicit stack and are not meant for
// concurrent regions).
type SolveOptions struct {
	Tracer *obs.Tracer
	// Ctx interrupts the solve when cancelled or past its deadline; the
	// solver returns the context's error instead of burning CPU to
	// completion. Nil behaves like context.Background.
	Ctx context.Context
}

// Context returns the options' context, defaulting to context.Background.
func (o SolveOptions) Context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// GroundStateSolver is a ground-state search backend. Implementations must
// be safe for concurrent use by multiple goroutines and deterministic for a
// fixed engine and options.
type GroundStateSolver interface {
	// Name is the solver's Lookup name ("exgs", "quickexact", "quicksim",
	// "auto").
	Name() string
	// IsExact reports whether the solver proves minimality of its result.
	IsExact() bool
	// Solve finds a ground state of the engine's layout.
	Solve(e *Engine, opts SolveOptions) (Solution, error)
}

// solverNames is the fixed solver table Lookup resolves, sorted.
var solverNames = []string{"auto", "exgs", "quickexact", "quicksim"}

// quickExact is the "quickexact" solver. Its node budget keeps it from
// hanging on a pathological instance; direct QuickExact calls choose their
// own budget.
var quickExact = quickExactSolver{opts: QuickExactOptions{NodeBudget: DefaultNodeBudget}}

// Lookup resolves a solver name; "" and "auto" yield the automatic
// dispatcher.
func Lookup(name string) (GroundStateSolver, error) {
	switch name {
	case "", "auto":
		return autoSolver{}, nil
	case "exgs":
		return exgsSolver{}, nil
	case "quickexact":
		return quickExact, nil
	case "quicksim":
		return quickSimSolver{}, nil
	}
	return nil, fmt.Errorf("sim: unknown ground-state solver %q (have %v)", name, solverNames)
}

// SolverNames lists the names Lookup resolves, sorted.
func SolverNames() []string { return append([]string(nil), solverNames...) }

// exgsSolver is the brute-force exhaustive backend (SiQAD's ExGS).
type exgsSolver struct{}

func (exgsSolver) Name() string  { return "exgs" }
func (exgsSolver) IsExact() bool { return true }

func (exgsSolver) Solve(e *Engine, opts SolveOptions) (Solution, error) {
	gs, en, err := e.Exhaustive(opts.Context())
	if err != nil {
		return Solution{}, err
	}
	opts.Tracer.Counter("sim/exgs/solves").Inc()
	return Solution{Charges: gs, EnergyEV: en, Solver: "exgs", Exact: true}, nil
}

// autoSolver is the automatic dispatcher: QuickExact up to ExactLimit
// free dots, exhaustive enumeration when QuickExact fails there, and
// QuickSim beyond ExactLimit. The pruned engine comfortably solves 30+
// free dots — select "quickexact" explicitly to verify larger layouts
// exactly. Exact results above the boundary can differ from QuickSim's:
// the heuristic may settle in a population-stable metastable state above
// the true ground state.
type autoSolver struct{}

func (autoSolver) Name() string  { return "auto" }
func (autoSolver) IsExact() bool { return false }

func (autoSolver) Solve(e *Engine, opts SolveOptions) (Solution, error) {
	if len(e.FreeIndices()) > ExactLimit {
		return quickSimSolver{}.Solve(e, opts)
	}
	if sol, err := quickExact.Solve(e, opts); err == nil {
		return sol, nil
	}
	// A QuickExact failure (an exhausted node budget, a shard panic)
	// falls back to enumeration.
	return exgsSolver{}.Solve(e, opts)
}
