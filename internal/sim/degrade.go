package sim

import (
	"context"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// DefaultDegradeMargin is the budget Degrading reserves for its QuickSim
// fallback, and the default of every other degradation ladder. QuickSim
// solves library-tile-sized instances in well under a millisecond and 200
// free dots in about 10 ms on two cores; the margin adds headroom for
// scheduling jitter and larger layouts.
const DefaultDegradeMargin = 250 * time.Millisecond

// Reserve is the deadline rule of every degradation ladder: the primary
// (exact) engine runs under a context whose deadline is ctx's minus
// margin (DefaultDegradeMargin when margin <= 0), so the fallback keeps
// that margin for itself. skip reports that no more than the margin
// remains, and the primary must not run at all. Without a deadline the
// primary runs under ctx. The caller must call cancel.
func Reserve(ctx context.Context, margin time.Duration) (primary context.Context, cancel context.CancelFunc, skip bool) {
	if margin <= 0 {
		margin = DefaultDegradeMargin
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}, false
	}
	if time.Until(deadline) <= margin {
		return ctx, func() {}, true
	}
	primary, cancel = context.WithDeadline(ctx, deadline.Add(-margin))
	return primary, cancel, false
}

// Degrading wraps a ground-state solver with a deadline-aware degradation
// ladder: when the remaining context budget is too small for the exact
// engine — or the exact engine itself runs out of budget mid-search — the
// solve is retried with QuickSim on the remaining time instead of
// surfacing a deadline error. The ladder turns "504 with all work
// thrown away" into "200 with a best-effort result marked degraded:true".
//
// Mechanically, the inner solver runs under a sub-deadline that reserves
// DefaultDegradeMargin of the caller's budget; if it fails while the
// caller's context is still alive, QuickSim runs on what remains and the
// solution is marked Degraded (the service never caches it). When the
// remaining budget is already below the margin the exact attempt is
// skipped outright. An inner QuickSim is returned unwrapped — there is no
// cheaper rung to fall to.
type Degrading struct {
	Inner GroundStateSolver
	// Tracer receives sim_degraded_total{from,to} counters (nil-safe).
	Tracer *obs.Tracer
}

var _ GroundStateSolver = (*Degrading)(nil)

// Name returns the inner backend's name, so cache keys are unchanged by
// the wrapper (non-degraded results are identical with or without it).
func (d *Degrading) Name() string { return d.Inner.Name() }

// IsExact reports the inner backend's exactness claim; individual
// degraded solutions carry Degraded/Exact flags of their own.
func (d *Degrading) IsExact() bool { return d.Inner.IsExact() }

// Solve runs the ladder.
func (d *Degrading) Solve(e *Engine, opts SolveOptions) (Solution, error) {
	if d.Inner.Name() == "quicksim" {
		return d.Inner.Solve(e, opts)
	}
	ctx := opts.Context()
	if err := ctx.Err(); err != nil {
		return Solution{}, err // no budget at all: fail honestly
	}
	// The fault point models an exact engine hitting its deadline, so
	// chaos tests can drive the ladder without real timeout storms.
	skipExact := faults.Should("sim.solve.exact")
	innerCtx, cancel, tooLate := Reserve(ctx, DefaultDegradeMargin)
	defer cancel()

	if !skipExact && !tooLate {
		innerOpts := opts
		innerOpts.Ctx = innerCtx
		sol, err := d.Inner.Solve(e, innerOpts)
		if err == nil {
			return sol, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return Solution{}, cerr // whole budget gone: nothing to degrade to
		}
		// Inner failed with budget left (sub-deadline expiry, node budget,
		// injected fault): fall through to the QuickSim rung.
	}

	d.Tracer.Counter(obs.Labeled("sim/degraded_total", "from", d.Inner.Name(), "to", "quicksim")).Inc()

	// Unlike the plain quicksim backend, a deadline expiring mid-solve
	// still yields the best configuration found so far: the ladder's
	// whole point is a usable answer instead of a timeout.
	gs, en, _ := e.QuickSim(ctx)
	d.Tracer.Counter("sim/quicksim/solves").Inc()
	return Solution{Charges: gs, EnergyEV: en, Solver: "quicksim", Degraded: true}, nil
}
