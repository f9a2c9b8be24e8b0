package sim

import (
	"context"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// DefaultDegradeMargin is the budget Degrading reserves for its anneal
// fallback when no explicit margin is configured. It is calibrated
// against the default deterministic anneal schedule on library-tile-sized
// instances (tens of free dots anneal in well under 100ms); the margin
// adds headroom for scheduling jitter and larger layouts.
const DefaultDegradeMargin = 250 * time.Millisecond

// Degrading wraps a ground-state solver with a deadline-aware degradation
// ladder: when the remaining context budget is too small for the exact
// engine — or the exact engine itself runs out of budget mid-search — the
// solve is retried with simulated annealing on the remaining time instead
// of surfacing a deadline error. The ladder turns "504 with all work
// thrown away" into "200 with a best-effort result marked degraded:true".
//
// Mechanically, the inner solver runs under a sub-deadline that reserves
// Margin of the caller's budget; if it fails while the caller's context is
// still alive, the annealer runs on what remains and the solution is
// marked Degraded (never cached, see cache.Tiers). When the
// remaining budget is already below Margin the exact attempt is skipped
// outright. An inner annealer is returned unwrapped — there is no cheaper
// rung to fall to.
type Degrading struct {
	Inner GroundStateSolver
	// Margin is the budget reserved for the anneal fallback (default
	// DefaultDegradeMargin).
	Margin time.Duration
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
	if d.Inner.Name() == "anneal" {
		return d.Inner.Solve(e, opts)
	}
	ctx := opts.Context()
	if err := ctx.Err(); err != nil {
		return Solution{}, err // no budget at all: fail honestly
	}
	margin := d.Margin
	if margin <= 0 {
		margin = DefaultDegradeMargin
	}

	// The fault point models an exact engine hitting its deadline, so
	// chaos tests can drive the ladder without real timeout storms.
	skipExact := faults.Should("sim.solve.exact")
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) <= margin {
		skipExact = true // budget already below the fallback reserve
	}

	if !skipExact {
		innerOpts := opts
		var cancel context.CancelFunc = func() {}
		if deadline, ok := ctx.Deadline(); ok {
			innerOpts.Ctx, cancel = context.WithDeadline(ctx, deadline.Add(-margin))
		}
		sol, err := d.Inner.Solve(e, innerOpts)
		cancel()
		if err == nil {
			return sol, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return Solution{}, cerr // whole budget gone: nothing to degrade to
		}
		// Inner failed with budget left (sub-deadline expiry, node budget,
		// injected fault): fall through to the anneal rung.
	}

	d.Tracer.Counter(obs.Labeled("sim/degraded_total", "from", d.Inner.Name(), "to", "anneal")).Inc()

	cfg := DefaultAnnealConfig()
	cfg.Ctx = ctx
	cfg.Tracer = opts.Tracer
	gs, en := e.Anneal(cfg)
	// Unlike the plain anneal backend, a deadline expiring mid-anneal
	// still yields the best configuration found so far: the ladder's
	// whole point is a usable answer instead of a timeout.
	d.Tracer.Counter("sim/anneal/solves").Inc()
	return Solution{Charges: gs, EnergyEV: en, Solver: "anneal", Exact: false, Degraded: true}, nil
}
