// Package core implements the complete Bestagon physical design flow of
// §4.2 of the paper: from a logic-level specification to a dot-accurate,
// formally verified SiDB layout.
//
// The eight flow steps:
//
//	(1) parse the specification as an XAG,
//	(2) cut-based logic rewriting with an exact NPN database,
//	(3) technology mapping into the Bestagon gate set,
//	(4) exact (SAT-based) or scalable physical design on the hexagonal,
//	    row-clocked floor plan,
//	(5) SAT-based equivalence checking of network vs. layout,
//	(6) super-tile merging by clock-zone expansion,
//	(7) application of the Bestagon library to obtain the SiDB layout, and
//	(8) SiQAD design-file generation.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clocking"
	"repro/internal/defects"
	"repro/internal/gatelayout"
	"repro/internal/gatelib"
	"repro/internal/logic/bench"
	"repro/internal/logic/mapping"
	"repro/internal/logic/network"
	"repro/internal/logic/rewrite"
	"repro/internal/obs"
	"repro/internal/pnr"
	"repro/internal/sidb"
	"repro/internal/sim"
	"repro/internal/sqd"
	"repro/internal/verify"
)

// Engine selects the physical design algorithm of flow step (4).
type Engine int

// Physical design engines.
const (
	// EngineAuto tries exact physical design first and falls back to the
	// scalable router when the SAT search exceeds its budget.
	EngineAuto Engine = iota
	// EngineExact uses SAT-based minimal-area placement & routing [46].
	EngineExact
	// EngineOrtho uses the scalable greedy fabric router.
	EngineOrtho
)

// ParseEngine maps an engine name ("", "auto", "exact" or "ortho") to its
// Engine.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", "auto":
		return EngineAuto, nil
	case "exact":
		return EngineExact, nil
	case "ortho":
		return EngineOrtho, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want auto, exact, or ortho)", name)
}

// Options configures a flow run.
type Options struct {
	// Engine selects the physical design algorithm (default EngineAuto).
	Engine Engine
	// SkipRewrite disables flow step (2).
	SkipRewrite bool
	// Rewrite tunes the rewriting step.
	Rewrite rewrite.Options
	// Exact tunes the exact physical design engine.
	Exact pnr.ExactOptions
	// SkipCellLevel stops after verification, without applying the gate
	// library (useful for gate-level studies).
	SkipCellLevel bool
	// Surface holds the surface defects in global cell coordinates. When
	// non-empty, both P&R engines place around afflicted tiles (the exact
	// engine blocks them in the SAT encoding, the ortho router slides its
	// result clear during legalization). Nil assumes a pristine surface.
	Surface *defects.Surface
	// Tracer receives flow-wide telemetry (stage spans, engine metrics);
	// nil disables instrumentation with zero overhead.
	Tracer *obs.Tracer
	// DegradeMargin is the budget the degradation ladder reserves for its
	// cheaper fallback engine when the run has a deadline: the exact P&R
	// engine runs under (deadline − margin) so that, on expiry, the ortho
	// router still has time to produce a best-effort result marked
	// Degraded instead of a timeout (default sim.DefaultDegradeMargin; the
	// margin does not enter cache keys because degraded results are never
	// cached).
	DegradeMargin time.Duration
}

// Result collects every artifact of a flow run.
type Result struct {
	Spec      *network.XAG
	Rewritten *network.XAG
	Mapped    *mapping.Net
	Graph     *pnr.RGraph
	Layout    *gatelayout.Layout
	// EngineUsed reports which physical design engine produced the layout.
	EngineUsed string
	// Verification is the SAT equivalence-check outcome (flow step 5).
	Verification verify.Result
	// SuperTiles is the clock-zone expansion plan (flow step 6).
	SuperTiles clocking.SuperTile
	// CellLayout is the dot-accurate SiDB layout (flow step 7); nil when
	// SkipCellLevel is set.
	CellLayout *sidb.Layout
	// SiDBs counts the dangling bonds of the cell-level layout.
	SiDBs int
	// AreaNM2 is the Table 1 layout area.
	AreaNM2 float64
	// Degraded reports that deadline pressure forced the exact P&R engine
	// onto the ortho router. The result is usable but not the quality the
	// options asked for; callers that cache artifacts must not cache
	// degraded ones.
	Degraded bool
}

// Run executes the flow on a specification network.
func Run(spec *network.XAG, opts Options) (*Result, error) {
	return RunContext(context.Background(), spec, opts)
}

// RunContext executes the flow under a context. Cancellation (or a
// deadline) propagates into every compute-heavy stage — the SAT searches
// of exact physical design and verification and the ortho router's row
// loop — so an abandoned run stops burning CPU mid-stage instead of
// running to completion. A nil context behaves like context.Background.
func RunContext(ctx context.Context, spec *network.XAG, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{Spec: spec}
	tr := opts.Tracer
	root := tr.Start("flow")
	defer root.End()
	// Attribute the run to the HTTP request that caused it (the service
	// layer tags the context in its middleware), so a slow span in a
	// job trace can be matched against the request logs.
	if id := obs.RequestIDFromContext(ctx); id != "" {
		root.SetAttr("request_id", id)
	}

	if err := ctx.Err(); err != nil {
		return res, err
	}

	// (2) logic rewriting.
	sp := tr.Start("rewrite")
	if opts.SkipRewrite {
		res.Rewritten = spec.Cleanup()
	} else {
		rw, err := rewrite.RewriteContext(ctx, spec, opts.Rewrite)
		if err != nil {
			sp.End()
			return res, fmt.Errorf("core: rewriting: %w", err)
		}
		res.Rewritten = rw
	}
	sp.SetAttr("gates", res.Rewritten.NumGates())
	sp.End()

	// (3) technology mapping.
	sp = tr.Start("mapping")
	m, err := mapping.Map(res.Rewritten)
	sp.End()
	if err != nil {
		return res, fmt.Errorf("core: mapping: %w", err)
	}
	res.Mapped = m

	// (4) physical design.
	sp = tr.Start("expand")
	g, err := pnr.Expand(m)
	sp.End()
	if err != nil {
		return res, fmt.Errorf("core: expansion: %w", err)
	}
	res.Graph = g
	ex := opts.Exact
	ex.Tracer = tr
	// Defect-aware placement: both engines consume the afflicted-tile
	// predicate derived from the surface (nil when pristine — zero cost).
	blocker := gatelib.TileBlocker(opts.Surface)
	if ex.Blocked == nil {
		ex.Blocked = blocker
	}
	sp = tr.Start("pnr")
	var layout *gatelayout.Layout
	switch opts.Engine {
	case EngineOrtho:
		layout, err = pnr.Ortho(ctx, g, tr, blocker)
		res.EngineUsed = "ortho"
	case EngineExact:
		layout, err = pnr.Exact(ctx, g, ex)
		res.EngineUsed = "exact"
	default:
		// The auto engine is a degradation ladder: exact SAT-based P&R
		// first, the scalable ortho router as fallback. With a deadline,
		// the exact attempt runs under (deadline − margin) so the router
		// still has budget when SAT exhausts its share; a fallback forced
		// by deadline pressure (rather than an exceeded SAT node budget)
		// marks the result Degraded.
		exactCtx, cancel, skipExact := sim.Reserve(ctx, opts.DegradeMargin)
		deadlinePressure := skipExact
		if !skipExact {
			layout, err = pnr.Exact(exactCtx, g, ex)
			res.EngineUsed = "exact"
			deadlinePressure = err != nil && exactCtx.Err() != nil
		}
		cancel()
		if (skipExact || err != nil) && ctx.Err() == nil {
			layout, err = pnr.Ortho(ctx, g, tr, blocker)
			res.EngineUsed = "ortho"
			if err == nil && deadlinePressure {
				res.Degraded = true
				tr.Counter(obs.Labeled("flow/degraded_total", "from", "exact", "to", "ortho")).Inc()
			}
		}
	}
	sp.SetAttr("engine", res.EngineUsed)
	sp.End()
	if err != nil {
		return res, fmt.Errorf("core: physical design: %w", err)
	}
	res.Layout = layout
	root.SetAttr("engine", res.EngineUsed)

	// Defect DRC: no used tile may be afflicted. The exact encoding
	// guarantees this and ortho legalizes for it; the assertion catches
	// any future engine that forgets the blocker.
	if blocker != nil {
		for _, at := range layout.Tiles() {
			if blocker(at) {
				return res, fmt.Errorf("core: placed tile %v is afflicted by a surface defect: %w",
					at, defects.ErrBlocked)
			}
		}
	}

	// Design rule check under the super-tile plan (flow step 6).
	sp = tr.Start("drc")
	res.SuperTiles = clocking.PlanSuperTiles(clocking.MinMetalPitchNM)
	v := layout.Check(&res.SuperTiles)
	sp.End()
	if len(v) != 0 {
		return res, fmt.Errorf("core: %d design-rule violations, first: %v", len(v), v[0])
	}

	// (5) formal verification.
	sp = tr.Start("verify")
	eq, err := verify.EquivalentLayoutContext(ctx, spec, layout)
	if err == nil {
		sp.SetAttr("conflicts", eq.Metrics.Conflicts)
		tr.Counter("sat/conflicts").Add(eq.Metrics.Conflicts)
		tr.Counter("sat/decisions").Add(eq.Metrics.Decisions)
		tr.Counter("sat/propagations").Add(eq.Metrics.Propagations)
		tr.Counter("sat/restarts").Add(eq.Metrics.Restarts)
		tr.Counter("sat/learned").Add(eq.Metrics.Learned)
	}
	sp.End()
	if err != nil {
		return res, fmt.Errorf("core: verification: %w", err)
	}
	res.Verification = eq
	if !eq.Equivalent {
		return res, fmt.Errorf("core: layout is NOT equivalent to the specification (cex %b)", eq.Counterexample)
	}

	res.AreaNM2 = gatelib.AreaNM2(layout.Width(), layout.Height())
	tr.Gauge("flow/area_nm2").Set(res.AreaNM2)
	root.SetAttr("area_nm2", res.AreaNM2)

	// (7) gate library application.
	if !opts.SkipCellLevel {
		cell, err := gatelib.Apply(gatelib.NewLibrary(), layout, tr)
		if err != nil {
			return res, fmt.Errorf("core: library application: %w", err)
		}
		res.CellLayout = cell
		res.SiDBs = cell.NumDots()
		tr.Gauge("flow/sidbs").Set(float64(res.SiDBs))
		root.SetAttr("sidbs", res.SiDBs)
	}
	return res, nil
}

// RunBenchmark loads a named Table 1 benchmark and runs the flow.
func RunBenchmark(name string, opts Options) (*Result, error) {
	return RunBenchmarkContext(context.Background(), name, opts)
}

// RunBenchmarkContext is RunBenchmark under a context (see RunContext).
func RunBenchmarkContext(ctx context.Context, name string, opts Options) (*Result, error) {
	x, err := bench.Load(name)
	if err != nil {
		return nil, err
	}
	return RunContext(ctx, x, opts)
}

// ExportSQD renders the cell-level layout as a SiQAD design file (flow
// step 8).
func (r *Result) ExportSQD() (string, error) {
	if r.CellLayout == nil {
		return "", fmt.Errorf("core: no cell-level layout (SkipCellLevel?)")
	}
	return sqd.WriteString(r.CellLayout)
}

// Summary renders a one-line Table 1 style row: name, dimensions, area.
func (r *Result) Summary() string {
	l := r.Layout
	return fmt.Sprintf("%-14s %2dx%-2d =%3d  %5d SiDBs  %10.2f nm2  [%s]",
		r.Spec.Name, l.Width(), l.Height(), l.Area(), r.SiDBs, r.AreaNM2, r.EngineUsed)
}
