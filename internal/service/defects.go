package service

import (
	"context"
	"fmt"

	"repro/internal/defects"
	"repro/internal/defects/sweep"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/sim"
)

// defectsSpec is the optional "defects" field shared by /v1/flow,
// /v1/simulate, and /v1/gates/validate. It names a surface either
// explicitly (List, cell coordinates) or generatively (Seed + Densities
// over a Width×Height cell region). The materialized surface — not the
// spec — participates in cache keys, so an explicit list and a generated
// spec that produce the same defects share cache entries, while any
// defect-bearing request can never collide with its pristine twin.
type defectsSpec struct {
	// List places defects explicitly: [{"x","y","type"}, ...].
	List *defects.Surface `json:"list,omitempty"`
	// Seed + Densities generate a random surface over a Width×Height cell
	// region anchored at the origin. Densities maps type names to expected
	// defects per 100 nm².
	Seed      int64              `json:"seed,omitempty"`
	Densities map[string]float64 `json:"densities,omitempty"`
	Width     int                `json:"width,omitempty"`
	Height    int                `json:"height,omitempty"`
}

// surface materializes the spec. A nil spec is the pristine surface.
func (ds *defectsSpec) surface() (*defects.Surface, error) {
	if ds == nil {
		return nil, nil
	}
	if !ds.List.Empty() && len(ds.Densities) > 0 {
		return nil, fmt.Errorf("defects: list and densities are mutually exclusive")
	}
	if !ds.List.Empty() {
		return ds.List, nil
	}
	if len(ds.Densities) == 0 {
		return nil, nil
	}
	if ds.Width <= 0 || ds.Height <= 0 {
		return nil, fmt.Errorf("defects: densities require a positive width and height (cells)")
	}
	d, err := defects.ParseDensities(ds.Densities)
	if err != nil {
		return nil, err
	}
	region := lattice.Box{MinX: 0, MinY: 0, MaxX: ds.Width - 1, MaxY: ds.Height - 1}
	return defects.Generate(ds.Seed, region, d), nil
}

// ---- POST /v1/defects/sweep ----

// Bounds keeping one sweep job from monopolizing the service: a sweep
// evaluates len(densities) × |library| × seeds gates.
const (
	maxSweepDensities = 8
	maxSweepSeeds     = 8
)

type sweepRequest struct {
	// Densities are total defect densities per 100 nm² (at most 8).
	Densities []float64 `json:"densities"`
	// Seeds is the number of random surfaces per (density, gate)
	// (default 2, at most 8).
	Seeds int `json:"seeds,omitempty"`
	// Seed is the base random seed.
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds the in-job evaluation pool (default 2).
	Workers   int    `json:"workers,omitempty"`
	Solver    string `json:"solver,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	Async     bool   `json:"async,omitempty"`
}

// prepareSweep validates a defect-sweep request and packages it as a
// preparedOp. Sweeps are uncached (every run re-evaluates; the canonical
// experiment artifact is cmd/defectsweep's BENCH_defects.json).
func (s *Server) prepareSweep(req *sweepRequest) (*preparedOp, error) {
	if len(req.Densities) == 0 {
		return nil, fmt.Errorf("densities is required")
	}
	if len(req.Densities) > maxSweepDensities {
		return nil, fmt.Errorf("at most %d densities per sweep", maxSweepDensities)
	}
	for _, d := range req.Densities {
		if d < 0 {
			return nil, fmt.Errorf("negative density %v", d)
		}
	}
	seeds := req.Seeds
	if seeds <= 0 {
		seeds = 2
	}
	if seeds > maxSweepSeeds {
		return nil, fmt.Errorf("at most %d seeds per sweep", maxSweepSeeds)
	}
	workers := req.Workers
	if workers <= 0 {
		workers = 2
	}
	if workers > 4 {
		workers = 4
	}
	cfg := sweep.Config{
		Densities: req.Densities,
		Seeds:     seeds,
		Seed:      req.Seed,
		Workers:   workers,
		Solver:    req.Solver,
	}
	if _, err := sim.Lookup(cfg.Solver); err != nil {
		return nil, err
	}
	op := &preparedOp{kind: "sweep", timeoutMS: req.TimeoutMS, async: req.Async, span: "defect_sweep",
		attrs: []obs.Attr{{Key: "densities", Value: len(cfg.Densities)}, {Key: "seeds", Value: cfg.Seeds}}}
	op.compute = func(ctx context.Context, jtr *obs.Tracer) (*jobResult, []byte, error) {
		res, err := sweep.Run(ctx, cfg)
		if err != nil {
			return nil, nil, err
		}
		jr, err := jsonResult(res)
		return jr, nil, err
	}
	return op, nil
}
