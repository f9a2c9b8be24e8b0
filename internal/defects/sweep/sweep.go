// Package sweep runs the defect yield experiment: random defect surfaces
// at increasing densities, validated against the full gate library (and
// optionally the whole design flow), yielding a yield-vs-density table.
// It is shared by cmd/defectsweep (which writes BENCH_defects.json) and
// the service's POST /v1/defects/sweep job kind.
package sweep

import (
	"context"
	"errors"
	"sort"

	"repro/internal/core"
	"repro/internal/defects"
	"repro/internal/gatelib"
	"repro/internal/lattice"
	"repro/internal/logic/bench"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sim"
)

// speciesMix is the relative abundance of each defect species, loosely
// after the incidence ranking reported by arXiv 2311.12042: stray DBs and
// neutral dimer defects dominate, charged dopants and vacancies are rare.
// The weights are normalized before use, so only ratios matter.
func speciesMix() defects.Densities {
	return defects.Densities{
		defects.DB:              4,
		defects.Siloxane:        2,
		defects.DihydridePair:   2,
		defects.SingleDihydride: 1,
		defects.EtchedDimer:     0.5,
		defects.Arsenic:         0.25,
		defects.Vacancy:         0.25,
	}
}

// scaleMix normalizes mix to unit total weight and scales it to the given
// total density (defects per 100 nm²).
func scaleMix(mix defects.Densities, density float64) defects.Densities {
	var total float64
	for _, w := range mix {
		total += w
	}
	out := defects.Densities{}
	if total <= 0 || density <= 0 {
		return out
	}
	for t, w := range mix {
		out[t] = density * w / total
	}
	return out
}

// flowRegionTiles is the edge length, in tiles, of the square region
// defects are sampled over for flow subjects.
const flowRegionTiles = 8

// Config tunes a yield sweep.
type Config struct {
	// Densities are the total defect densities to sample, in defects per
	// 100 nm² of surface.
	Densities []float64
	// Seeds is the number of random surfaces per (density, subject)
	// (default 5).
	Seeds int
	// Seed is the base random seed; every (density, subject, trial) derives
	// its own deterministic stream from it.
	Seed int64
	// Workers bounds the evaluation pool (default GOMAXPROCS).
	Workers int
	// Solver names the ground-state solver ("" = automatic dispatch).
	Solver string
	// Params are the physical parameters (zero value = the paper's Fig. 5).
	Params sim.Params
	// FlowBenches optionally adds whole-flow yield subjects: each named
	// Table 1 benchmark is run through the complete flow (ortho engine)
	// against each sampled surface.
	FlowBenches []string
	// Tracer receives sweep metrics; nil disables them.
	Tracer *obs.Tracer
}

// GateYield is one gate's outcome tally at one density.
type GateYield struct {
	Gate string `json:"gate"`
	// OK counts surfaces the gate still computed its function on; Blocked
	// counts surfaces that broke it (exclusion-zone hit or electrostatic
	// flip, FailKind "defect_blocked"); Failed counts everything else.
	OK      int     `json:"ok"`
	Blocked int     `json:"defect_blocked"`
	Failed  int     `json:"failed"`
	Yield   float64 `json:"yield"`
}

// FlowYield is one benchmark's whole-flow outcome tally at one density.
type FlowYield struct {
	Bench   string  `json:"bench"`
	OK      int     `json:"ok"`
	Blocked int     `json:"defect_blocked"`
	Failed  int     `json:"failed"`
	Yield   float64 `json:"yield"`
}

// Point is the sweep result at one density.
type Point struct {
	Density float64 `json:"density_per_100nm2"`
	Seeds   int     `json:"seeds"`
	// Yield is the fraction of (gate, surface) validations that passed.
	Yield float64 `json:"yield"`
	// MeanDefects is the mean defect count per sampled gate-tile surface.
	MeanDefects float64     `json:"mean_defects"`
	OK          int         `json:"ok"`
	Blocked     int         `json:"defect_blocked"`
	Failed      int         `json:"failed"`
	Gates       []GateYield `json:"gates"`
	Flows       []FlowYield `json:"flows,omitempty"`
}

// Result is the full yield-vs-density table. Yield is measured against a
// pristine baseline: library variants that do not validate standalone
// even on a defect-free surface (with the chosen solver and parameters)
// are excluded from the sweep and listed in SkippedGates, so a lost yield
// point always means defects, never a baseline artifact.
type Result struct {
	Solver string     `json:"solver"`
	Params sim.Params `json:"params"`
	Seeds  int        `json:"seeds"`
	// Gates counts the baseline-functional variants the yield is computed
	// over; TotalGates is the full library size.
	Gates        int      `json:"gates"`
	TotalGates   int      `json:"total_gates"`
	SkippedGates []string `json:"skipped_gates,omitempty"`
	Points       []Point  `json:"points"`
}

// outcome classifies one evaluation.
type outcome struct {
	ok      bool
	blocked bool
	defects int
}

// item is one unit of sweep work: subject si (gate index, or len(gates)+k
// for flow bench k) at density di, trial t.
type item struct{ di, si, t int }

// Run executes the sweep: a pristine baseline pass over the full library
// first, then the defect evaluations over the baseline-functional gates.
// Results are deterministic for a fixed Config regardless of scheduling.
// Both passes run on pool.Run: a done ctx returns its error promptly, and
// an evaluation's panic is re-raised on the caller's goroutine.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 5
	}
	if cfg.Params == (sim.Params{}) {
		cfg.Params = sim.ParamsFig5
	}
	if _, err := sim.Lookup(cfg.Solver); err != nil {
		return nil, err
	}

	lib := gatelib.NewLibrary()
	allKeys := lib.Variants()
	sort.Strings(allKeys)

	// Baseline: which variants validate standalone on a pristine surface?
	baselineOK := make([]bool, len(allKeys))
	err := pool.Run(ctx, len(allKeys), cfg.Workers, "defectsweep.item.panic", func(_, i int) {
		d, f, ok := lib.Design(allKeys[i])
		if !ok {
			return
		}
		v, verr := gatelib.ValidateWith(d, gatelib.TruthOf(f), cfg.Params,
			gatelib.ValidateOptions{Solver: cfg.Solver, Tracer: cfg.Tracer, Ctx: ctx})
		baselineOK[i] = verr == nil && v.OK
	})
	if err != nil {
		return nil, err
	}
	var gateKeys, skipped []string
	for i, key := range allKeys {
		if baselineOK[i] {
			gateKeys = append(gateKeys, key)
		} else {
			skipped = append(skipped, key)
		}
	}

	nSubjects := len(gateKeys) + len(cfg.FlowBenches)
	items := make([]item, 0, len(cfg.Densities)*nSubjects*cfg.Seeds)
	for di := range cfg.Densities {
		for si := 0; si < nSubjects; si++ {
			for t := 0; t < cfg.Seeds; t++ {
				items = append(items, item{di, si, t})
			}
		}
	}
	results := make([]outcome, len(items))
	err = pool.Run(ctx, len(items), cfg.Workers, "defectsweep.item.panic", func(_, i int) {
		it := items[i]
		if it.si < len(gateKeys) {
			results[i] = evalGate(ctx, cfg, lib, gateKeys[it.si], it)
		} else {
			results[i] = evalFlow(ctx, cfg, cfg.FlowBenches[it.si-len(gateKeys)], it)
		}
	})
	if err != nil {
		return nil, err
	}
	if cfg.Tracer != nil {
		cfg.Tracer.Counter("defectsweep/evaluations").Add(int64(len(allKeys) + len(items)))
	}

	res := &Result{
		Solver: cfg.Solver, Params: cfg.Params, Seeds: cfg.Seeds,
		Gates: len(gateKeys), TotalGates: len(allKeys), SkippedGates: skipped,
	}
	for di, density := range cfg.Densities {
		pt := Point{Density: density, Seeds: cfg.Seeds}
		gys := make([]GateYield, len(gateKeys))
		fys := make([]FlowYield, len(cfg.FlowBenches))
		for gi, key := range gateKeys {
			gys[gi].Gate = key
		}
		for fi, name := range cfg.FlowBenches {
			fys[fi].Bench = name
		}
		defectSum, defectN := 0, 0
		for i, it := range items {
			if it.di != di {
				continue
			}
			o := results[i]
			if it.si < len(gateKeys) {
				tally(&gys[it.si].OK, &gys[it.si].Blocked, &gys[it.si].Failed, o)
				defectSum += o.defects
				defectN++
			} else {
				f := &fys[it.si-len(gateKeys)]
				tally(&f.OK, &f.Blocked, &f.Failed, o)
			}
		}
		for gi := range gys {
			gys[gi].Yield = yieldOf(gys[gi].OK, cfg.Seeds)
			pt.OK += gys[gi].OK
			pt.Blocked += gys[gi].Blocked
			pt.Failed += gys[gi].Failed
		}
		for fi := range fys {
			fys[fi].Yield = yieldOf(fys[fi].OK, cfg.Seeds)
		}
		pt.Yield = yieldOf(pt.OK, len(gateKeys)*cfg.Seeds)
		if defectN > 0 {
			pt.MeanDefects = float64(defectSum) / float64(defectN)
		}
		pt.Gates = gys
		pt.Flows = fys
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func tally(ok, blocked, failed *int, o outcome) {
	switch {
	case o.ok:
		*ok++
	case o.blocked:
		*blocked++
	default:
		*failed++
	}
}

func yieldOf(ok, total int) float64 {
	if total <= 0 {
		return 0
	}
	return float64(ok) / float64(total)
}

// itemSeed derives the deterministic seed of one evaluation. Trials of
// the same subject at different densities get different surfaces, and the
// streams stay stable when densities or subjects are appended.
func itemSeed(base int64, it item) int64 {
	return base ^ (int64(it.di)+1)*1_000_003 ^ (int64(it.si)+1)*10_007 ^ (int64(it.t)+1)*97
}

// evalGate validates one library gate against one random surface sampled
// over its own tile.
func evalGate(ctx context.Context, cfg Config, lib *gatelib.Library, key string, it item) outcome {
	d, f, ok := lib.Design(key)
	if !ok {
		return outcome{}
	}
	region := lattice.Box{MinX: 0, MinY: 0, MaxX: gatelib.TileWidth - 1, MaxY: gatelib.TileHeight - 1}
	surf := defects.Generate(itemSeed(cfg.Seed, it), region, scaleMix(speciesMix(), cfg.Densities[it.di]))
	v, err := gatelib.ValidateWith(d, gatelib.TruthOf(f), cfg.Params,
		gatelib.ValidateOptions{Solver: cfg.Solver, Surface: surf, Tracer: cfg.Tracer, Ctx: ctx})
	if err != nil {
		return outcome{defects: surf.Len()}
	}
	return outcome{ok: v.OK, blocked: v.FailKind == gatelib.FailDefectBlocked, defects: surf.Len()}
}

// evalFlow runs one benchmark through the whole flow (ortho engine, which
// legalizes around afflicted tiles) against one random surface sampled
// over a flowRegionTiles² tile region.
func evalFlow(ctx context.Context, cfg Config, name string, it item) outcome {
	spec, err := bench.Load(name)
	if err != nil {
		return outcome{}
	}
	region := lattice.Box{MinX: 0, MinY: 0, MaxX: flowRegionTiles*gatelib.TileWidth - 1, MaxY: flowRegionTiles*gatelib.TileHeight - 1}
	surf := defects.Generate(itemSeed(cfg.Seed, it), region, scaleMix(speciesMix(), cfg.Densities[it.di]))
	_, err = core.RunContext(ctx, spec, core.Options{
		Engine:  core.EngineOrtho,
		Surface: surf,
		Tracer:  cfg.Tracer,
	})
	if err == nil {
		return outcome{ok: true, defects: surf.Len()}
	}
	return outcome{blocked: errors.Is(err, defects.ErrBlocked), defects: surf.Len()}
}
