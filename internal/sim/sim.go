// Package sim implements physical simulation of SiDB charge configurations
// with three ground-state engines behind one fixed solver table (see
// Lookup): an exhaustive finder (SiQAD's ExGS equivalent), a pruned exact
// branch-and-bound (QuickExact), and a simulated-annealing finder (the
// SimAnneal engine of [30] that the paper uses to validate the Bestagon
// library).
//
// The model is the established two-state SiDB electrostatics of SiQAD:
// every dangling bond is either neutral (DB0) or negatively charged (DB-);
// charges interact through a Thomas-Fermi-screened Coulomb potential
//
//	V(d) = e²/(4πε₀εᵣ) · exp(-d/λ_TF) / d,
//
// and each charged dot contributes the (negative) transition level μ_ to
// the total energy. Positive charge states are not relevant to the
// configurations of interest (§2 of the paper).
package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/defects"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sidb"
)

// CoulombConstantEVnm is e²/(4πε₀) expressed in eV·nm.
const CoulombConstantEVnm = 1.4399645

// Params are the physical simulation parameters.
type Params struct {
	// MuMinus is the (-/0) transition level μ_ in eV (negative: isolated
	// DBs prefer the negative charge state).
	MuMinus float64
	// EpsR is the relative permittivity ε_r.
	EpsR float64
	// LambdaTF is the Thomas-Fermi screening length λ_TF in nm.
	LambdaTF float64
}

// ParamsFig1c are the parameters of the paper's Fig. 1c (Huff et al.'s OR
// gate): μ_ = -0.28 eV, ε_r = 5.6, λ_TF = 5 nm.
var ParamsFig1c = Params{MuMinus: -0.28, EpsR: 5.6, LambdaTF: 5}

// ParamsFig5 are the parameters of the paper's Fig. 5 (Bestagon gate
// validation): μ_ = -0.32 eV, ε_r = 5.6, λ_TF = 5 nm.
var ParamsFig5 = Params{MuMinus: -0.32, EpsR: 5.6, LambdaTF: 5}

// Potential returns the screened Coulomb potential between two charges at
// distance d (nm) in eV.
func (p Params) Potential(d float64) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	return CoulombConstantEVnm / p.EpsR * math.Exp(-d/p.LambdaTF) / d
}

// Engine computes energies and ground states for a fixed set of dots.
//
// Charged surface defects (see NewEngineOn) are represented as extra
// pinned pseudo-dots appended after the layout's dots, with the pairwise
// matrix V scaled by each defect's charge. Every solver — exhaustive
// enumeration, QuickExact and annealing, which all work from IsFixed, V
// and Energy — therefore sees the defect
// perturbation without any defect-specific code, and the free-dot count
// (the solve cost) is unchanged.
type Engine struct {
	Params Params
	Sites  []lattice.Site
	V      [][]float64 // pairwise interaction energies in eV
	fixed  []bool      // dots pinned to the charged state (perturbers, defects)

	// nlayout is the number of dots that came from the layout; pseudo-dots
	// for charged defects occupy indices [nlayout, len(Sites)).
	nlayout int
	// scale is the per-dot charge scale: 1 for layout dots (charge -e when
	// charged), -q for a defect of charge q·e, so V[i][j] = s_i·s_j·|V|
	// carries the correct interaction sign. Nil when the surface is
	// pristine (all scales 1).
	scale []float64
	// surface is the full defect surface (charged and neutral), kept for
	// canonical cache hashing. Nil when pristine.
	surface *defects.Surface
}

// NewEngine builds an engine for the layout. Perturber dots are pinned to
// the negative charge state, matching the paper's use of always-charged
// peripheral perturbers.
func NewEngine(l *sidb.Layout, params Params) *Engine {
	return NewEngineOn(l, params, nil)
}

// NewEngineOn builds an engine for the layout on a defective surface.
// Charged defects enter the electrostatics as fixed perturbers through
// the same screened Coulomb potential — not as free dots, so the solvers
// search the same-size configuration space as on a pristine surface. A
// positive defect (scale -q = -1) attracts nearby DB electrons; a
// negative one repels them. Neutral defects carry no field and are kept
// only for cache-key identity. A nil or empty surface reproduces
// NewEngine exactly.
func NewEngineOn(l *sidb.Layout, params Params, surf *defects.Surface) *Engine {
	nl := len(l.Dots)
	charged := surf.Charged()
	n := nl + len(charged)
	e := &Engine{
		Params:  params,
		Sites:   l.Sites(),
		V:       make([][]float64, n),
		fixed:   make([]bool, n),
		nlayout: nl,
	}
	for i, d := range l.Dots {
		if d.Role == sidb.RolePerturber {
			e.fixed[i] = true
		}
	}
	if len(charged) > 0 {
		e.surface = surf
		e.scale = make([]float64, n)
		for i := 0; i < nl; i++ {
			e.scale[i] = 1
		}
		for k, d := range charged {
			e.Sites = append(e.Sites, d.Site)
			e.fixed[nl+k] = true
			e.scale[nl+k] = -float64(d.Type.Charge())
		}
	} else if !surf.Empty() {
		// Neutral-only surface: no electrostatic effect, but the surface
		// still distinguishes the cache key.
		e.surface = surf
	}
	for i := 0; i < n; i++ {
		e.V[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := params.Potential(lattice.DistanceNM(e.Sites[i], e.Sites[j]))
			if e.scale != nil {
				v *= e.scale[i] * e.scale[j]
			}
			e.V[i][j] = v
			e.V[j][i] = v
		}
	}
	return e
}

// NumDots returns the number of dots, including defect pseudo-dots.
func (e *Engine) NumDots() int { return len(e.Sites) }

// NumLayoutDots returns the number of dots that came from the layout;
// indices at and beyond it are charged-defect pseudo-dots.
func (e *Engine) NumLayoutDots() int { return e.nlayout }

// Surface returns the defect surface the engine was built on (nil when
// pristine).
func (e *Engine) Surface() *defects.Surface { return e.surface }

// IsFixed reports whether dot i is pinned to the negative charge state
// (a perturber).
func (e *Engine) IsFixed(i int) bool { return e.fixed[i] }

// FreeIndices returns the indices of all non-pinned dots.
func (e *Engine) FreeIndices() []int {
	var out []int
	for i, f := range e.fixed {
		if !f {
			out = append(out, i)
		}
	}
	return out
}

// Energy returns the total configuration energy in eV: pairwise repulsion
// of charged dots plus μ_ per charged dot. Defect pseudo-dots contribute
// their interaction terms but no transition level — a defect is not a DB
// with a (-/0) level, it is an external charge.
func (e *Engine) Energy(charged []bool) float64 {
	total := 0.0
	nl := e.nlayout
	if e.surface == nil && nl == 0 {
		// Zero-value engines built without a constructor have no
		// pseudo-dots; every dot is a layout dot.
		nl = len(charged)
	}
	for i := range charged {
		if !charged[i] {
			continue
		}
		if i < nl {
			total += e.Params.MuMinus
		}
		for j := i + 1; j < len(charged); j++ {
			if charged[j] {
				total += e.V[i][j]
			}
		}
	}
	return total
}

// LocalPotential returns the electrostatic potential at dot i caused by
// all other charged dots.
func (e *Engine) LocalPotential(charged []bool, i int) float64 {
	v := 0.0
	for j := range charged {
		if j != i && charged[j] {
			v += e.V[i][j]
		}
	}
	return v
}

// PopulationStable reports whether the configuration satisfies the
// population stability criteria: no single charge addition or removal
// lowers the energy (perturbers are exempt; they are pinned).
func (e *Engine) PopulationStable(charged []bool) bool {
	for i := range charged {
		if e.fixed[i] {
			continue
		}
		delta := e.Params.MuMinus + e.LocalPotential(charged, i)
		if charged[i] {
			// Removing the electron changes energy by -delta; stability
			// requires delta <= 0.
			if delta > 1e-12 {
				return false
			}
		} else if delta < -1e-12 {
			// Adding an electron would lower the energy.
			return false
		}
	}
	return true
}

// GroundState finds a minimum-energy configuration. The search is routed
// through the automatic solver dispatcher (see Auto): QuickExact up to
// ExactLimit free dots, exhaustive enumeration if QuickExact fails there,
// and simulated annealing with deterministic restarts beyond that.
func (e *Engine) GroundState() ([]bool, float64) {
	// Without a context Auto cannot fail: ExGS backs QuickExact, anneal fails only on ctx.
	sol, _ := Auto().Solve(e, SolveOptions{})
	return sol.Charges, sol.EnergyEV
}

// ExactLimit is the maximum number of free dots for exhaustive search.
const ExactLimit = 22

// Exhaustive enumerates all charge configurations of the free dots and
// returns a minimum-energy configuration (SiQAD's ExGS equivalent), or an
// error when the instance exceeds the 63-free-dot enumeration capability.
// The walk runs in Gray-code order, updating the energy with one flipDelta
// per step, and keeps the first configuration of minimum energy (a later
// one replaces it only when lower by more than 1e-15). Cancellation or
// deadline expiry of ctx aborts the enumeration with the context's error.
func (e *Engine) Exhaustive(ctx context.Context) ([]bool, float64, error) {
	freeIdx := e.FreeIndices()
	if len(freeIdx) > 63 {
		return nil, 0, fmt.Errorf("sim: %d free dots exceed exhaustive capability", len(freeIdx))
	}
	cur := append([]bool(nil), e.fixed...) // perturbers always charged
	curE := e.Energy(cur)
	ground, groundE := append([]bool(nil), cur...), curE
	poll := ctx.Done() != nil
	total := uint64(1) << len(freeIdx)
	for k := uint64(1); k < total; k++ {
		if poll && k&0x3FFF == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, fmt.Errorf("sim: exhaustive search canceled: %w", err)
			}
		}
		// Step k of the Gray code flips bit ctz(k).
		i := freeIdx[bits.TrailingZeros64(k)]
		curE += e.flipDelta(cur, i)
		cur[i] = !cur[i]
		if curE < groundE-1e-15 {
			groundE = curE
			copy(ground, cur)
		}
	}
	return ground, groundE, nil
}

// ExhaustiveChecked is Exhaustive without a context. The benchmark module
// (cmd/bench) calls it.
func (e *Engine) ExhaustiveChecked() ([]bool, float64, error) {
	return e.Exhaustive(context.Background())
}

// flipDelta returns the energy change of flipping dot i's charge.
func (e *Engine) flipDelta(charged []bool, i int) float64 {
	delta := e.Params.MuMinus + e.LocalPotential(charged, i)
	if charged[i] {
		return -delta
	}
	return delta
}

// AnnealConfig tunes the simulated-annealing ground-state search.
type AnnealConfig struct {
	Seed     int64
	Restarts int
	Sweeps   int     // sweeps per restart
	TStart   float64 // initial temperature in eV
	TEnd     float64 // final temperature in eV
	// Tracer receives the annealing counters, gauges and histograms
	// (restart/sweep/accepted-move counts, acceptance rate) but no span,
	// so parallel solver workers can share one tracer; nil disables them
	// at no cost.
	Tracer *obs.Tracer
	// Ctx interrupts the annealing when cancelled: Anneal stops between
	// sweeps and returns the best configuration found so far. Nil behaves
	// like context.Background.
	Ctx context.Context
}

// DefaultAnnealConfig returns settings calibrated for Bestagon-tile-sized
// problems (tens of dots).
func DefaultAnnealConfig() AnnealConfig {
	return AnnealConfig{Seed: 1, Restarts: 8, Sweeps: 600, TStart: 0.3, TEnd: 0.001}
}

// Anneal runs simulated annealing over charge configurations and returns
// the best configuration found. Deterministic for a given config, at any
// GOMAXPROCS. A cancelled cfg.Ctx stops the search between sweeps and
// starts no further restart; the best state found so far is returned (use
// the context's error to detect the early stop). The returned energy is
// recomputed canonically (Energy of the returned charges), not the walk's
// accumulated sum, so it does not depend on the order of the flips that
// reached the configuration.
//
// Restart r re-seeds from cfg.Seed + r·7919 and walks from its own random
// population, so restarts are independent: they run on internal/pool,
// each worker with its own RNG, walk state and log buffers. The only
// link between restarts is the best state. Taken restart after restart,
// it moves to restart r's initial state when that is lower, and to a
// state of its walk or final descent when that is lower by more than
// 1e-15. Every state this rule takes is a strict new minimum of its
// restart, so each restart logs those (see annealWalker.record), and the
// rule is replayed over the logs in restart order: the answer is that of
// running the restarts one after another, whatever the worker count.
//
// Each restart keeps every dot's local potential in a vector: a proposal
// costs O(1), and only an accepted flip pays O(n) to move its row of V
// into or out of the vector. All state is local to the call, so one
// Engine serves concurrent anneals.
func (e *Engine) Anneal(cfg AnnealConfig) ([]bool, float64) {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	freeIdx := e.FreeIndices()
	n := e.NumDots()
	restarts := max(cfg.Restarts, 0)
	workers := pool.Size(restarts, 0)
	// walkers[w] is worker w's state, allocated by that worker (see
	// searchShards); each appends the states it logs to its own buffers,
	// and logs[r] says where restart r's are.
	walkers := make([]*annealWalker, workers)
	logs := make([]restartLog, restarts)
	_ = pool.Run(ctx, restarts, workers, "", func(wi, r int) {
		w := walkers[wi]
		if w == nil {
			w = newAnnealWalker(n, restarts)
			walkers[wi] = w
		}
		e.annealRestart(ctx, cfg, freeIdx, w, r)
		logs[r] = restartLog{wi, w.lo, len(w.minE)}
	})

	// Replay the rule over the logs in restart order.
	best := append([]bool(nil), e.fixed...) // perturbers always charged
	bestE := e.Energy(best)
	var take []bool
	for _, lg := range logs {
		w := walkers[lg.walker]
		for k := lg.lo; k < lg.hi; k++ {
			if en := w.minE[k]; k == lg.lo && en < bestE || k > lg.lo && en < bestE-1e-15 {
				bestE = en
				take = w.minQ[k*n : (k+1)*n]
			}
		}
	}
	if take != nil {
		copy(best, take)
	}
	var accepted, flipsTried int64
	for _, w := range walkers {
		if w != nil {
			accepted += w.accepted
			flipsTried += w.tried
		}
	}
	bestE = e.Energy(best)
	if tr := cfg.Tracer; tr != nil {
		tr.Counter("sim/anneal/runs").Inc()
		tr.Counter("sim/anneal/restarts").Add(int64(cfg.Restarts))
		tr.Counter("sim/anneal/sweeps").Add(int64(cfg.Restarts * cfg.Sweeps))
		tr.Counter("sim/anneal/flips_tried").Add(flipsTried)
		tr.Counter("sim/anneal/accepted").Add(accepted)
		tr.Gauge("sim/anneal/best_energy").Set(bestE)
		if flipsTried > 0 {
			// The schedule's health signal: near 1 the walk is random (too
			// hot for the instance), near 0 it is frozen (wasted sweeps).
			tr.Histogram("sim/anneal/acceptance_rate",
				0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1).Observe(float64(accepted) / float64(flipsTried))
		}
	}
	return best, bestE
}

// restartLog locates one restart's logged states in its walker's
// buffers: index lo is its initial state, lo+1 up to hi its retained walk
// minima in walk order. A restart that never ran (ctx ended first) has
// lo == hi.
type restartLog struct {
	walker, lo, hi int
}

// annealWalker is one goroutine's annealing state, reused across the
// restarts it runs: the RNG, the walk's charges and local potentials, the
// candidate states its restarts logged (minE, minQ: energies and
// flattened charges) and its move counts.
type annealWalker struct {
	rng             *rand.Rand
	cur             []bool
	pot             []float64 // pot[j] = LocalPotential(cur, j)
	lo              int       // index of the running restart's first logged state
	minE            []float64
	minQ            []bool
	accepted, tried int64
}

// newAnnealWalker allocates a walker over n dots with log room for four
// states per restart of the call; a restart usually logs two (its initial
// state and one walk minimum).
func newAnnealWalker(n, restarts int) *annealWalker {
	return &annealWalker{
		rng:  rand.New(rand.NewSource(1)),
		cur:  make([]bool, n),
		pot:  make([]float64, n),
		minE: make([]float64, 0, 4*restarts),
		minQ: make([]bool, 0, 4*restarts*n),
	}
}

// record logs the current state, of energy en: the restart's initial
// state or a strict new minimum of its walk. It first drops the logged
// walk state before it if en is more than 1e-15 below that one: if the
// replay takes the dropped state it takes this one too, and the best
// after both is the same as after this one alone. Near-tied minima
// (within 1e-15, e.g. one configuration revisited with a drifted sum)
// stay side by side, and the initial state is never dropped: its rule
// has no margin.
func (w *annealWalker) record(en float64) {
	n := len(w.cur)
	for len(w.minE) > w.lo+1 && en < w.minE[len(w.minE)-1]-1e-15 {
		w.minE = w.minE[:len(w.minE)-1]
		w.minQ = w.minQ[:len(w.minQ)-n]
	}
	w.minE = append(w.minE, en)
	w.minQ = append(w.minQ, w.cur...)
}

// annealRestart runs restart r on w: a random population, cfg.Sweeps
// Metropolis sweeps on a geometric schedule, then a greedy descent to the
// nearest local minimum. It hands the initial state and every strict new
// minimum of the restart to w.record and adds its move counts to w's.
func (e *Engine) annealRestart(ctx context.Context, cfg AnnealConfig, freeIdx []int, w *annealWalker, r int) {
	rng, cur, pot := w.rng, w.cur, w.pot
	mu := e.Params.MuMinus
	// delta is the energy change of flipping dot i (flipDelta from pot).
	delta := func(i int) float64 {
		if cur[i] {
			return -(mu + pot[i])
		}
		return mu + pot[i]
	}
	// flip toggles dot i and adds its row of V to (now charged) or
	// subtracts it from (now neutral) every other dot's potential.
	flip := func(i int) {
		cur[i] = !cur[i]
		row := e.V[i]
		p := pot[:len(row)]
		own := p[i]
		if cur[i] {
			for j, v := range row {
				p[j] += v
			}
		} else {
			for j, v := range row {
				p[j] -= v
			}
		}
		p[i] = own
	}
	var accepted, tried int64 // locals until the restart ends
	rng.Seed(cfg.Seed + int64(r)*7919)
	copy(cur, e.fixed)
	// Random initial population of free dots.
	for _, i := range freeIdx {
		cur[i] = rng.Intn(2) == 1
	}
	curE := e.Energy(cur)
	w.lo = len(w.minE)
	w.record(curE)
	lowE := curE
	if len(freeIdx) == 0 {
		return
	}
	for j := range pot {
		pot[j] = e.LocalPotential(cur, j)
	}
	cool := math.Pow(cfg.TEnd/cfg.TStart, 1/float64(cfg.Sweeps))
	temp := cfg.TStart
	for sweep := 0; sweep < cfg.Sweeps; sweep++ {
		if sweep&15 == 0 && ctx.Err() != nil {
			break
		}
		for range freeIdx {
			i := freeIdx[rng.Intn(len(freeIdx))]
			d := delta(i)
			tried++
			if d <= 0 || metropolis(rng.Float64(), d/temp) {
				accepted++
				flip(i)
				curE += d
				if curE < lowE {
					lowE = curE
					w.record(curE)
				}
			}
		}
		temp *= cool
	}
	// Greedy descent to the nearest local minimum.
	improved := true
	for improved && ctx.Err() == nil {
		improved = false
		for _, i := range freeIdx {
			if d := delta(i); d < -1e-15 {
				flip(i)
				curE += d
				improved = true
			}
		}
	}
	if curE < lowE {
		w.record(curE)
	}
	w.accepted += accepted
	w.tried += tried
}

// metropolis reports whether a uniform draw u in [0, 1) accepts an uphill
// move of x = delta/temperature > 0, i.e. u < exp(-x). Since exp(x) >=
// 1+x+x²/2+x³/6 for x >= 0, a draw whose product with that polynomial
// reaches 1+1e-9 (the margin absorbs its rounding) rejects without calling
// Exp; every other draw gets the exact comparison, so each decision is the
// one u < exp(-x) makes.
func metropolis(u, x float64) bool {
	if u*(1+x*(1+x*(0.5+x*(1.0/6)))) >= 1+1e-9 {
		return false
	}
	return u < math.Exp(-x)
}

// DegeneracyGap returns the energy gap between the ground state and the
// lowest configuration whose charges differ on the given dots of interest
// (e.g. an output pair read differently), and the ground key's minimum
// configuration, a ground state. Used to assess how robustly a gate
// encodes its output. Exact, up to ExactLimit free dots: for every key of
// the interest dots (bit b set when dot interest[b] is charged) one pinned
// QuickExact search finds the lowest energy with that key, summed
// canonically; a key a perturber or a repeated dot rules out stays +Inf.
// The keys' searches are independent and run on internal/pool, each from
// an infinite incumbent; their results combine in key order, so the
// ground key (the lowest index among tied minima) and the first error are
// those of a serial loop. The gap is the minimum over the non-ground keys
// minus the ground key's, equal to the enumerated gap within float
// rounding. interest names a handful of dots: each adds a factor of 2 to
// the searches. Once ctx is done no further search starts, the running
// ones stop, and DegeneracyGap returns an error wrapping the context's. A
// nil ctx never ends.
func (e *Engine) DegeneracyGap(ctx context.Context, interest []int) (float64, []bool, error) {
	if free := len(e.FreeIndices()); free > ExactLimit {
		return 0, nil, fmt.Errorf("sim: degeneracy gap needs exact search (%d free dots)", free)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	keyMin := make([]float64, 1<<len(interest))
	cfgs := make([][]bool, len(keyMin))
	errs := make([]error, len(keyMin))
	workers := pool.Size(len(keyMin), 0)
	pins := make([][]int8, workers) // pins[w]: worker w's, allocated by it
	err := pool.Run(ctx, len(keyMin), workers, "", func(w, key int) {
		keyMin[key] = math.Inf(1)
		pin := pins[w]
		if pin == nil {
			pin = make([]int8, e.NumDots())
			pins[w] = pin
		}
		for i := range pin {
			pin[i] = -1
		}
		for bit, i := range interest {
			want := int8(key >> bit & 1)
			if e.fixed[i] && want == 0 || pin[i] >= 0 && pin[i] != want {
				return // no configuration has this key
			}
			pin[i] = want
		}
		cfgs[key], keyMin[key], _, errs[key] = e.quickExact(QuickExactOptions{Ctx: ctx}, pin)
	})
	if err != nil {
		return 0, nil, fmt.Errorf("sim: degeneracy gap canceled: %w", err)
	}
	ground := 0
	for key, m := range keyMin {
		if errs[key] != nil {
			return 0, nil, errs[key]
		}
		if m < keyMin[ground] {
			ground = key
		}
	}
	other := math.Inf(1)
	for k, m := range keyMin {
		if k != ground && m < other {
			other = m
		}
	}
	return other - keyMin[ground], cfgs[ground], nil
}
