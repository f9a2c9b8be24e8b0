// Package sim implements physical simulation of SiDB charge configurations
// with three ground-state engines behind one fixed solver table (see
// Lookup): an exhaustive finder (SiQAD's ExGS equivalent), a pruned exact
// branch-and-bound (QuickExact), and a deterministic heuristic (QuickSim)
// that stands in for the SimAnneal engine of [30], which the paper uses to
// validate the Bestagon library.
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
// enumeration, QuickExact and QuickSim, which all work from IsFixed, V
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
// through the automatic solver dispatcher (see autoSolver): QuickExact up to
// ExactLimit free dots, exhaustive enumeration if QuickExact fails there,
// and QuickSim beyond that.
func (e *Engine) GroundState() ([]bool, float64) {
	// Without a context Auto cannot fail: ExGS backs QuickExact, QuickSim fails only on ctx.
	sol, _ := autoSolver{}.Solve(e, SolveOptions{})
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
// nil ctx never ends. A non-nil tr receives the searches' summed effort
// once per gap (see emitGap).
func (e *Engine) DegeneracyGap(ctx context.Context, interest []int, tr *obs.Tracer) (float64, []bool, error) {
	if free := len(e.FreeIndices()); free > ExactLimit {
		return 0, nil, fmt.Errorf("sim: degeneracy gap needs exact search (%d free dots)", free)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	keyMin := make([]float64, 1<<len(interest))
	cfgs := make([][]bool, len(keyMin))
	errs := make([]error, len(keyMin))
	var stats []QuickExactStats // per key, kept only for a tracer
	if tr != nil {
		stats = make([]QuickExactStats, len(keyMin))
	}
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
		var st QuickExactStats
		cfgs[key], keyMin[key], st, errs[key] = e.quickExact(QuickExactOptions{Ctx: ctx}, pin)
		if stats != nil {
			stats[key] = st
		}
	})
	if err != nil {
		return 0, nil, fmt.Errorf("sim: degeneracy gap canceled: %w", err)
	}
	emitGap(tr, stats)
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
