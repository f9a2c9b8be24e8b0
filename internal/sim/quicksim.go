package sim

// QuickSim is the deterministic ground-state heuristic of Drewniok et al.,
// "QuickSim: Efficient and Accurate Physical Simulation of Silicon
// Dangling Bond Logic" (arXiv 2303.03422): it grows charge populations one
// electron at a time from many starts and keeps the lowest configuration a
// greedy relaxation reaches along the way.

import (
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/pool"
)

const (
	// hopNeighbours is the number of nearest free dots a charge may hop
	// to. Hopping to every free dot made 24 random 50-dot solves 3× and
	// two 200-dot solves 24× slower on two cores.
	hopNeighbours = 8
	// potScale is QuickSim's fixed-point unit, 2^40 per eV. Integer sums
	// do not depend on their order, so a walk's potentials and energy are
	// functions of its charge state, not of the flips that led there.
	potScale = 1 << 40
)

// quickSimSolver is the "quicksim" GroundStateSolver.
type quickSimSolver struct{}

func (quickSimSolver) Name() string  { return "quicksim" }
func (quickSimSolver) IsExact() bool { return false }

func (quickSimSolver) Solve(e *Engine, opts SolveOptions) (Solution, error) {
	gs, en, err := e.QuickSim(opts.Context())
	if err != nil {
		return Solution{}, err
	}
	opts.Tracer.Counter("sim/quicksim/solves").Inc()
	return Solution{Charges: gs, EnergyEV: en, Solver: "quicksim"}, nil
}

// QuickSim returns a low-energy, usually ground-state, charge
// configuration and its canonical Energy, the same bit for bit at any
// worker count. Start 0 has no free dot charged, start s > 0 free dot s-1.
// Each start loops: stop at a state any start already reached (its
// continuation depends only on the state, so no candidate is lost);
// record a relaxed copy as a candidate; charge the neutral free dot of
// lowest potential, or stop if none is left; apply hops (see hop) while
// one lowers the energy. The answer is the lowest candidate by Energy,
// ties broken by chargesLess. The starts run on internal/pool, start 0
// first. Once ctx is done no start begins and running ones stop between
// steps: QuickSim returns the best configuration found so far (the
// pinned dots alone charged if none was) with the context's error.
func (e *Engine) QuickSim(ctx context.Context) ([]bool, float64, error) {
	p := e.newQuickSim()
	starts := len(p.free) + 1
	walks := make([]*qsWalk, pool.Size(starts, 0)) // walks[w]: worker w's, allocated by it
	err := pool.Run(ctx, starts, len(walks), "", func(w, s int) {
		if walks[w] == nil {
			walks[w] = p.newWalk()
		}
		p.start(ctx, walks[w], s)
	})
	best := slices.Clone(e.fixed)
	bestE, found := e.Energy(best), false
	for _, w := range walks {
		if w != nil && w.found && (!found || w.bestE < bestE || w.bestE == bestE && chargesLess(w.best, best)) {
			copy(best, w.best)
			bestE, found = w.bestE, true
		}
	}
	return best, bestE, err
}

// quickSim is what the walks of one QuickSim call share.
type quickSim struct {
	e    *Engine
	free []int   // free dot indices
	v    []int64 // v[a*nf+b]: V between free dots a and b
	base []int64 // base[a]: the pinned dots' potential at free dot a
	mu   int64   // μ_
	near []int32 // near[a*k:(a+1)*k]: the k nearest free dots of a, nearest first
	k    int
	// tol bounds the rounding error of a fixed-point energy, in units: a
	// candidate more than tol above a walk's best cannot beat it.
	tol    int64
	seenMu sync.Mutex
	seen   map[string]struct{} // charge vectors, one byte per free dot
}

// fixedPoint scales an energy in eV to QuickSim's integer units, capped
// at ±1 keV (coincident dots have V = +Inf).
func fixedPoint(v float64) int64 {
	return int64(math.Round(min(max(v, -1e3), 1e3) * potScale))
}

func (e *Engine) newQuickSim() *quickSim {
	free := e.FreeIndices()
	nf, n := len(free), e.NumDots()
	p := &quickSim{
		e: e, free: free,
		v:    make([]int64, nf*nf),
		base: make([]int64, nf),
		mu:   fixedPoint(e.Params.MuMinus),
		k:    min(hopNeighbours, max(nf-1, 0)),
		tol:  int64(2 * (n*n + n)),
		seen: map[string]struct{}{},
	}
	p.near = make([]int32, nf*p.k)
	for a, i := range free {
		row := e.V[i]
		p.base[a] = fixedPoint(e.LocalPotential(e.fixed, i))
		// Free dots are layout dots (charge scale 1), so the nearest have
		// the largest V; ties go to the lower index.
		near := p.near[a*p.k : a*p.k : (a+1)*p.k]
		for b, j := range free {
			p.v[a*nf+b] = fixedPoint(row[j])
			at := len(near)
			for at > 0 && row[free[near[at-1]]] < row[j] {
				at--
			}
			if b == a || at == p.k {
				continue
			}
			if len(near) < p.k {
				near = append(near, 0)
			}
			copy(near[at+1:], near[at:])
			near[at] = int32(b)
		}
	}
	return p
}

// qsWalk is one worker's state: the walk's charges (1 charged),
// potentials and energy (relative to the pinned dots alone) over the free
// dots, scratch copies for candidate, and the worker's best candidate.
type qsWalk struct {
	q, rq      []byte
	pot, rpot  []int64
	en         int64
	full, best []bool // over all dots
	bestE      float64
	bestQ      int64 // best's fixed-point energy
	found      bool
}

func (p *quickSim) newWalk() *qsWalk {
	nf, n := len(p.free), p.e.NumDots()
	return &qsWalk{
		q: make([]byte, nf), rq: make([]byte, nf),
		pot: make([]int64, nf), rpot: make([]int64, nf),
		full: make([]bool, n), best: make([]bool, n),
	}
}

// start runs start s on w (see QuickSim).
func (p *quickSim) start(ctx context.Context, w *qsWalk, s int) {
	clear(w.q)
	copy(w.pot, p.base)
	w.en = 0
	if s > 0 {
		w.en += p.flip(w.q, w.pot, s-1)
	}
	for ctx.Err() == nil && p.visit(w.q) {
		p.candidate(w)
		next := -1
		for a, c := range w.q {
			if c == 0 && (next < 0 || w.pot[a] < w.pot[next]) {
				next = a
			}
		}
		if next < 0 {
			return
		}
		w.en += p.flip(w.q, w.pot, next)
		for d, ok := p.hop(w.q, w.pot); ok; d, ok = p.hop(w.q, w.pot) {
			w.en += d
		}
	}
}

// visit registers the charge vector q and reports whether no walk had
// reached it.
func (p *quickSim) visit(q []byte) bool {
	p.seenMu.Lock()
	defer p.seenMu.Unlock()
	if _, ok := p.seen[string(q)]; ok {
		return false
	}
	p.seen[string(q)] = struct{}{}
	return true
}

// candidate relaxes a copy of w's state and records it if it beats w's
// best. The relaxation sweeps the free dots in order, flipping each whose
// flip lowers the energy, until a sweep flips none; then it applies the
// best energy-lowering hop and sweeps again, until no hop is left.
func (p *quickSim) candidate(w *qsWalk) {
	q, pot, en := w.rq, w.rpot, w.en
	copy(q, w.q)
	copy(pot, w.pot)
	for {
		flipped := false
		for i, c := range q {
			if f := p.mu + pot[i]; c == 0 && f < 0 || c == 1 && f > 0 {
				en += p.flip(q, pot, i)
				flipped = true
			}
		}
		if flipped {
			continue
		}
		d, ok := p.hop(q, pot)
		if !ok {
			break
		}
		en += d
	}
	if w.found && en > w.bestQ+p.tol {
		return
	}
	copy(w.full, p.e.fixed)
	for a, i := range p.free {
		w.full[i] = q[a] == 1
	}
	if w.found && en == w.bestQ && slices.Equal(w.full, w.best) {
		return
	}
	if E := p.e.Energy(w.full); !w.found || E < w.bestE || E == w.bestE && chargesLess(w.full, w.best) {
		copy(w.best, w.full)
		w.bestE, w.bestQ, w.found = E, en, true
	}
}

// flip toggles free dot a and returns the energy change.
func (p *quickSim) flip(q []byte, pot []int64, a int) int64 {
	row := p.v[a*len(q) : (a+1)*len(q)]
	pot = pot[:len(row)]
	q[a] ^= 1
	if q[a] == 1 {
		for b, x := range row {
			pot[b] += x
		}
		return p.mu + pot[a]
	}
	for b, x := range row {
		pot[b] -= x
	}
	return -(p.mu + pot[a])
}

// hop applies the most energy-lowering move of a charge from a free dot a
// to a neutral neighbour b (the first in dot order among ties), updating
// the potentials in one pass, and returns the energy change; ok is false
// when no hop lowers the energy.
func (p *quickSim) hop(q []byte, pot []int64) (d int64, ok bool) {
	a, b := -1, -1
	for i, c := range q {
		if c == 0 {
			continue
		}
		for _, j := range p.near[i*p.k : (i+1)*p.k] {
			if q[j] != 0 {
				continue
			}
			if h := pot[j] - pot[i] - p.v[i*len(q)+int(j)]; h < d {
				d, a, b = h, i, int(j)
			}
		}
	}
	if a < 0 {
		return 0, false
	}
	ra, rb := p.v[a*len(q):(a+1)*len(q)], p.v[b*len(q):(b+1)*len(q)]
	for c := range ra {
		pot[c] += rb[c] - ra[c]
	}
	q[a], q[b] = 0, 1
	return d, true
}

// chargesLess orders charge vectors of equal length: at the first
// difference, neutral comes first.
func chargesLess(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return b[i]
		}
	}
	return false
}
