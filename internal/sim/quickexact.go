package sim

// QuickExact is a pruned exact ground-state search (after Drewniok et al.,
// "The Need for Speed: Efficient Exact Simulation of Silicon Dangling Bond
// Logic"): a branch-and-bound over charge assignments that replaces the
// blind 2^n enumeration of ExGS.
//
// Three physically informed reductions shrink the search space. All follow
// from the facts that the screened Coulomb potential is non-negative — a
// dot's local potential only ever grows as charges are added — and that
// every ground state is population stable (no single charge addition or
// removal lowers the energy):
//
//  1. Presolve (population bounds from μ_ and the pairwise potential
//     matrix): a dot whose stability term μ_ + v already exceeds zero with
//     no optional charges placed can never hold an electron in a ground
//     state and is fixed neutral; a dot that still prefers charging when
//     every other dot is charged is fixed negative. The rules propagate to
//     a fixpoint before any search happens.
//  2. Stability pruning: a partial assignment containing a charged dot
//     whose stability criterion μ_ + v_i > 0 is already violated cannot
//     complete to a ground state — the potential at i only grows — so the
//     whole subtree is cut.
//  3. Energy lower bound: any completion costs at least the partial energy
//     plus Σ_i min(0, μ_ + v_i) over unassigned dots i (cross terms among
//     unassigned charges are ≥ 0); subtrees whose bound exceeds the best
//     known configuration are cut. Every search starts from an infinite
//     incumbent: the first value-ordered descent (each dot takes the
//     branch its local potential prefers) reaches a leaf at once, and that
//     leaf's energy starts the pruning.
//
// Dots are ordered by the magnitude of their effective local potential, so
// the most physically constrained decisions sit near the root of the tree.
// The top levels of the tree are sharded across a worker pool
// (internal/pool) sized by GOMAXPROCS; workers share the incumbent energy
// through an atomic so a good configuration found in one shard immediately
// tightens pruning in all others, while per-shard results are merged in
// deterministic order.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
)

const (
	// stabEps matches PopulationStable's tolerance: stability prunes fire
	// only on strict violations so degenerate ground states survive.
	stabEps = 1e-12
	// pruneEps guards the bound prune and incumbent updates against the
	// float drift of incremental energy accumulation along a search path.
	pruneEps = 1e-12
)

// DefaultNodeBudget bounds the search of the "quickexact" solver (roughly
// a few seconds of worst-case work); direct QuickExact calls default to an
// unlimited search. An exhausted budget returns an error, which the
// automatic dispatcher degrades to exhaustive enumeration.
const DefaultNodeBudget = 64 << 20

// QuickExactOptions tune the search.
type QuickExactOptions struct {
	// NodeBudget caps the total visited nodes across all shards; 0 means
	// unlimited. An exhausted budget aborts with an error.
	NodeBudget int64
	// Tracer receives concurrency-safe search metrics (counters, gauges,
	// histograms — no spans); nil disables them at no cost.
	Tracer *obs.Tracer
	// Ctx interrupts the search when cancelled or past its deadline: every
	// worker stops within ~1024 visited nodes and QuickExact returns the
	// context's error. Nil behaves like context.Background.
	Ctx context.Context
}

// QuickExactStats describes one search.
type QuickExactStats struct {
	// FreeDots is the number of non-pinned dots.
	FreeDots int
	// PresolveCharged/PresolveNeutral count dots fixed before the search
	// by the population-bound fixpoint.
	PresolveCharged, PresolveNeutral int
	// Undecided is the branch-and-bound tree depth after presolve.
	Undecided int
	// Shards is the number of subtree tasks; Workers the pool size.
	Shards, Workers int
	// Nodes counts visited search nodes; BoundPruned and StabilityPruned
	// count subtrees cut by the two pruning rules.
	Nodes, BoundPruned, StabilityPruned int64
	// MeanFrontierDepth is the average tree depth at which the bound
	// prune fired (0 when it never did).
	MeanFrontierDepth float64
	// EnergyEV is the proven ground-state energy.
	EnergyEV float64
}

// quickExactSolver is the "quickexact" GroundStateSolver.
type quickExactSolver struct {
	opts QuickExactOptions
}

func (quickExactSolver) Name() string  { return "quickexact" }
func (quickExactSolver) IsExact() bool { return true }

func (s quickExactSolver) Solve(e *Engine, opts SolveOptions) (Solution, error) {
	o := s.opts
	o.Tracer = opts.Tracer
	o.Ctx = opts.Ctx
	gs, en, _, err := e.QuickExact(o)
	if err != nil {
		return Solution{}, err
	}
	return Solution{Charges: gs, EnergyEV: en, Solver: "quickexact", Exact: true}, nil
}

// QuickExact finds a provably minimum-energy charge configuration of the
// engine's layout. The result is deterministic for a fixed engine and
// options (degenerate ground states are tie-broken canonically).
func (e *Engine) QuickExact(opts QuickExactOptions) ([]bool, float64, QuickExactStats, error) {
	return e.quickExact(opts, nil)
}

// quickExact is the reduce-and-search core of QuickExact and
// DegeneracyGap. A non-nil pin, indexed like the dots, constrains the free
// dots: 1 pins a dot charged (it folds into the on-site terms like a
// perturber), 0 pins it neutral (it drops out), -1 leaves it to the
// search. The pruning rules hold for the unpinned dots of a constrained
// minimum too. A pinned search runs on the calling goroutine, an unpinned
// one on the shard pool; both start from an infinite incumbent.
func (e *Engine) quickExact(opts QuickExactOptions, pin []int8) ([]bool, float64, QuickExactStats, error) {
	n := e.NumDots()
	// Base configuration: perturbers and charge pins charged, free dots
	// neutral.
	full := make([]bool, n)
	var freeIdx []int
	for i := 0; i < n; i++ {
		switch {
		case e.fixed[i]:
			full[i] = true
		case pin != nil && pin[i] >= 0:
			full[i] = pin[i] == 1
		default:
			freeIdx = append(freeIdx, i)
		}
	}
	nf := len(freeIdx)
	st := QuickExactStats{FreeDots: nf}
	defer func() { emit(opts.Tracer, &st) }()

	mu := e.Params.MuMinus
	// Effective on-site energy of charging each free dot: μ_ plus the
	// potential contributed by the pinned charges.
	onsite := make([]float64, nf)
	for k, i := range freeIdx {
		v := mu
		for j := 0; j < n; j++ {
			if full[j] {
				v += e.V[i][j]
			}
		}
		onsite[k] = v
	}

	// Presolve: population bounds to a fixpoint. lo is the stability term
	// μ_ + v_k with only the already-forced charges placed; hi with every
	// still-possible charge placed. lo > 0 forces neutral (a charged k
	// would violate stability in every completion); hi < 0 forces a
	// charge (a neutral k always has a strictly improving flip).
	state := make([]int8, nf) // -1 undecided, 0 neutral, 1 charged
	for k := range state {
		state[k] = -1
	}
	for changed := true; changed; {
		changed = false
		for k := 0; k < nf; k++ {
			if state[k] != -1 {
				continue
			}
			lo, hi := onsite[k], onsite[k]
			row := e.V[freeIdx[k]]
			for j, i := range freeIdx {
				switch {
				case j == k:
				case state[j] == 1:
					lo += row[i]
					hi += row[i]
				case state[j] == -1:
					hi += row[i]
				}
			}
			if lo > stabEps {
				state[k] = 0
				st.PresolveNeutral++
				changed = true
			} else if hi < -stabEps {
				state[k] = 1
				st.PresolveCharged++
				changed = true
			}
		}
	}
	for k := 0; k < nf; k++ {
		if state[k] == 1 {
			full[freeIdx[k]] = true
		}
	}
	eBase := e.Energy(full) // pinned + presolved skeleton

	// Search order over the undecided dots: descending magnitude of the
	// effective local potential puts the most constrained decisions at the
	// top of the tree where pruning is cheapest.
	var order []int
	for k := 0; k < nf; k++ {
		if state[k] == -1 {
			order = append(order, k)
		}
	}
	eff := make([]float64, nf)
	for k := 0; k < nf; k++ {
		v := onsite[k]
		for j, i := range freeIdx {
			if state[j] == 1 && j != k {
				v += e.V[freeIdx[k]][i]
			}
		}
		eff[k] = v
	}
	sort.Slice(order, func(a, b int) bool {
		ma, mb := math.Abs(eff[order[a]]), math.Abs(eff[order[b]])
		if ma != mb {
			return ma > mb
		}
		return order[a] < order[b]
	})
	nu := len(order)
	st.Undecided = nu
	if nu == 0 {
		// No free dots, or the presolve proved every free dot's charge.
		st.EnergyEV = eBase
		return full, eBase, st, nil
	}

	// Reduced problem over the undecided dots: ons folds the presolved
	// charges into the on-site term, WU is the undecided-undecided block.
	ons := make([]float64, nu)
	for u, k := range order {
		ons[u] = eff[k]
	}
	WU := make([]float64, nu*nu)
	for a, ka := range order {
		for b, kb := range order {
			WU[a*nu+b] = e.V[freeIdx[ka]][freeIdx[kb]]
		}
	}

	ctx := opts.Ctx
	var budget *int64
	if opts.NodeBudget > 0 {
		b := opts.NodeBudget
		budget = &b
	}
	var best atomic.Uint64
	best.Store(math.Float64bits(math.Inf(1)))
	var win []int8 // winning reduced assignment; nil when no leaf was recorded
	if pin != nil {
		s := newSearcher(ctx, nu, ons, WU, eBase, &best, budget)
		s.dfs(0, s.bound(0))
		st.Nodes, st.BoundPruned, st.StabilityPruned = s.nodes, s.boundPruned, s.stabPruned
		if s.haveBest {
			win = s.bestAssign
		}
	} else {
		var err error
		if win, err = searchShards(opts, newSearcher(ctx, nu, ons, WU, eBase, &best, budget), &st); err != nil {
			return nil, 0, st, err
		}
	}

	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, 0, st, fmt.Errorf("quickexact: search canceled after %d nodes (%d free dots): %w",
				st.Nodes, nf, err)
		}
	}
	if budget != nil && atomic.LoadInt64(budget) < 0 {
		return nil, 0, st, fmt.Errorf("quickexact: node budget %d exhausted after %d nodes (%d free dots)",
			opts.NodeBudget, st.Nodes, nf)
	}
	if win == nil {
		// Defensive only: subtrees containing a minimum are never pruned
		// (their lower bound cannot exceed the incumbent), so some leaf is
		// always recorded.
		return nil, 0, st, fmt.Errorf("quickexact: search recorded no configuration (%d free dots)", nf)
	}
	for u, k := range order {
		full[freeIdx[k]] = win[u] == 1
	}
	// Canonical final energy: one clean summation instead of the drifting
	// incremental accumulation along the winning search path.
	st.EnergyEV = e.Energy(full)
	return full, st.EnergyEV, st, nil
}

// searchShards runs the unpinned search on a worker pool: gen, a searcher
// over the reduced problem, enumerates the top tree levels into shard
// tasks, applying the pruning rules so dead prefixes never spawn work, and
// each worker searches shards with its own searcher. It returns the
// winning assignment (nil when no shard recorded a leaf), merged
// deterministically, and fills st's pool and pruning statistics.
func searchShards(opts QuickExactOptions, gen *searcher, st *QuickExactStats) ([]int8, error) {
	// The shard depth is the least d with 2^d >= 4·GOMAXPROCS, at most 12:
	// it follows the pool size before Size caps that at the shard count.
	workers := runtime.GOMAXPROCS(0)
	depth := 0
	for (1<<depth) < 4*workers && depth < 12 {
		depth++
	}
	gen.cutDepth = min(depth, gen.nu)
	var tasks [][]int8
	gen.emit = func(prefix []int8) { tasks = append(tasks, prefix) }
	gen.dfs(0, gen.bound(0))
	st.Shards = len(tasks)
	st.Workers = pool.Size(len(tasks), workers)

	type shardResult struct {
		have   bool
		energy float64
		assign []int8
	}
	results := make([]shardResult, len(tasks))
	shardSeconds := opts.Tracer.Histogram("sim/quickexact/shard_seconds", 0.0001, 0.001, 0.01, 0.1, 1, 10)
	// searchers[w] is pool worker w's traversal. Each worker allocates its
	// own on first use: searchers allocated back to back by one goroutine
	// share cache lines, and the workers' writes to them then slowed
	// BenchmarkGroundStateQuickExact30 by about 30% on 2 cores (the
	// padding newSearcher adds guards the case where two workers allocate
	// on one P).
	searchers := make([]*searcher, st.Workers)
	ctx := gen.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	panicked := func() (r any) {
		defer func() { r = recover() }()
		// A done ctx stops handing out shards; quickExact reports it.
		_ = pool.Run(ctx, len(tasks), workers, "quickexact.shard.panic", func(w, ti int) {
			t0 := time.Now()
			s := searchers[w]
			if s == nil {
				s = newSearcher(gen.ctx, gen.nu, gen.ons, gen.W, gen.eBase, gen.best, gen.budget)
				searchers[w] = s
			}
			s.reset()
			for k, val := range tasks[ti] {
				if val == 1 {
					s.pushCharge(k)
				} else {
					s.assign[k] = 0
				}
			}
			s.dfs(len(tasks[ti]), s.bound(len(tasks[ti])))
			if s.haveBest {
				results[ti] = shardResult{have: true, energy: s.bestE, assign: append([]int8(nil), s.bestAssign...)}
				s.haveBest = false
			}
			shardSeconds.Observe(time.Since(t0).Seconds())
		})
		return nil
	}()
	var pruneDepthSum, pruneEvents int64
	for _, s := range append(searchers, gen) {
		if s == nil {
			continue // a worker that ran no shard
		}
		st.Nodes += s.nodes
		st.BoundPruned += s.boundPruned
		st.StabilityPruned += s.stabPruned
		pruneDepthSum += s.pruneDepthSum
		pruneEvents += s.pruneEvents
	}
	if pruneEvents > 0 {
		st.MeanFrontierDepth = float64(pruneDepthSum) / float64(pruneEvents)
	}
	if panicked != nil {
		// A shard panic poisons the merge (its results are missing), so the
		// whole solve fails as an error the dispatch layer can degrade on.
		return nil, fmt.Errorf("quickexact: shard worker panicked: %v", panicked)
	}

	// Deterministic merge: best energy first, then the canonically
	// smallest assignment among energy ties.
	merged := shardResult{}
	for _, r := range results {
		if !r.have {
			continue
		}
		switch {
		case !merged.have || r.energy < merged.energy-pruneEps:
			merged = r
		case r.energy <= merged.energy+pruneEps && lexLess(r.assign, merged.assign):
			if r.energy < merged.energy {
				merged.energy = r.energy
			}
			merged.have = true
			merged.assign = r.assign
		}
	}
	return merged.assign, nil
}

// emit publishes search metrics to the tracer (counters/gauges/histograms
// only — safe under concurrent solves sharing one tracer).
func emit(tr *obs.Tracer, st *QuickExactStats) {
	if tr == nil {
		return
	}
	tr.Counter("sim/quickexact/solves").Inc()
	tr.Counter("sim/quickexact/nodes").Add(st.Nodes)
	tr.Counter("sim/quickexact/bound_pruned").Add(st.BoundPruned)
	tr.Counter("sim/quickexact/stability_pruned").Add(st.StabilityPruned)
	tr.Counter("sim/quickexact/presolve_fixed").Add(int64(st.PresolveCharged + st.PresolveNeutral))
	tr.Counter("sim/quickexact/shards").Add(int64(st.Shards))
	tr.Gauge("sim/quickexact/last_free_dots").Set(float64(st.FreeDots))
	tr.Gauge("sim/quickexact/last_undecided").Set(float64(st.Undecided))
	tr.Gauge("sim/quickexact/last_frontier_depth").Set(st.MeanFrontierDepth)
	tr.Histogram("sim/quickexact/undecided_depth", 4, 8, 12, 16, 20, 24, 28, 32, 40).Observe(float64(st.Undecided))
	if st.Nodes > 0 {
		// How much of the search tree the bounds cut: the paper-motivated
		// effort metric for comparing pruned-exact engines across PRs.
		pruneRate := float64(st.BoundPruned+st.StabilityPruned) / float64(st.Nodes)
		tr.Histogram("sim/quickexact/prune_rate",
			0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1).Observe(pruneRate)
	}
	if st.FreeDots > 0 {
		fixedFrac := float64(st.PresolveCharged+st.PresolveNeutral) / float64(st.FreeDots)
		tr.Histogram("sim/quickexact/presolve_fixed_frac",
			0.1, 0.25, 0.5, 0.75, 0.9, 1).Observe(fixedFrac)
	}
}

// emitGap adds the effort of one degeneracy gap's pinned searches, summed
// over its keys, to tr's QuickExact counters. It counts no solve: a caller
// that reads a ground state from the gap counts that.
func emitGap(tr *obs.Tracer, stats []QuickExactStats) {
	if tr == nil {
		return
	}
	var nodes, bound, stability, presolve, shards int64
	for _, st := range stats {
		nodes += st.Nodes
		bound += st.BoundPruned
		stability += st.StabilityPruned
		presolve += int64(st.PresolveCharged + st.PresolveNeutral)
		shards += int64(st.Shards)
	}
	tr.Counter("sim/quickexact/nodes").Add(nodes)
	tr.Counter("sim/quickexact/bound_pruned").Add(bound)
	tr.Counter("sim/quickexact/stability_pruned").Add(stability)
	tr.Counter("sim/quickexact/presolve_fixed").Add(presolve)
	tr.Counter("sim/quickexact/shards").Add(shards)
}

// searcher is one depth-first branch-and-bound traversal over the reduced
// (undecided-dot) problem. It is single-goroutine state; the only shared
// pieces are the atomic incumbent energy and the optional node budget.
type searcher struct {
	nu    int
	ons   []float64 // effective on-site energy per undecided dot
	W     []float64 // nu×nu interaction block
	eBase float64
	best  *atomic.Uint64 // float bits of the shared incumbent energy

	cutDepth int
	emit     func(prefix []int8)

	assign []int8
	// pots is the potential stack: level c, pots[c*nu:(c+1)*nu], is the
	// potential of the first c charges on the current path, and energies[c]
	// its energy (energies holds levels 0..c). Level 0 is never written and
	// stays zero. A charge writes the next level from the current one;
	// popping it steps back a level, so the potentials never drift.
	pots     []float64
	energies []float64
	pot      []float64 // the current level of pots
	charged  []int
	energy   float64 // energies[len(charged)]

	nodes, boundPruned, stabPruned int64
	pruneDepthSum, pruneEvents     int64
	budget                         *int64
	budgetExceeded                 bool
	ctx                            context.Context // nil = never canceled
	canceled                       bool

	haveBest   bool
	bestE      float64
	bestAssign []int8
	_          [64]byte // see newSearcher
}

// newSearcher returns a traversal of the whole tree (cutDepth nu). The
// searcher and its hot slices each end in 64 bytes of padding (the
// struct's last field, spare slice capacity): pool workers that allocate
// their searchers on the same P get neighbouring objects of one span, and
// without the padding their writes share cache lines. Unpadded,
// BenchmarkGroundStateQuickExact40 ran about 30% slower on 2 cores (when a
// parallel seed anneal still ran just before the search).
func newSearcher(ctx context.Context, nu int, ons, W []float64, eBase float64, best *atomic.Uint64, budget *int64) *searcher {
	pots := make([]float64, (nu+1)*nu, (nu+1)*nu+8)
	return &searcher{
		nu: nu, ons: ons, W: W, eBase: eBase, best: best, budget: budget, ctx: ctx, cutDepth: nu,
		assign:     make([]int8, nu, nu+64),
		pots:       pots,
		energies:   append(make([]float64, 0, nu+9), eBase),
		pot:        pots[:nu],
		charged:    make([]int, 0, nu+8),
		energy:     eBase,
		bestAssign: make([]int8, nu),
	}
}

// reset rewinds the traversal to level 0 for the next shard task.
func (s *searcher) reset() {
	clear(s.assign)
	s.charged = s.charged[:0]
	s.pot = s.pots[:s.nu]
	s.energies = s.energies[:1]
	s.energy = s.eBase
}

func (s *searcher) globalBest() float64 { return math.Float64frombits(s.best.Load()) }

// bound is a lower bound on the energy of any completion from depth k.
func (s *searcher) bound(k int) float64 {
	b := s.energy
	for u := k; u < s.nu; u++ {
		if d := s.ons[u] + s.pot[u]; d < 0 {
			b += d
		}
	}
	return b
}

// chargeOK reports whether charging dot u keeps every already-charged dot
// (and u itself) population stable. The local potential only grows down
// the tree, so a violation here kills the whole subtree.
func (s *searcher) chargeOK(u int) bool {
	if s.ons[u]+s.pot[u] > stabEps {
		return false
	}
	row := s.W[u*s.nu : (u+1)*s.nu]
	for _, j := range s.charged {
		if s.ons[j]+s.pot[j]+row[j] > stabEps {
			return false
		}
	}
	return true
}

// pushCharge charges dot u at depth u, writing the next level of the
// potential stack, and returns that level's bound(u+1). The bound is summed
// in the same loop, over the same terms in the same order as bound, so it
// has the same bits.
func (s *searcher) pushCharge(u int) float64 {
	nu := s.nu
	c := len(s.charged)
	cur := s.pot[:nu]
	next := s.pots[(c+1)*nu : (c+2)*nu]
	row := s.W[u*nu : (u+1)*nu]
	ons := s.ons[:nu]
	s.energy += ons[u] + cur[u]
	s.energies = append(s.energies, s.energy)
	for j := 0; j <= u; j++ {
		next[j] = cur[j] + row[j] // row[u] == 0
	}
	b := s.energy
	for j := u + 1; j < nu; j++ {
		p := cur[j] + row[j]
		next[j] = p
		if d := ons[j] + p; d < 0 {
			b += d
		}
	}
	s.pot = next
	s.charged = append(s.charged, u)
	s.assign[u] = 1
	return b
}

// popCharge undoes the last pushCharge by stepping back one level.
func (s *searcher) popCharge() {
	c := len(s.charged) - 1
	s.charged = s.charged[:c]
	s.energies = s.energies[:c+1]
	s.pot = s.pots[c*s.nu : (c+1)*s.nu]
	s.energy = s.energies[c]
}

// dfs searches the subtree below depth k, whose lower bound is b.
func (s *searcher) dfs(k int, b float64) {
	if s.budgetExceeded || s.canceled {
		return
	}
	s.nodes++
	if s.nodes&1023 == 0 {
		if s.budget != nil && atomic.AddInt64(s.budget, -1024) < 0 {
			s.budgetExceeded = true
			return
		}
		if s.ctx != nil && s.ctx.Err() != nil {
			s.canceled = true
			return
		}
	}
	if b > s.globalBest()+pruneEps {
		s.boundPruned++
		s.pruneDepthSum += int64(k)
		s.pruneEvents++
		return
	}
	if k == s.cutDepth {
		if s.emit != nil {
			s.emit(append([]int8(nil), s.assign[:k]...))
		} else {
			s.record()
		}
		return
	}
	// Value ordering: descend into the physically preferred branch first
	// so the incumbent tightens as early as possible.
	chargeFirst := s.ons[k]+s.pot[k] < 0
	for t := 0; t < 2; t++ {
		if chargeFirst == (t == 0) {
			if !s.chargeOK(k) {
				s.stabPruned++
				continue
			}
			s.dfs(k+1, s.pushCharge(k))
			s.popCharge()
		} else {
			s.assign[k] = 0
			s.dfs(k+1, s.bound(k+1))
		}
	}
}

// record folds a complete assignment into the local best and the shared
// incumbent. Ties within the float-drift tolerance break canonically so
// degenerate instances stay deterministic across runs and worker counts.
func (s *searcher) record() {
	en := s.energy
	switch {
	case !s.haveBest || en < s.bestE-pruneEps:
		s.haveBest = true
		s.bestE = en
		copy(s.bestAssign, s.assign)
	case en <= s.bestE+pruneEps && lexLess(s.assign, s.bestAssign):
		if en < s.bestE {
			s.bestE = en
		}
		copy(s.bestAssign, s.assign)
	}
	for {
		cur := s.best.Load()
		if en >= math.Float64frombits(cur) {
			return
		}
		if s.best.CompareAndSwap(cur, math.Float64bits(en)) {
			return
		}
	}
}

// lexLess orders assignments canonically (neutral before charged).
func lexLess(a, b []int8) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
