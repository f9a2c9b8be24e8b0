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
//     known configuration are cut. The incumbent is seeded with a short
//     deterministic anneal so pruning bites from the first node.
//
// Dots are ordered by the magnitude of their effective local potential, so
// the most physically constrained decisions sit near the root of the tree.
// The top levels of the tree are sharded across a worker pool sized by
// GOMAXPROCS; workers share the incumbent energy through an atomic so a
// good configuration found in one shard immediately tightens pruning in
// all others, while per-shard results are merged in deterministic order.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// panicBox gives every recovered shard panic the same concrete type, so
// racing atomic.Value.CompareAndSwap calls never see mismatched types.
type panicBox struct{ v any }

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
	// Workers sizes the shard worker pool; <= 0 uses GOMAXPROCS.
	Workers int
	// ShardDepth is the number of top tree levels enumerated into shard
	// tasks; <= 0 picks automatically from the worker count.
	ShardDepth int
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
	// SeedEnergyEV is the annealed incumbent energy that seeded pruning.
	SeedEnergyEV float64
	// EnergyEV is the proven ground-state energy.
	EnergyEV float64
	// WorkerSeconds is the per-worker busy time.
	WorkerSeconds []float64
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
	n := e.NumDots()
	freeIdx := e.FreeIndices()
	nf := len(freeIdx)
	st := QuickExactStats{FreeDots: nf}

	// Base configuration: perturbers pinned negative, free dots neutral.
	full := make([]bool, n)
	for i := 0; i < n; i++ {
		full[i] = e.IsFixed(i)
	}
	if nf == 0 {
		en := e.Energy(full)
		st.EnergyEV = en
		emit(opts.Tracer, &st)
		return full, en, st, nil
	}

	mu := e.Params.MuMinus
	// Effective on-site energy of charging each free dot: μ_ plus the
	// potential contributed by the pinned perturbers.
	onsite := make([]float64, nf)
	for k, i := range freeIdx {
		v := mu
		for j := 0; j < n; j++ {
			if e.IsFixed(j) {
				v += e.V[i][j]
			}
		}
		onsite[k] = v
	}
	// Free-free interaction matrix, flattened row-major.
	W := make([]float64, nf*nf)
	for a, i := range freeIdx {
		for b, j := range freeIdx {
			W[a*nf+b] = e.V[i][j]
		}
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
			row := W[k*nf : (k+1)*nf]
			for j := 0; j < nf; j++ {
				switch {
				case j == k:
				case state[j] == 1:
					lo += row[j]
					hi += row[j]
				case state[j] == -1:
					hi += row[j]
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
		for j := 0; j < nf; j++ {
			if state[j] == 1 && j != k {
				v += W[k*nf+j]
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
		// The presolve proved every free dot's charge.
		st.EnergyEV = eBase
		emit(opts.Tracer, &st)
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
			WU[a*nu+b] = W[ka*nf+kb]
		}
	}

	// Incumbent: a short deterministic anneal seeds the upper bound so the
	// bound prune bites from the very first node.
	ctx := opts.Ctx
	seedCfg, seedE := e.Anneal(AnnealConfig{Seed: 1, Restarts: 2, Sweeps: 150, TStart: 0.3, TEnd: 0.001, Ctx: ctx})
	st.SeedEnergyEV = seedE

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	depth := opts.ShardDepth
	if depth <= 0 {
		depth = 0
		for (1<<depth) < 4*workers && depth < 12 {
			depth++
		}
	}
	if depth > nu {
		depth = nu
	}
	st.Workers = workers

	var best atomic.Uint64
	best.Store(math.Float64bits(seedE))
	var budget *int64
	if opts.NodeBudget > 0 {
		b := opts.NodeBudget
		budget = &b
	}

	// Enumerate the top levels into shard tasks, applying the same pruning
	// rules so dead prefixes never spawn work.
	gen := newSearcher(nu, ons, WU, eBase, &best, budget)
	gen.ctx = ctx
	gen.cutDepth = depth
	var tasks [][]int8
	gen.emit = func(prefix []int8) { tasks = append(tasks, prefix) }
	gen.dfs(0)
	st.Nodes += gen.nodes
	st.BoundPruned += gen.boundPruned
	st.StabilityPruned += gen.stabPruned
	pruneDepthSum, pruneEvents := gen.pruneDepthSum, gen.pruneEvents
	st.Shards = len(tasks)

	type shardResult struct {
		have   bool
		energy float64
		assign []int8
	}
	results := make([]shardResult, len(tasks))
	shardSeconds := opts.Tracer.Histogram("sim/quickexact/shard_seconds", 0.0001, 0.001, 0.01, 0.1, 1, 10)
	st.WorkerSeconds = make([]float64, workers)

	var shardPanic atomic.Value // first recovered shard panic, if any
	if len(tasks) > 0 {
		next := make(chan int)
		var wg sync.WaitGroup
		var nodes, boundPruned, stabPruned, depthSum, events int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						shardPanic.CompareAndSwap(nil, panicBox{r})
						// Drain so the feeder's send below can never block
						// forever on a channel with no readers left.
						for range next {
						}
					}
				}()
				if faults.Should("quickexact.shard.panic") {
					panic("injected fault: quickexact.shard.panic")
				}
				busy := time.Now()
				s := newSearcher(nu, ons, WU, eBase, &best, budget)
				s.ctx = ctx
				s.cutDepth = nu
				for ti := range next {
					t0 := time.Now()
					s.reset()
					for k, val := range tasks[ti] {
						if val == 1 {
							s.pushCharge(k)
						} else {
							s.assign[k] = 0
						}
					}
					s.dfs(len(tasks[ti]))
					if s.haveBest {
						results[ti] = shardResult{have: true, energy: s.bestE, assign: append([]int8(nil), s.bestAssign...)}
						s.haveBest = false
					}
					shardSeconds.Observe(time.Since(t0).Seconds())
				}
				atomic.AddInt64(&nodes, s.nodes)
				atomic.AddInt64(&boundPruned, s.boundPruned)
				atomic.AddInt64(&stabPruned, s.stabPruned)
				atomic.AddInt64(&depthSum, s.pruneDepthSum)
				atomic.AddInt64(&events, s.pruneEvents)
				st.WorkerSeconds[w] = time.Since(busy).Seconds()
			}(w)
		}
		for ti := range tasks {
			next <- ti
		}
		close(next)
		wg.Wait()
		st.Nodes += nodes
		st.BoundPruned += boundPruned
		st.StabilityPruned += stabPruned
		pruneDepthSum += depthSum
		pruneEvents += events
	}
	if pruneEvents > 0 {
		st.MeanFrontierDepth = float64(pruneDepthSum) / float64(pruneEvents)
	}
	if r := shardPanic.Load(); r != nil {
		// A shard panic poisons the merge (its results are missing), so the
		// whole solve fails as an error the dispatch layer can degrade on;
		// the worker pool itself survived.
		emit(opts.Tracer, &st)
		return nil, 0, st, fmt.Errorf("quickexact: shard worker panicked: %v", r.(panicBox).v)
	}

	if ctx != nil {
		if err := ctx.Err(); err != nil {
			emit(opts.Tracer, &st)
			return nil, 0, st, fmt.Errorf("quickexact: search canceled after %d nodes (%d free dots): %w",
				st.Nodes, nf, err)
		}
	}
	if budget != nil && atomic.LoadInt64(budget) < 0 {
		emit(opts.Tracer, &st)
		return nil, 0, st, fmt.Errorf("quickexact: node budget %d exhausted after %d nodes (%d free dots)",
			opts.NodeBudget, st.Nodes, nf)
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
	if !merged.have {
		// Defensive only: subtrees containing a minimum are never pruned
		// (their lower bound cannot exceed the incumbent), so some shard
		// always records a leaf. Fall back to the annealed seed.
		copy(full, seedCfg)
		st.EnergyEV = seedE
		emit(opts.Tracer, &st)
		return full, seedE, st, nil
	}
	for u, k := range order {
		full[freeIdx[k]] = merged.assign[u] == 1
	}
	// Canonical final energy: one clean summation instead of the drifting
	// incremental accumulation along the winning search path.
	en := e.Energy(full)
	st.EnergyEV = en
	emit(opts.Tracer, &st)
	return full, en, st, nil
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

	assign  []int8
	pot     []float64 // potential from charges assigned in this traversal
	charged []int
	energy  float64

	nodes, boundPruned, stabPruned int64
	pruneDepthSum, pruneEvents     int64
	budget                         *int64
	budgetExceeded                 bool
	ctx                            context.Context // nil = never canceled
	canceled                       bool

	haveBest   bool
	bestE      float64
	bestAssign []int8
}

func newSearcher(nu int, ons, W []float64, eBase float64, best *atomic.Uint64, budget *int64) *searcher {
	return &searcher{
		nu: nu, ons: ons, W: W, eBase: eBase, best: best, budget: budget,
		assign:     make([]int8, nu),
		pot:        make([]float64, nu),
		charged:    make([]int, 0, nu),
		energy:     eBase,
		bestAssign: make([]int8, nu),
	}
}

// reset rewinds the traversal state for the next shard task.
func (s *searcher) reset() {
	for i := range s.pot {
		s.pot[i] = 0
		s.assign[i] = 0
	}
	s.charged = s.charged[:0]
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

func (s *searcher) pushCharge(u int) {
	row := s.W[u*s.nu : (u+1)*s.nu]
	s.energy += s.ons[u] + s.pot[u]
	for j := 0; j < s.nu; j++ {
		s.pot[j] += row[j] // row[u] == 0, pot[u] unchanged
	}
	s.charged = append(s.charged, u)
	s.assign[u] = 1
}

func (s *searcher) popCharge(u int) {
	row := s.W[u*s.nu : (u+1)*s.nu]
	for j := 0; j < s.nu; j++ {
		s.pot[j] -= row[j]
	}
	s.charged = s.charged[:len(s.charged)-1]
	s.energy -= s.ons[u] + s.pot[u]
}

func (s *searcher) dfs(k int) {
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
	if b := s.bound(k); b > s.globalBest()+pruneEps {
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
			s.pushCharge(k)
			s.dfs(k + 1)
			s.popCharge(k)
		} else {
			s.assign[k] = 0
			s.dfs(k + 1)
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
