package sim

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/sidb"
)

func TestMatchesExhaustiveRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(seed)%13
		perturbers := int(seed) % 3
		l := &sidb.Layout{}
		seen := map[[2]int]bool{}
		for i := 0; i < n; i++ {
			for {
				x, y := rng.Intn(30), rng.Intn(30)
				if !seen[[2]int{x, y}] {
					seen[[2]int{x, y}] = true
					role := sidb.RoleNormal
					if i < perturbers {
						role = sidb.RolePerturber
					}
					l.AddCell(x, y, role)
					break
				}
			}
		}
		params := ParamsFig5
		if seed%2 == 1 {
			params = ParamsFig1c
		}
		eng := NewEngine(l, params)
		_, want, err := eng.Exhaustive(context.Background())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		gs, got, st, err := eng.QuickExact(QuickExactOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("seed %d: quickexact %v != exhaustive %v (stats %+v)", seed, got, want, st)
		}
		if e := eng.Energy(gs); math.Abs(e-got) > 1e-12 {
			t.Errorf("seed %d: reported energy %v != config energy %v", seed, got, e)
		}
		if !eng.PopulationStable(gs) {
			t.Errorf("seed %d: ground state not population stable", seed)
		}
	}
}

func TestLargeInstanceExact(t *testing.T) {
	// 32 free dots: infeasible for ExGS (2^32 configurations) but solved
	// exactly by the pruned search. Annealing must never beat the proven
	// minimum, and the result must be population stable.
	rng := rand.New(rand.NewSource(42))
	l := &sidb.Layout{}
	seen := map[[2]int]bool{}
	for i := 0; i < 32; i++ {
		for {
			x, y := rng.Intn(48), rng.Intn(48)
			if !seen[[2]int{x, y}] {
				seen[[2]int{x, y}] = true
				l.AddCell(x, y, sidb.RoleNormal)
				break
			}
		}
	}
	eng := NewEngine(l, ParamsFig5)
	gs, en, st, err := eng.QuickExact(QuickExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.FreeDots != 32 {
		t.Fatalf("free dots = %d", st.FreeDots)
	}
	if !eng.PopulationStable(gs) {
		t.Error("ground state not population stable")
	}
	_, annealed := eng.Anneal(DefaultAnnealConfig())
	if annealed < en-1e-9 {
		t.Errorf("anneal %v beats quickexact %v — search is not exact", annealed, en)
	}
	t.Logf("32 free dots: E=%.6f eV, %d undecided after presolve, %d nodes, %d bound-pruned, %d stability-pruned",
		en, st.Undecided, st.Nodes, st.BoundPruned, st.StabilityPruned)
}

func TestDeterministicAcrossRunsAndWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := &sidb.Layout{}
	seen := map[[2]int]bool{}
	for i := 0; i < 20; i++ {
		for {
			x, y := rng.Intn(36), rng.Intn(36)
			if !seen[[2]int{x, y}] {
				seen[[2]int{x, y}] = true
				l.AddCell(x, y, sidb.RoleNormal)
				break
			}
		}
	}
	eng := NewEngine(l, ParamsFig5)
	var cfgs [][]bool
	var energies []float64
	for _, procs := range []int{1, 1, 4, 8} {
		prev := runtime.GOMAXPROCS(procs)
		gs, en, _, err := eng.QuickExact(QuickExactOptions{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, gs)
		energies = append(energies, en)
	}
	for i := 1; i < len(cfgs); i++ {
		if energies[i] != energies[0] {
			t.Errorf("run %d: energy %v != %v", i, energies[i], energies[0])
		}
		for j := range cfgs[i] {
			if cfgs[i][j] != cfgs[0][j] {
				t.Errorf("run %d: configuration differs at dot %d", i, j)
				break
			}
		}
	}
}

func TestPerturbersStayPinned(t *testing.T) {
	l := &sidb.Layout{}
	l.AddCell(0, 0, sidb.RolePerturber)
	l.AddCell(1, 1, sidb.RolePerturber)
	l.AddCell(10, 10, sidb.RoleNormal)
	eng := NewEngine(l, ParamsFig5)
	gs, _, _, err := eng.QuickExact(QuickExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !gs[0] || !gs[1] {
		t.Error("perturbers must stay charged")
	}
}

func TestAllFixedAndEmpty(t *testing.T) {
	l := &sidb.Layout{}
	l.AddCell(0, 0, sidb.RolePerturber)
	l.AddCell(5, 5, sidb.RolePerturber)
	eng := NewEngine(l, ParamsFig5)
	gs, en, st, err := eng.QuickExact(QuickExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.FreeDots != 0 || len(gs) != 2 || !gs[0] || !gs[1] {
		t.Errorf("all-fixed solve wrong: %v %v %+v", gs, en, st)
	}
	if math.Abs(en-eng.Energy(gs)) > 1e-12 {
		t.Error("all-fixed energy inconsistent")
	}

	empty := NewEngine(&sidb.Layout{}, ParamsFig5)
	gs, en, _, err = empty.QuickExact(QuickExactOptions{})
	if err != nil || len(gs) != 0 || en != 0 {
		t.Errorf("empty layout: gs=%v en=%v err=%v", gs, en, err)
	}
}

func TestNodeBudgetExhaustion(t *testing.T) {
	// A dense cluster with a hopeless budget must fail loudly, not hang or
	// return a silently inexact result.
	rng := rand.New(rand.NewSource(3))
	l := &sidb.Layout{}
	seen := map[[2]int]bool{}
	for i := 0; i < 24; i++ {
		for {
			x, y := rng.Intn(20), rng.Intn(20)
			if !seen[[2]int{x, y}] {
				seen[[2]int{x, y}] = true
				l.AddCell(x, y, sidb.RoleNormal)
				break
			}
		}
	}
	eng := NewEngine(l, ParamsFig5)
	_, _, _, err := eng.QuickExact(QuickExactOptions{NodeBudget: 1})
	if err == nil {
		// The budget is only checked every 1024 nodes; an instance solved
		// in fewer nodes legitimately succeeds. Verify the search stayed
		// tiny in that case.
		_, _, st, _ := eng.QuickExact(QuickExactOptions{})
		if st.Nodes > 2048 {
			t.Errorf("expected budget exhaustion error on %d-node search", st.Nodes)
		}
	}
}

func TestLookupQuickExact(t *testing.T) {
	s, err := Lookup("quickexact")
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsExact() || s.Name() != "quickexact" {
		t.Error("quickexact solver metadata wrong")
	}
	l := &sidb.Layout{}
	l.AddCell(0, 0, sidb.RoleNormal)
	l.AddCell(6, 0, sidb.RoleNormal)
	eng := NewEngine(l, ParamsFig5)
	sol, err := s.Solve(eng, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, want, _ := eng.Exhaustive(context.Background())
	if math.Abs(sol.EnergyEV-want) > 1e-12 || sol.Solver != "quickexact" || !sol.Exact {
		t.Errorf("solver solution wrong: %+v want energy %v", sol, want)
	}

	// The automatic dispatcher must route exact instances through it.
	auto, _ := Lookup("auto")
	sol, err = auto.Solve(eng, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Solver != "quickexact" {
		t.Errorf("auto dispatched to %q, want quickexact", sol.Solver)
	}
}

func TestGroundStateRoutesThroughQuickExact(t *testing.T) {
	// Engine.GroundState must agree with the exact backends.
	rng := rand.New(rand.NewSource(21))
	l := &sidb.Layout{}
	seen := map[[2]int]bool{}
	for i := 0; i < 10; i++ {
		for {
			x, y := rng.Intn(30), rng.Intn(30)
			if !seen[[2]int{x, y}] {
				seen[[2]int{x, y}] = true
				l.AddCell(x, y, sidb.RoleNormal)
				break
			}
		}
	}
	eng := NewEngine(l, ParamsFig5)
	gs, en := eng.GroundState()
	qs, qe, _, err := eng.QuickExact(QuickExactOptions{NodeBudget: DefaultNodeBudget})
	if err != nil {
		t.Fatal(err)
	}
	if en != qe || !slices.Equal(gs, qs) {
		t.Errorf("GroundState (%v, %v) != QuickExact (%v, %v)", gs, en, qs, qe)
	}
	_, want, _ := eng.Exhaustive(context.Background())
	if math.Abs(en-want) > 1e-9 {
		t.Errorf("GroundState %v != exhaustive %v", en, want)
	}
}

func TestStatsAndTracerMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	l := &sidb.Layout{}
	seen := map[[2]int]bool{}
	for i := 0; i < 14; i++ {
		for {
			x, y := rng.Intn(30), rng.Intn(30)
			if !seen[[2]int{x, y}] {
				seen[[2]int{x, y}] = true
				l.AddCell(x, y, sidb.RoleNormal)
				break
			}
		}
	}
	eng := NewEngine(l, ParamsFig5)
	tr := obs.New()
	_, _, st, err := eng.QuickExact(QuickExactOptions{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if st.FreeDots != 14 || st.Nodes == 0 {
		t.Errorf("stats incomplete: %+v", st)
	}
	if st.PresolveCharged+st.PresolveNeutral+st.Undecided != 14 {
		t.Errorf("presolve + undecided must cover all free dots: %+v", st)
	}
	rep := tr.Report("t")
	if rep.Counter("sim/quickexact/solves") != 1 {
		t.Error("solve counter missing")
	}
	if rep.Counter("sim/quickexact/nodes") != st.Nodes {
		t.Errorf("node counter %d != stats %d", rep.Counter("sim/quickexact/nodes"), st.Nodes)
	}
}

// TestSearcherUnwindsExactly: the potential stack returns a searcher to
// level 0 bit for bit, and the bound pushCharge fuses into its loop equals
// a fresh bound scan. The searcher runs over the whole layout (no
// presolve): ons is μ_ and W the interaction matrix.
func TestSearcherUnwindsExactly(t *testing.T) {
	for _, tc := range []struct{ n, span int }{{20, 40}, {30, 48}} {
		eng := NewEngine(benchLayout(tc.n, 7, tc.span), ParamsFig5)
		nu := eng.NumDots()
		ons := make([]float64, nu)
		W := make([]float64, nu*nu)
		for i := range nu {
			ons[i] = eng.Params.MuMinus
			copy(W[i*nu:(i+1)*nu], eng.V[i])
		}
		eBase := eng.Energy(make([]bool, nu))
		atLevel0 := func(s *searcher, when string) {
			t.Helper()
			if len(s.charged) != 0 || math.Float64bits(s.energy) != math.Float64bits(eBase) {
				t.Errorf("%d dots, %s: %d charges, energy %v, want 0 and %v", tc.n, when, len(s.charged), s.energy, eBase)
			}
			for j, p := range s.pot {
				if math.Float64bits(p) != 0 {
					t.Errorf("%d dots, %s: potential %d = %v, want +0", tc.n, when, j, p)
					break
				}
			}
		}

		var best atomic.Uint64
		best.Store(math.Float64bits(math.Inf(1)))
		s := newSearcher(nil, nu, ons, W, eBase, &best, nil)
		s.dfs(0, s.bound(0))
		if !s.haveBest {
			t.Fatalf("%d dots: full search recorded no leaf", tc.n)
		}
		atLevel0(s, "after dfs(0)")

		// Random paths: decide dots in order (charge where stable, else
		// neutral), backtrack to a random depth now and then.
		rng := rand.New(rand.NewSource(int64(tc.n)))
		s.reset()
		var decided []bool // decided[k]: dot k was charged
		backTo := func(depth int) {
			for len(decided) > depth {
				if decided[len(decided)-1] {
					s.popCharge()
				}
				decided = decided[:len(decided)-1]
			}
		}
		for step := 0; step < 4000; step++ {
			k := len(decided)
			if k == nu || k > 0 && rng.Intn(4) == 0 {
				backTo(rng.Intn(k + 1))
				continue
			}
			if rng.Intn(2) == 0 || !s.chargeOK(k) {
				s.assign[k] = 0
				decided = append(decided, false)
				continue
			}
			fused := s.pushCharge(k)
			decided = append(decided, true)
			if fresh := s.bound(k + 1); math.Float64bits(fused) != math.Float64bits(fresh) {
				t.Fatalf("%d dots, step %d: fused bound %v != bound(%d) %v", tc.n, step, fused, k+1, fresh)
			}
		}
		backTo(0)
		atLevel0(s, "after the random paths")
	}
}

// TestQuickExactAllocs pins the allocations of an unpinned solve on the
// 20-dot benchmark layout: the reduced problem, one searcher per worker
// and the shard prefixes, 52 at GOMAXPROCS 1. The search runs from an
// infinite incumbent; the 2×150-sweep seed anneal that once ran before it
// (random sources, walkers, restart state) took the count to 71.
func TestQuickExactAllocs(t *testing.T) {
	eng := NewEngine(benchLayout(20, 7, 40), ParamsFig5)
	const maxAllocs = 56
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, _, err := eng.QuickExact(QuickExactOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("QuickExact on 20 dots allocates %v times, want at most %d", allocs, maxAllocs)
	}
}
