package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// formula builds one instance on s and solves it.
type formula struct {
	name  string
	solve func(s *Solver) Status
}

// pigeonhole adds the n+1-pigeons-into-n-holes clauses.
func pigeonhole(s *Solver, n int) {
	p := make([][]Lit, n+1)
	for i := range p {
		p[i] = make([]Lit, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i <= n; i++ {
		s.AddClause(p[i]...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				s.AddClause(p[i][j].Neg(), p[k][j].Neg())
			}
		}
	}
}

// random3SAT adds nClauses random 3-literal clauses over nVars fresh
// variables and returns them.
func random3SAT(s *Solver, seed int64, nVars, nClauses int) [][]Lit {
	rng := rand.New(rand.NewSource(seed))
	vars := make([]Lit, nVars)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	cls := make([][]Lit, nClauses)
	for c := range cls {
		cl := make([]Lit, 3)
		for k := range cl {
			cl[k] = vars[rng.Intn(nVars)]
			if rng.Intn(2) == 0 {
				cl[k] = cl[k].Neg()
			}
		}
		cls[c] = cl
		s.AddClause(cl...)
	}
	return cls
}

// resetFormulas covers every way a solve can end: SAT, UNSAT found in
// search and while adding clauses (ok=false at the top level), a conflict
// budget cut-off, a solve under assumptions, and a recorded API error.
// The large random instance spans several literal and clause chunks.
var resetFormulas = []formula{
	{"api-error", func(s *Solver) Status {
		a := s.NewVar()
		s.AddClause(a, unknownLit(1))
		return s.Solve()
	}},
	{"random-3sat", func(s *Solver) Status {
		random3SAT(s, 1, 60, 240)
		return s.Solve()
	}},
	{"pigeonhole-6", func(s *Solver) Status {
		pigeonhole(s, 6)
		return s.Solve()
	}},
	{"unsat-while-adding", func(s *Solver) Status {
		a, b := s.NewVar(), s.NewVar()
		s.AddClause(a, b)
		s.AddClause(a)
		s.AddClause(a.Neg())
		return s.Solve()
	}},
	{"budget-cut-off", func(s *Solver) Status {
		pigeonhole(s, 8)
		s.MaxConflicts = 8000 // enough for several learnt-clause reductions
		return s.Solve()
	}},
	{"assumptions", func(s *Solver) Status {
		cls := random3SAT(s, 2, 40, 150)
		return s.Solve(cls[0][0].Neg(), cls[1][0].Neg(), cls[2][1])
	}},
	{"random-3sat-large", func(s *Solver) Status {
		random3SAT(s, 3, 1200, 4000)
		return s.Solve()
	}},
	{"xor-chain", func(s *Solver) Status {
		acc := s.NewVar()
		for i := 0; i < 30; i++ {
			v, out := s.NewVar(), s.NewVar()
			addXor(s, acc, v, out)
			acc = out
		}
		s.AddClause(acc)
		return s.Solve()
	}},
}

// outcome is everything a caller can observe of a finished solve.
type outcome struct {
	status        Status
	vars, clauses int
	model         []bool
	metrics       Metrics
	errSet        bool
}

func observe(s *Solver, st Status) outcome {
	model := make([]bool, s.NumVars()+1)
	for v := 1; v <= s.NumVars() && v < len(s.model); v++ {
		model[v] = s.model[v] == lTrue
	}
	return outcome{
		status: st, vars: s.NumVars(), clauses: s.NumClauses(),
		model: model, metrics: s.Metrics(), errSet: s.Err() != nil,
	}
}

// TestResetMatchesFresh runs a sequence of formulas twice over on one
// solver reused through Reset, and checks each against New(): the same
// status, formula size, model, Metrics and Err.
func TestResetMatchesFresh(t *testing.T) {
	reused := New()
	var statuses []Status
	for round := 0; round < 2; round++ {
		for _, f := range resetFormulas {
			want := func() outcome { s := New(); return observe(s, f.solve(s)) }()
			if round == 0 {
				statuses = append(statuses, want.status)
			}
			reused.Reset()
			if err := reused.Err(); err != nil || reused.MaxConflicts != 0 {
				t.Fatalf("%s: after Reset Err = %v, MaxConflicts = %d", f.name, err, reused.MaxConflicts)
			}
			got := observe(reused, f.solve(reused))
			if got.status != want.status || got.vars != want.vars || got.clauses != want.clauses ||
				got.metrics != want.metrics || got.errSet != want.errSet || !slices.Equal(got.model, want.model) {
				t.Errorf("round %d, %s: reused solver gave %+v, new solver %+v", round, f.name, got, want)
			}
		}
	}
	if want := []Status{Unknown, Sat, Unsat, Unsat, Unknown}; !slices.Equal(statuses[:5], want) {
		t.Errorf("formula statuses %v, want %v first: the sequence no longer covers every outcome", statuses, want)
	}
}

// TestArenaModelsVerify checks a formula whose literal arena and clause
// store regrow many times, on a new and on a reset solver: every model
// satisfies every clause as the caller wrote it.
func TestArenaModelsVerify(t *testing.T) {
	s := New()
	for round := 0; round < 2; round++ {
		s.Reset()
		cls := random3SAT(s, 4, 2000, 6000) // 18000 literals, 6000 clauses
		if s.Solve() != Sat {
			t.Fatal("under-constrained random 3-SAT must be satisfiable")
		}
		for _, cl := range cls {
			if !slices.ContainsFunc(cl, s.Value) {
				t.Fatalf("round %d: model violates clause %v", round, cl)
			}
		}
	}
}

// TestAddClauseCopiesLiterals checks that AddClause keeps no reference to
// the caller's slice: reusing one buffer for every clause, as encoders
// do, must not rewrite clauses already added.
func TestAddClauseCopiesLiterals(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	buf := []Lit{a, b}
	s.AddClause(buf...) // a | b
	buf[0], buf[1] = b.Neg(), c
	s.AddClause(buf...) // !b | c
	buf[0], buf[1] = a.Neg(), a.Neg()
	s.AddClause(buf[:1]...) // !a
	buf[0], buf[1] = c.Neg(), c.Neg()
	// The formula forces !a, then b, then c; the buffer now reads !c.
	if s.Solve() != Sat {
		t.Fatal("formula must be satisfiable")
	}
	if s.Value(a) || !s.Value(b) || !s.Value(c) {
		t.Errorf("model a=%v b=%v c=%v, want false true true", s.Value(a), s.Value(b), s.Value(c))
	}
	if s.NumClauses() != 2 {
		t.Errorf("NumClauses = %d, want 2 (the unit is assigned, not stored)", s.NumClauses())
	}
}

// TestAddClauseAllocs guards the clause intake: building a formula on a
// new solver stays below one allocation per clause, amortised over the
// literal and clause chunks, and a reset solver rebuilding it in the
// storage it kept allocates nothing.
func TestAddClauseAllocs(t *testing.T) {
	const nVars, nClauses = 300, 3000
	vars := make([]Lit, nVars)
	for i, ls := 0, New(); i < nVars; i++ {
		vars[i] = ls.NewVar() // a new solver's i-th variable, as build makes it
	}
	rng := rand.New(rand.NewSource(5))
	cls := make([][3]Lit, nClauses)
	for i := range cls {
		for k := range cls[i] {
			cls[i][k] = vars[rng.Intn(nVars)]
			if rng.Intn(2) == 0 {
				cls[i][k] = cls[i][k].Neg()
			}
		}
	}
	build := func(s *Solver) {
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		for i := range cls {
			s.AddClause(cls[i][0], cls[i][1], cls[i][2])
		}
	}
	fresh := testing.AllocsPerRun(5, func() { build(New()) })
	reused := New()
	reset := testing.AllocsPerRun(5, func() { reused.Reset(); build(reused) })
	if per := fresh / nClauses; per >= 1 {
		t.Errorf("new solver: %.2f allocations per AddClause, want < 1", per)
	}
	if reset != 0 {
		t.Errorf("reset solver: %v allocations rebuilding the formula, want 0", reset)
	}
}
