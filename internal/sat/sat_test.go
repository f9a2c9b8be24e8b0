package sat

import (
	"math/rand"
	"testing"
)

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(a, b)
	s.AddClause(a.Neg(), b)
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v", got)
	}
	if !s.Value(b) {
		t.Error("b must be true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(a)
	s.AddClause(a.Neg())
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Error("empty clause must report failure")
	}
	if s.Solve() != Unsat {
		t.Error("solver must be unsat after empty clause")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(a, a.Neg(), b)
	s.AddClause(b.Neg())
	if s.Solve() != Sat {
		t.Error("tautologies must not constrain")
	}
}

func TestDuplicateLiterals(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(a, a, a)
	if s.Solve() != Sat || !s.Value(a) {
		t.Error("duplicate literal clause must behave as unit")
	}
}

func TestXorChainSat(t *testing.T) {
	// x1 xor x2 xor ... xor xn = 1 as CNF over pairs via fresh vars.
	s := New()
	n := 20
	vars := make([]Lit, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	acc := vars[0]
	for i := 1; i < n; i++ {
		out := s.NewVar()
		addXor(s, acc, vars[i], out)
		acc = out
	}
	s.AddClause(acc)
	if s.Solve() != Sat {
		t.Fatal("xor chain must be satisfiable")
	}
	parity := false
	for _, v := range vars {
		if s.Value(v) {
			parity = !parity
		}
	}
	if !parity {
		t.Error("model violates the xor constraint")
	}
}

// addXor encodes out <-> a xor b.
func addXor(s *Solver, a, b, out Lit) {
	s.AddClause(a.Neg(), b.Neg(), out.Neg())
	s.AddClause(a, b, out.Neg())
	s.AddClause(a, b.Neg(), out)
	s.AddClause(a.Neg(), b, out)
}

func TestPigeonholeUnsat(t *testing.T) {
	// n+1 pigeons into n holes is unsatisfiable.
	for n := 2; n <= 5; n++ {
		s := New()
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
		if got := s.Solve(); got != Unsat {
			t.Errorf("PHP(%d): got %v", n, got)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	// n pigeons into n holes is satisfiable.
	n := 5
	s := New()
	p := make([][]Lit, n)
	for i := range p {
		p[i] = make([]Lit, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i < n; i++ {
		s.AddClause(p[i]...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			for k := i + 1; k < n; k++ {
				s.AddClause(p[i][j].Neg(), p[k][j].Neg())
			}
		}
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v", got)
	}
	// Verify the model is a valid assignment.
	for i := 0; i < n; i++ {
		count := 0
		for j := 0; j < n; j++ {
			if s.Value(p[i][j]) {
				count++
			}
		}
		if count < 1 {
			t.Errorf("pigeon %d unplaced", i)
		}
	}
}

func TestRandom3SATModelsVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		nVars := 30
		nClauses := 100 // well below the ~4.26 phase transition: mostly SAT
		s := New()
		vars := make([]Lit, nVars)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		clauses := make([][]Lit, 0, nClauses)
		for c := 0; c < nClauses; c++ {
			cl := make([]Lit, 3)
			for k := range cl {
				l := vars[rng.Intn(nVars)]
				if rng.Intn(2) == 0 {
					l = l.Neg()
				}
				cl[k] = l
			}
			clauses = append(clauses, cl)
			s.AddClause(cl...)
		}
		if s.Solve() != Sat {
			continue // rare UNSAT instances are fine; skip
		}
		for _, cl := range clauses {
			ok := false
			for _, l := range cl {
				if s.Value(l) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("trial %d: model violates clause %v", trial, cl)
			}
		}
	}
}

func TestRandomUnsatByForcedContradiction(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		s := New()
		n := 15
		vars := make([]Lit, n)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		// Random implications plus a forced cycle a -> ... -> !a and !a -> a.
		for c := 0; c < 30; c++ {
			a := vars[rng.Intn(n)]
			b := vars[rng.Intn(n)]
			s.AddClause(a.Neg(), b)
		}
		a := vars[0]
		s.AddClause(a)       // a
		s.AddClause(a.Neg()) // !a
		if s.Solve() != Unsat {
			t.Fatalf("trial %d must be unsat", trial)
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(a.Neg(), b)
	s.AddClause(b.Neg(), c)
	if s.Solve(a) != Sat {
		t.Fatal("satisfiable under a")
	}
	if !s.Value(c) {
		t.Error("a -> b -> c must force c")
	}
	// Contradictory assumptions.
	if s.Solve(a, c.Neg()) != Unsat {
		t.Error("a with !c must be unsat")
	}
	// Solver must remain reusable.
	if s.Solve(a.Neg()) != Sat {
		t.Error("still satisfiable under !a")
	}
	if s.Solve() != Sat {
		t.Error("still satisfiable with no assumptions")
	}
}

func TestAssumptionsRepeatedIncremental(t *testing.T) {
	// Incremental use: alternating assumption polarities many times.
	s := New()
	n := 10
	vars := make([]Lit, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		s.AddClause(vars[i].Neg(), vars[i+1]) // chain of implications
	}
	for round := 0; round < 20; round++ {
		if s.Solve(vars[0]) != Sat {
			t.Fatal("chain sat under head")
		}
		if !s.Value(vars[n-1]) {
			t.Fatal("implication chain must propagate")
		}
		if s.Solve(vars[0], vars[n-1].Neg()) != Unsat {
			t.Fatal("contradiction must be detected")
		}
	}
}

func TestGraphColoring(t *testing.T) {
	// A 5-cycle is 3-colorable but not 2-colorable.
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	build := func(colors int) *Solver {
		s := New()
		v := make([][]Lit, 5)
		for i := range v {
			v[i] = make([]Lit, colors)
			for c := range v[i] {
				v[i][c] = s.NewVar()
			}
			s.AddClause(v[i]...)
			for c1 := 0; c1 < colors; c1++ {
				for c2 := c1 + 1; c2 < colors; c2++ {
					s.AddClause(v[i][c1].Neg(), v[i][c2].Neg())
				}
			}
		}
		for _, e := range edges {
			for c := 0; c < colors; c++ {
				s.AddClause(v[e[0]][c].Neg(), v[e[1]][c].Neg())
			}
		}
		return s
	}
	if build(2).Solve() != Unsat {
		t.Error("C5 must not be 2-colorable")
	}
	if build(3).Solve() != Sat {
		t.Error("C5 must be 3-colorable")
	}
}

func TestMaxConflictsBudget(t *testing.T) {
	// A hard pigeonhole instance with a tiny budget must return Unknown.
	n := 8
	s := New()
	s.MaxConflicts = 10
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
	if got := s.Solve(); got != Unknown {
		t.Errorf("got %v, want Unknown under budget", got)
	}
}

func TestLitAccessors(t *testing.T) {
	s := New()
	var l Lit
	for i := 0; i < 5; i++ {
		l = s.NewVar()
	}
	if l.Var() != 5 || !l.Sign() || l.Neg() == l || l.Neg().Neg() != l || l.Neg().Var() != 5 || l.Neg().Sign() {
		t.Error("literal accessors broken")
	}
	if l.String() != "x5" || l.Neg().String() != "!x5" {
		t.Error("literal formatting broken")
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Error("status names broken")
	}
}

func TestMetricsCounted(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(a, b)
	s.AddClause(a.Neg(), b.Neg())
	s.Solve()
	if m := s.Metrics(); m.Decisions == 0 {
		t.Errorf("expected at least one decision, metrics %+v", m)
	}
}

// TestMetricsRestartsAndLearnedDB drives a hard pigeonhole instance far
// enough that the solver restarts and learns clauses, checking the
// named-field counters the old Stats() triple did not expose.
func TestMetricsRestartsAndLearnedDB(t *testing.T) {
	n := 7
	s := New()
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
	if got := s.Solve(); got != Unsat {
		t.Fatalf("pigeonhole(%d) = %v, want Unsat", n, got)
	}
	m := s.Metrics()
	if m.Conflicts == 0 || m.Decisions == 0 || m.Propagations == 0 {
		t.Errorf("effort counters empty: %+v", m)
	}
	if m.Restarts == 0 {
		t.Errorf("expected restarts on pigeonhole(%d): %+v", n, m)
	}
	if m.Learned == 0 {
		t.Errorf("expected learnt clauses: %+v", m)
	}
	if m.LearnedDB != m.Learned-m.LearnedDeleted {
		t.Errorf("learned DB accounting broken: %+v", m)
	}
}

func TestLevel0UnitPropagationInAddClause(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(a)
	s.AddClause(a.Neg(), b)
	// b must now be implied at level 0; adding !b yields immediate UNSAT.
	if s.AddClause(b.Neg()) {
		t.Error("adding !b must fail at level 0")
	}
	if s.Solve() != Unsat {
		t.Error("formula must be unsat")
	}
}

func BenchmarkPigeonhole7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := 7
		s := New()
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
		if s.Solve() != Unsat {
			b.Fatal("PHP must be unsat")
		}
	}
}

// unknownLit returns a literal of a variable that a solver with n
// variables has not allocated.
func unknownLit(n int) Lit {
	other := New()
	var l Lit
	for i := 0; i <= n; i++ {
		l = other.NewVar()
	}
	return l
}

func TestAddClauseUnknownLiteralIsError(t *testing.T) {
	s := New()
	a := s.NewVar()
	if s.AddClause(a, unknownLit(1)) {
		t.Error("clause with an unknown literal must be rejected")
	}
	if s.Err() == nil {
		t.Fatal("unknown literal must record an API error, not panic")
	}
	// The solver is poisoned: further clauses are rejected and Solve
	// answers Unknown, never a bogus Sat/Unsat.
	if s.AddClause(a) {
		t.Error("AddClause after an API error must be rejected")
	}
	if got := s.Solve(); got != Unknown {
		t.Errorf("Solve after API error = %v, want Unknown", got)
	}
}

func TestAddClauseZeroLiteralIsError(t *testing.T) {
	var zero Lit
	for _, l := range []Lit{zero, zero.Neg()} {
		s := New()
		s.NewVar()
		if s.AddClause(l) {
			t.Errorf("clause with the zero literal %v must be rejected", l)
		}
		if s.Err() == nil {
			t.Fatalf("the zero literal %v must record an API error", l)
		}
	}
}

func TestHealthySolverHasNoErr(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(a, b)
	if s.Solve() != Sat {
		t.Fatal("trivial formula must be sat")
	}
	if s.Err() != nil {
		t.Fatalf("healthy solver reports Err %v", s.Err())
	}
}
