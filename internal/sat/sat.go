// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-watched-literal propagation, first-UIP learning, VSIDS
// branching, phase saving, and Luby restarts.
//
// The solver substitutes the Z3 SMT backend of the original Bestagon flow
// (see DESIGN.md §4): the exact physical design of flow step (4), the
// SAT-based equivalence check of step (5), and the exact-synthesis NPN
// database of step (2) all reduce to plain Boolean satisfiability.
package sat

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/faults"
)

// Lit is a literal: variable index (1-based) with sign. Positive values are
// positive literals, negative values negated ones. 0 is invalid.
type Lit int32

// Neg returns the negated literal.
func (l Lit) Neg() Lit { return -l }

// Var returns the 1-based variable index of the literal.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Sign reports whether the literal is positive.
func (l Lit) Sign() bool { return l > 0 }

// String formats the literal as "x3" or "!x3".
func (l Lit) String() string {
	if l < 0 {
		return fmt.Sprintf("!x%d", -l)
	}
	return fmt.Sprintf("x%d", l)
}

// Status is the result of a Solve call.
type Status int

// Solver outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// lbool is a three-valued boolean used for assignments.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// clause is a disjunction of literals; learnt marks conflict clauses. Its
// n literals are arena[start:start+n] of the solver that holds it.
type clause struct {
	start, n uint32
	learnt   bool
	deleted  bool
	activity float64
}

// watcher records a clause watching a literal plus the blocking literal
// optimization, in 8 bytes: cref is the clause index shifted left by one,
// with the low bit set for a binary clause. A binary clause's blocker is
// always its other literal, so propagation settles it without loading the
// clause.
type watcher struct {
	cref    uint32
	blocker Lit
}

// newWatcher returns the watcher of clause idx with the given blocker.
func newWatcher(idx int, binary bool, blocker Lit) watcher {
	w := watcher{cref: uint32(idx) << 1, blocker: blocker}
	if binary {
		w.cref |= 1
	}
	return w
}

// clauseIdx returns the index of the watched clause.
func (w watcher) clauseIdx() int { return int(w.cref >> 1) }

// binary reports whether the watched clause has two literals.
func (w watcher) binary() bool { return w.cref&1 == 1 }

// Solver is a CDCL SAT solver. The zero value is not usable; construct with
// New.
type Solver struct {
	numVars  int
	clauses  []clause
	arena    []Lit       // every clause's literals, in clause order
	nProblem int         // attached problem (non-learnt) clauses
	scratch  []Lit       // AddClause's normalisation buffer
	learnt   []Lit       // analyze's learnt-clause buffer
	toClear  []int       // analyze's seen-variable buffer
	watches  [][]watcher // indexed by watchIdx(lit)
	vals     []lbool     // literal values by watchIdx(lit); vals[2v] is variable v's
	locked   []bool      // reduceDB's reason-clause marks, by clause index
	level    []int
	reason   []int // clause index that implied the variable, or -1
	trail    []Lit
	trailLim []int
	qhead    int

	activity  []float64
	varInc    float64
	order     *varHeap
	phase     []bool  // saved phases
	seen      []bool  // scratch for conflict analysis
	model     []lbool // snapshot of the last satisfying assignment
	ok        bool    // false once a top-level conflict is found
	apiErr    error   // first API misuse (see Err); solver is then unusable
	claInc    float64 // clause activity increment
	maxLearnt int
	m         Metrics

	// MaxConflicts bounds the search effort; 0 means unlimited. When the
	// bound is hit, Solve returns Unknown.
	MaxConflicts int64
}

// Metrics counts the solver's search effort with named fields. The solver
// updates the struct in place while solving; snapshot it with
// Solver.Metrics at any time (typically after Solve returns).
type Metrics struct {
	// Conflicts is the number of conflicts encountered.
	Conflicts int64 `json:"conflicts"`
	// Decisions is the number of branching decisions made.
	Decisions int64 `json:"decisions"`
	// Propagations is the number of unit propagations performed.
	Propagations int64 `json:"propagations"`
	// Restarts is the number of Luby restarts taken.
	Restarts int64 `json:"restarts"`
	// Learned is the total number of learnt clauses added.
	Learned int64 `json:"learned"`
	// LearnedDeleted is the number of learnt clauses dropped by database
	// reduction.
	LearnedDeleted int64 `json:"learned_deleted"`
	// LearnedDB is the current learnt-clause database size.
	LearnedDB int64 `json:"learned_db"`
}

// Add accumulates another metrics snapshot into m (used to total effort
// across several solver instances).
func (m *Metrics) Add(o Metrics) {
	m.Conflicts += o.Conflicts
	m.Decisions += o.Decisions
	m.Propagations += o.Propagations
	m.Restarts += o.Restarts
	m.Learned += o.Learned
	m.LearnedDeleted += o.LearnedDeleted
	m.LearnedDB += o.LearnedDB
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{}
	s.order = &varHeap{solver: s}
	s.Reset()
	return s
}

// Reset returns the solver to the state New returns — no variables or
// clauses, fresh activities and increments, no model, no recorded error,
// zero Metrics and MaxConflicts — while keeping every backing array, the
// watch lists' included, so the next formula is built without regrowing
// them. A reset solver behaves exactly like a new one on any sequence of
// calls.
func (s *Solver) Reset() {
	s.numVars = 0
	s.clauses = s.clauses[:0]
	s.arena = s.arena[:0]
	s.nProblem = 0
	s.watches = s.watches[:0]
	s.addWatchSlots()
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.varInc, s.claInc = 1.0, 1.0
	s.order.heap = s.order.heap[:0]
	s.order.pos = s.order.pos[:0]
	s.model = s.model[:0]
	s.ok = true
	s.apiErr = nil
	s.maxLearnt = 3000
	s.m = Metrics{}
	s.MaxConflicts = 0
	// Variable index 0 is unused.
	s.vals = append(s.vals[:0], lUndef, lUndef)
	s.level = append(s.level[:0], 0)
	s.reason = append(s.reason[:0], -1)
	s.activity = append(s.activity[:0], 0)
	s.phase = append(s.phase[:0], false)
	s.seen = append(s.seen[:0], false)
}

// addWatchSlots appends the two empty watch lists of one literal pair,
// re-extending into retained lists (and their capacity) where it can.
func (s *Solver) addWatchSlots() {
	n := len(s.watches)
	if cap(s.watches) < n+2 {
		s.watches = append(s.watches, nil, nil)
		return
	}
	s.watches = s.watches[:n+2]
	s.watches[n] = s.watches[n][:0]
	s.watches[n+1] = s.watches[n+1][:0]
}

// watchIdx maps a literal to its watch-list and value slot: 2v for the
// positive literal of variable v, 2v+1 for the negative one.
func watchIdx(l Lit) int {
	m := int(l >> 31) // -1 for a negative literal, else 0
	return (int(l)^m-m)<<1 | m&1
}

// NewVar allocates a fresh variable and returns its positive literal.
func (s *Solver) NewVar() Lit {
	s.numVars++
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.addWatchSlots()
	s.order.push(s.numVars)
	return Lit(s.numVars)
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.numVars }

// NumClauses returns the number of problem clauses added. Units, which
// are assigned at once, and clauses that simplify away are not counted.
func (s *Solver) NumClauses() int { return s.nProblem }

// Metrics returns a snapshot of the search-effort counters.
func (s *Solver) Metrics() Metrics { return s.m }

// value returns the current assignment of a literal.
func (s *Solver) value(l Lit) lbool { return s.vals[watchIdx(l)] }

// AddClause adds a clause; returns false if the formula became trivially
// unsatisfiable. Literals must reference variables from NewVar: a clause
// with an unknown literal, or one added while a search is in progress, is
// rejected (false) and recorded as a usage error — the solver is then
// stuck at Unknown until the error is inspected via Err. Misuse thus
// surfaces as an error at the API boundary instead of a panic that would
// tear down a shared worker; internal invariant violations still panic.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok || s.apiErr != nil {
		return false
	}
	if s.decisionLevel() != 0 {
		s.apiErr = fmt.Errorf("sat: AddClause called during search")
		return false
	}
	// Normalize in the scratch buffer: sort, dedupe, detect tautology,
	// drop false literals.
	s.scratch = append(s.scratch[:0], lits...)
	ls := s.scratch
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit
	for _, l := range ls {
		if l.Var() > s.numVars || l == 0 {
			s.apiErr = fmt.Errorf("sat: clause references unknown literal %d", l)
			return false
		}
		if l == prev {
			continue
		}
		if l == prev.Neg() && prev != 0 {
			return true // tautology
		}
		switch s.value(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue // drop
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(out[0], -1) {
			s.ok = false
			return false
		}
		if s.propagate() != -1 {
			s.ok = false
			return false
		}
		return true
	}
	s.newClause(out, false, 0)
	return true
}

// newClause copies lits (at least two) into the arena, stores the clause
// and registers it with the watch lists. It returns the clause index.
func (s *Solver) newClause(lits []Lit, learnt bool, activity float64) int {
	idx := len(s.clauses)
	s.clauses = append(s.clauses, clause{
		start: uint32(len(s.arena)), n: uint32(len(lits)),
		learnt: learnt, activity: activity,
	})
	s.arena = append(s.arena, lits...)
	if !learnt {
		s.nProblem++
	}
	binary := len(lits) == 2
	w0, w1 := watchIdx(lits[0].Neg()), watchIdx(lits[1].Neg())
	s.watches[w0] = append(s.watches[w0], newWatcher(idx, binary, lits[1]))
	s.watches[w1] = append(s.watches[w1], newWatcher(idx, binary, lits[0]))
	return idx
}

// lits returns the literals of clause c, which aliases the arena until
// the next clause is stored.
func (s *Solver) lits(c *clause) []Lit {
	return s.arena[c.start : c.start+c.n : c.start+c.n]
}

// decisionLevel returns the current decision level.
func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// enqueue assigns a literal true with the given reason clause (or -1).
func (s *Solver) enqueue(l Lit, reason int) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	i := watchIdx(l) // l.Neg() has slot i^1
	s.vals[i], s.vals[i^1] = lTrue, lFalse
	s.level[v] = s.decisionLevel()
	s.reason[v] = reason
	s.phase[v] = l.Sign()
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; returns the index of a conflicting
// clause or -1.
func (s *Solver) propagate() int {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.m.Propagations++
		notP := p.Neg()
		wi := watchIdx(p)
		ws := s.watches[wi]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			if w.binary() {
				// The blocker is the clause's other literal: the clause
				// is unit or conflicting.
				kept = append(kept, w)
				if s.value(w.blocker) == lFalse {
					// Write the literals in the order a longer clause's
					// swap leaves them (the false watch ¬p second), so
					// analyze visits them in the same order.
					at := s.clauses[w.clauseIdx()].start
					s.arena[at], s.arena[at+1] = w.blocker, notP
					kept = append(kept, ws[i+1:]...)
					s.watches[wi] = kept
					s.qhead = len(s.trail)
					return w.clauseIdx()
				}
				s.enqueue(w.blocker, w.clauseIdx())
				continue
			}
			c := &s.clauses[w.clauseIdx()]
			if c.deleted {
				continue // drop watcher of a deleted clause
			}
			lits := s.lits(c)
			// Ensure the false literal is lits[1].
			if lits[0] == notP {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if s.value(lits[0]) == lTrue {
				kept = append(kept, watcher{w.cref, lits[0]})
				continue
			}
			// Look for a new watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nw := watchIdx(lits[1].Neg())
					s.watches[nw] = append(s.watches[nw], watcher{w.cref, lits[0]})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, w)
			if s.value(lits[0]) == lFalse {
				// Conflict: restore remaining watchers and report.
				kept = append(kept, ws[i+1:]...)
				s.watches[wi] = kept
				s.qhead = len(s.trail)
				return w.clauseIdx()
			}
			s.enqueue(lits[0], w.clauseIdx())
		}
		s.watches[wi] = kept
	}
	return -1
}

// bumpClause increases a learnt clause's activity.
func (s *Solver) bumpClause(c *clause) {
	c.activity += s.claInc
	if c.activity > 1e100 {
		for i := range s.clauses {
			if cl := &s.clauses[i]; cl.learnt {
				cl.activity *= 1e-100
			}
		}
		s.claInc *= 1e-100
	}
}

// reduceDB deletes the lower-activity half of the learnt clauses, keeping
// binary clauses and clauses currently acting as reasons.
func (s *Solver) reduceDB() {
	s.locked = slices.Grow(s.locked[:0], len(s.clauses))[:len(s.clauses)]
	locked := s.locked
	clear(locked)
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r >= 0 {
			locked[r] = true
		}
	}
	var cands []int
	for i, c := range s.clauses {
		if c.learnt && !c.deleted && c.n > 2 && !locked[i] {
			cands = append(cands, i)
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		return s.clauses[cands[a]].activity < s.clauses[cands[b]].activity
	})
	for _, i := range cands[:len(cands)/2] {
		s.clauses[i].deleted = true
		s.m.LearnedDB--
		s.m.LearnedDeleted++
	}
}

// bumpVar increases a variable's VSIDS activity.
func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.numVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backtrack level. The clause lives in a
// buffer the next call overwrites.
func (s *Solver) analyze(confl int) ([]Lit, int) {
	learnt := append(s.learnt[:0], 0) // slot 0 reserved for the asserting literal
	seen := s.seen
	counter := 0
	var p Lit
	idx := len(s.trail) - 1

	c := &s.clauses[confl]
	toClear := s.toClear[:0]
	for {
		if c.learnt {
			s.bumpClause(c)
		}
		for _, q := range s.lits(c) {
			if q == p {
				continue
			}
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			toClear = append(toClear, v)
			s.bumpVar(v)
			if s.level[v] >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find next literal on the trail to resolve on.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		c = &s.clauses[s.reason[p.Var()]]
	}
	learnt[0] = p.Neg()
	for _, v := range toClear {
		seen[v] = false
	}
	s.learnt, s.toClear = learnt, toClear

	// Compute backtrack level: second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	return learnt, btLevel
}

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.vals[2*v], s.vals[2*v+1] = lUndef, lUndef
		s.reason[v] = -1
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// luby computes the Luby restart sequence (1,1,2,1,1,2,4,...).
func luby(i int64) int64 {
	// Find the finite subsequence that contains index i and its size.
	var size, seq int64 = 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i %= size
	}
	return 1 << uint(seq)
}

// ctxCheckMask throttles context polling: cancellation is checked once
// every ctxCheckMask+1 conflicts and once every ctxCheckMask+1 decisions,
// so even propagation-heavy searches notice a cancelled context within
// microseconds of work rather than running to completion.
const ctxCheckMask = 255

// Solve searches for a satisfying assignment of all added clauses, under
// the given assumptions (literals forced true for this call only).
func (s *Solver) Solve(assumptions ...Lit) Status {
	return s.SolveContext(context.Background(), assumptions...)
}

// Err returns the first API usage error recorded by AddClause (an unknown
// literal, or a clause added during search), or nil. Once set, AddClause
// rejects further clauses and Solve returns Unknown — never a bogus
// Sat/Unsat derived from a partially-built formula.
func (s *Solver) Err() error { return s.apiErr }

// SolveContext is Solve under a context: when the context is cancelled or
// its deadline expires the search is interrupted and Unknown is returned.
// A nil context behaves like context.Background.
func (s *Solver) SolveContext(ctx context.Context, assumptions ...Lit) Status {
	if s.apiErr != nil || faults.Should("sat.solve.unknown") {
		return Unknown
	}
	if !s.ok {
		return Unsat
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return Unknown
	}
	// Fast path: contexts that can never be cancelled need no polling.
	poll := ctx.Done() != nil
	defer s.cancelUntil(0)

	var restarts int64
	confBudget := int64(100) * luby(restarts)
	confsAtRestart := int64(0)

	for {
		if confl := s.propagate(); confl != -1 {
			// Conflict.
			s.m.Conflicts++
			confsAtRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			// Conflict below the assumption levels means assumptions failed.
			learnt, btLevel := s.analyze(confl)
			if btLevel < len(assumptions) {
				btLevel = s.assumptionSafeLevel(learnt, btLevel, len(assumptions))
				if btLevel < 0 {
					return Unsat
				}
			}
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				if s.decisionLevel() != 0 {
					// Can't add a unit except at level 0; force restart.
					s.cancelUntil(0)
				}
				if !s.enqueue(learnt[0], -1) {
					s.ok = false
					return Unsat
				}
			} else {
				s.m.Learned++
				s.m.LearnedDB++
				s.enqueue(learnt[0], s.newClause(learnt, true, s.claInc))
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if s.MaxConflicts > 0 && s.m.Conflicts >= s.MaxConflicts {
				return Unknown
			}
			if poll && s.m.Conflicts&ctxCheckMask == 0 && ctx.Err() != nil {
				return Unknown
			}
			if confsAtRestart >= confBudget {
				restarts++
				s.m.Restarts++
				confBudget = 100 * luby(restarts)
				confsAtRestart = 0
				s.cancelUntil(0)
				if s.m.LearnedDB > int64(s.maxLearnt) {
					s.reduceDB()
					s.maxLearnt += s.maxLearnt / 10
				}
			}
			continue
		}

		// No conflict: apply pending assumptions as decisions.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already satisfied: open an empty decision level to keep
				// level bookkeeping aligned with assumption count.
				s.trailLim = append(s.trailLim, len(s.trail))
			case lFalse:
				return Unsat
			default:
				s.trailLim = append(s.trailLim, len(s.trail))
				s.enqueue(a, -1)
			}
			continue
		}

		// Pick the next decision variable.
		v := s.pickBranchVar()
		if v == 0 {
			s.model = s.model[:0]
			for v := 0; v <= s.numVars; v++ {
				s.model = append(s.model, s.vals[2*v])
			}
			return Sat
		}
		s.m.Decisions++
		if poll && s.m.Decisions&ctxCheckMask == 0 && ctx.Err() != nil {
			return Unknown
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		l := Lit(v)
		if !s.phase[v] {
			l = l.Neg()
		}
		s.enqueue(l, -1)
	}
}

// assumptionSafeLevel adjusts the backtrack level when learning under
// assumptions; returns -1 if the assumptions themselves are refuted.
func (s *Solver) assumptionSafeLevel(learnt []Lit, btLevel, numAssumptions int) int {
	// If the asserting literal negates an assumption, the instance is UNSAT
	// under these assumptions once we cannot backtrack past them.
	if btLevel < numAssumptions {
		// Permit backtracking into assumption levels: the asserting literal
		// will be enqueued there, possibly contradicting a later assumption,
		// which Solve detects when re-applying it.
		if btLevel < 0 {
			return -1
		}
	}
	return btLevel
}

// pickBranchVar returns the unassigned variable with the highest activity,
// or 0 when all variables are assigned.
func (s *Solver) pickBranchVar() int {
	for s.order.len() > 0 {
		v := s.order.pop()
		if s.vals[2*v] == lUndef {
			return v
		}
	}
	return 0
}

// Value returns the model value of a literal after Solve returned Sat.
func (s *Solver) Value(l Lit) bool {
	if l.Var() >= len(s.model) {
		return false
	}
	v := s.model[l.Var()]
	if v == lUndef {
		return false
	}
	return l.Sign() == (v == lTrue)
}

// Model returns the model as a slice indexed by variable after Sat.
func (s *Solver) Model() []bool {
	m := make([]bool, s.numVars+1)
	for v := 1; v <= s.numVars && v < len(s.model); v++ {
		m[v] = s.model[v] == lTrue
	}
	return m
}

// varHeap is a max-heap over variable activity with lazy deletion.
type varHeap struct {
	solver *Solver
	heap   []int
	pos    []int // variable -> heap index + 1, 0 when absent
}

func (h *varHeap) len() int { return len(h.heap) }

func (h *varHeap) less(i, j int) bool {
	return h.solver.activity[h.heap[i]] > h.solver.activity[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i + 1
	h.pos[h.heap[j]] = j + 1
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.heap) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.heap) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *varHeap) push(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, 0)
	}
	if h.pos[v] != 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v int) { h.push(v) }

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[v] = 0
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v int) {
	if v < len(h.pos) && h.pos[v] != 0 {
		i := h.pos[v] - 1
		h.up(i)
		h.down(h.pos[v] - 1)
	}
}
