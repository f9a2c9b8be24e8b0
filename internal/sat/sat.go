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

// Lit is a literal of a variable from NewVar: 2v encodes x_v and 2v+1
// encodes ¬x_v, so negation flips the low bit and a literal is its own
// index into the solver's value and watch arrays. Variables are numbered
// from 1; the zero Lit and its negation name no variable and are invalid.
type Lit int32

// Neg returns the negated literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Var returns the 1-based variable index of the literal.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether the literal is positive.
func (l Lit) Sign() bool { return l&1 == 0 }

// String formats the literal as "x3" or "!x3".
func (l Lit) String() string {
	if l&1 == 1 {
		return fmt.Sprintf("!x%d", l>>1)
	}
	return fmt.Sprintf("x%d", l>>1)
}

// order is the literal's rank in the order clauses are stored in: -v for
// ¬x_v and v for x_v, so negative literals come first, by falling index.
func (l Lit) order() int32 {
	m := -int32(l & 1) // -1 for a negative literal, else 0
	return (int32(l>>1) ^ m) - m
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

// A clause lives in the solver's arena as a two-entry header followed by
// its literals: arena[cref] is the clause's index in Solver.clauses,
// arena[cref+1] its length (0 once reduceDB deletes it), and
// arena[cref+2:cref+2+n] its literals. Watchers, reasons and conflicts name
// a clause by its arena offset cref, so propagation reads only the arena.
const (
	hdrIdx = 0 // offset of the clause index in the header
	hdrLen = 1 // offset of the clause length in the header
	hdrN   = 2 // header entries before the literals
)

// clause holds what only analyze and reduceDB read of a clause: its arena
// offset, whether it is learnt, and its activity.
type clause struct {
	cref     uint32
	learnt   bool
	activity float64
}

// watcher records a clause watching a literal plus the blocking literal
// optimization, in 8 bytes: ref is the clause's arena offset shifted left
// by one, with the low bit set for a binary clause. A binary clause's
// blocker is always its other literal, so propagation settles it without
// reading the clause.
type watcher struct {
	ref     uint32
	blocker Lit
}

// newWatcher returns the watcher of the clause at arena offset cref with
// the given blocker.
func newWatcher(cref int, binary bool, blocker Lit) watcher {
	w := watcher{ref: uint32(cref) << 1, blocker: blocker}
	if binary {
		w.ref |= 1
	}
	return w
}

// cref returns the arena offset of the watched clause.
func (w watcher) cref() int { return int(w.ref >> 1) }

// binary reports whether the watched clause has two literals.
func (w watcher) binary() bool { return w.ref&1 == 1 }

// Solver is a CDCL SAT solver. The zero value is not usable; construct with
// New.
type Solver struct {
	numVars  int
	clauses  []clause
	arena    []Lit       // every clause's header and literals, in clause order
	nProblem int         // attached problem (non-learnt) clauses
	learnt   []Lit       // analyze's learnt-clause buffer
	toClear  []int       // analyze's seen-variable buffer
	watches  [][]watcher // indexed by literal
	vals     []lbool     // literal values by literal; vals[2v] is variable v's
	locked   []bool      // reduceDB's reason-clause marks, by clause index
	level    []int
	reason   []int // arena offset of the clause that implied the variable, or -1
	trail    []Lit
	trailLim []int
	qhead    int

	activity  []float64
	varInc    float64
	order     *varHeap
	heaped    int     // variables 1..heaped have been handed to order
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
	s.heaped = 0
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
	s.order.pos = append(s.order.pos[:0], 0)
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

// NewVar allocates a fresh variable and returns its positive literal.
func (s *Solver) NewVar() Lit {
	s.numVars++
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.order.pos = append(s.order.pos, 0)
	s.addWatchSlots()
	return Lit(2 * s.numVars)
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.numVars }

// NumClauses returns the number of problem clauses added. Units, which
// are assigned at once, and clauses that simplify away are not counted.
func (s *Solver) NumClauses() int { return s.nProblem }

// Metrics returns a snapshot of the search-effort counters.
func (s *Solver) Metrics() Metrics { return s.m }

// value returns the current assignment of a literal.
func (s *Solver) value(l Lit) lbool { return s.vals[l] }

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
	// Copy the literals behind a new header at the arena's end, sorted
	// by insertion in Lit.order, then normalize them in place: drop
	// duplicates and false literals, and give up on a tautology or a
	// literal already true. A tautology is caught when the two literals
	// of a variable meet side by side in that order.
	cref := len(s.arena)
	at := cref + hdrN
	arena := append(s.arena, 0, 0)
	for _, l := range lits {
		if l < 2 || l.Var() > s.numVars {
			s.arena = arena[:cref]
			s.apiErr = fmt.Errorf("sat: clause references unknown literal %v", l)
			return false
		}
		k := l.order()
		i := len(arena)
		arena = append(arena, l)
		for ; i > at && arena[i-1].order() > k; i-- {
			arena[i] = arena[i-1]
		}
		arena[i] = l
	}
	s.arena = arena[:cref] // keep the grown backing array, not the clause
	out := arena[at:at]
	var prev Lit // the zero Lit is no clause literal nor its negation
	for _, l := range arena[at:] {
		if l == prev {
			continue
		}
		if l == prev.Neg() {
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
	s.arena = arena[:at+len(out)]
	s.attach(cref, false, 0)
	return true
}

// newClause copies lits (at least two) into the arena behind a header and
// attaches the clause. It returns the clause's arena offset.
func (s *Solver) newClause(lits []Lit, learnt bool, activity float64) int {
	cref := len(s.arena)
	s.arena = append(s.arena, 0, 0)
	s.arena = append(s.arena, lits...)
	s.attach(cref, learnt, activity)
	return cref
}

// attach stores the clause whose literals end the arena behind the header
// at cref: it fills the header, records the clause and registers it with
// the watch lists of its first two literals.
func (s *Solver) attach(cref int, learnt bool, activity float64) {
	n := len(s.arena) - cref - hdrN
	s.arena[cref+hdrIdx], s.arena[cref+hdrLen] = Lit(len(s.clauses)), Lit(n)
	s.clauses = append(s.clauses, clause{cref: uint32(cref), learnt: learnt, activity: activity})
	if !learnt {
		s.nProblem++
	}
	l0, l1 := s.arena[cref+hdrN], s.arena[cref+hdrN+1]
	binary := n == 2
	s.watches[l0.Neg()] = append(s.watches[l0.Neg()], newWatcher(cref, binary, l1))
	s.watches[l1.Neg()] = append(s.watches[l1.Neg()], newWatcher(cref, binary, l0))
}

// lits returns the literals of the clause at arena offset cref, which
// alias the arena until the next clause is stored.
func (s *Solver) lits(cref int) []Lit {
	at := cref + hdrN
	end := at + int(s.arena[cref+hdrLen])
	return s.arena[at:end:end]
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
	s.vals[l], s.vals[l.Neg()] = lTrue, lFalse
	s.level[v] = s.decisionLevel()
	s.reason[v] = reason
	s.phase[v] = l.Sign()
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; returns the arena offset of a
// conflicting clause or -1.
func (s *Solver) propagate() int {
	vals, arena := s.vals, s.arena
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.m.Propagations++
		notP := p.Neg()
		ws := s.watches[p]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			bv := vals[w.blocker]
			if bv == lTrue {
				kept = append(kept, w)
				continue
			}
			cref := w.cref()
			if w.binary() {
				// The blocker is the clause's other literal: the clause
				// is unit or conflicting.
				kept = append(kept, w)
				if bv == lFalse {
					// Write the literals in the order a longer clause's
					// swap leaves them (the false watch ¬p second), so
					// analyze visits them in the same order.
					arena[cref+hdrN], arena[cref+hdrN+1] = w.blocker, notP
					kept = append(kept, ws[i+1:]...)
					s.watches[p] = kept
					s.qhead = len(s.trail)
					return cref
				}
				s.enqueue(w.blocker, cref)
				continue
			}
			n := int(arena[cref+hdrLen])
			if n == 0 {
				continue // drop watcher of a deleted clause
			}
			lits := arena[cref+hdrN : cref+hdrN+n]
			// Ensure the false literal is lits[1].
			if lits[0] == notP {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if vals[first] == lTrue {
				kept = append(kept, watcher{w.ref, first})
				continue
			}
			// Look for a new watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nw := lits[1].Neg()
					s.watches[nw] = append(s.watches[nw], watcher{w.ref, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, w)
			if vals[first] == lFalse {
				// Conflict: restore remaining watchers and report.
				kept = append(kept, ws[i+1:]...)
				s.watches[p] = kept
				s.qhead = len(s.trail)
				return cref
			}
			s.enqueue(first, cref)
		}
		s.watches[p] = kept
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
			locked[s.arena[r+hdrIdx]] = true
		}
	}
	var cands []int
	for i, c := range s.clauses {
		if c.learnt && s.arena[c.cref+hdrLen] > 2 && !locked[i] {
			cands = append(cands, i)
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		return s.clauses[cands[a]].activity < s.clauses[cands[b]].activity
	})
	for _, i := range cands[:len(cands)/2] {
		s.arena[s.clauses[i].cref+hdrLen] = 0
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

	cref := confl
	toClear := s.toClear[:0]
	for {
		if c := &s.clauses[s.arena[cref+hdrIdx]]; c.learnt {
			s.bumpClause(c)
		}
		for _, q := range s.lits(cref) {
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
		cref = s.reason[p.Var()]
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
		l := s.trail[i]
		v := l.Var()
		s.vals[l], s.vals[l.Neg()] = lUndef, lUndef
		s.reason[v] = -1
		s.order.push(v)
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
	// Hand the variables added since the last call to the order heap, in
	// index order. Nothing bumps an activity outside a search, so each
	// enters at zero activity and stays where it is appended: this is the
	// heap that pushing each variable in NewVar would have built, filled
	// in one pass.
	for ; s.heaped < s.numVars; s.heaped++ {
		s.order.push(s.heaped + 1)
	}

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
		l := Lit(2 * v)
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
	if uint(l.Var()) >= uint(len(s.model)) {
		return false
	}
	v := s.model[l.Var()]
	if v == lUndef {
		return false
	}
	return l.Sign() == (v == lTrue)
}

// varHeap is a max-heap over variable activity with lazy deletion. It
// sifts by moving a hole: the entries it passes shift one step and the
// sifted variable is written once where the hole stops.
type varHeap struct {
	solver *Solver
	heap   []int
	pos    []int // variable -> heap index + 1, 0 when absent; NewVar grows it
}

func (h *varHeap) len() int { return len(h.heap) }

// set places variable v at heap index i.
func (h *varHeap) set(i, v int) {
	h.heap[i] = v
	h.pos[v] = i + 1
}

// up moves the variable at index i towards the root while its activity is
// strictly above its parent's.
func (h *varHeap) up(i int) {
	act := h.solver.activity
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !(act[v] > act[h.heap[parent]]) {
			break
		}
		h.set(i, h.heap[parent])
		i = parent
	}
	h.set(i, v)
}

// down moves the variable at index i towards the leaves while a child's
// activity is strictly above it, taking the right child only when its
// activity is strictly above the left one's.
func (h *varHeap) down(i int) {
	act := h.solver.activity
	v := h.heap[i]
	n := len(h.heap)
	for {
		best, bestAct := i, act[v]
		if l := 2*i + 1; l < n && act[h.heap[l]] > bestAct {
			best, bestAct = l, act[h.heap[l]]
		}
		if r := 2*i + 2; r < n && act[h.heap[r]] > bestAct {
			best = r
		}
		if best == i {
			break
		}
		h.set(i, h.heap[best])
		i = best
	}
	h.set(i, v)
}

// push inserts variable v unless it is already in the heap.
func (h *varHeap) push(v int) {
	if h.pos[v] != 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.pos[v] = 0
	if last > 0 {
		h.set(0, h.heap[last])
		h.heap = h.heap[:last]
		h.down(0)
	} else {
		h.heap = h.heap[:0]
	}
	return v
}

func (h *varHeap) update(v int) {
	if h.pos[v] != 0 {
		i := h.pos[v] - 1
		h.up(i)
		h.down(h.pos[v] - 1)
	}
}
