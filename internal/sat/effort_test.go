package sat

import (
	"slices"
	"testing"
)

// pinnedEffort is the search effort of every resetFormulas instance on a
// new solver. A kernel change that keeps the search step for step leaves
// every counter as it is; one that changes a propagation order or a
// learnt clause's literal order moves them. About half the conflicts of
// pigeonhole-6 and budget-cut-off are in a binary clause, and
// budget-cut-off runs several database reductions. No reduction here
// meets a learnt reason clause; TestReduceDBKeepsReasons covers that.
var pinnedEffort = map[string]Metrics{
	"api-error":          {},
	"random-3sat":        {Conflicts: 12, Decisions: 33, Propagations: 229, Learned: 12, LearnedDB: 12},
	"pigeonhole-6":       {Conflicts: 762, Decisions: 912, Propagations: 9964, Restarts: 5, Learned: 754, LearnedDB: 754},
	"unsat-while-adding": {Propagations: 1},
	"budget-cut-off":     {Conflicts: 8000, Decisions: 10216, Propagations: 110434, Restarts: 30, Learned: 8000, LearnedDeleted: 3300, LearnedDB: 4700},
	"assumptions":        {Conflicts: 5, Decisions: 11, Propagations: 91, Learned: 5, LearnedDB: 5},
	"random-3sat-large":  {Conflicts: 133, Decisions: 691, Propagations: 19319, Restarts: 1, Learned: 133, LearnedDB: 133},
	"xor-chain":          {Decisions: 30, Propagations: 61},
}

// TestSearchEffortPinned checks the solver's Metrics on every
// resetFormulas instance against pinnedEffort.
func TestSearchEffortPinned(t *testing.T) {
	for _, f := range resetFormulas {
		want, ok := pinnedEffort[f.name]
		if !ok {
			t.Errorf("%s: no pinned effort", f.name)
			continue
		}
		s := New()
		f.solve(s)
		if got := s.Metrics(); got != want {
			t.Errorf("%s: Metrics = %+v, want %+v", f.name, got, want)
		}
	}
}

// TestReduceDBKeepsReasons checks the learnt-clause reduction: a clause
// that is the reason of a trail literal is never deleted, and of the
// other learnt clauses longer than two literals the lower-activity half
// goes.
func TestReduceDBKeepsReasons(t *testing.T) {
	s := New()
	var v []Lit
	for i := 0; i < 8; i++ {
		v = append(v, s.NewVar())
	}
	// Five learnt 3-literal clauses with activities 1..5 and one learnt
	// binary clause, which reduction always keeps.
	var crefs []int
	for i := 0; i < 5; i++ {
		crefs = append(crefs, s.newClause([]Lit{v[i], v[i+1], v[i+2]}, true, float64(i+1)))
	}
	s.newClause([]Lit{v[6], v[7]}, true, 0)
	s.m.LearnedDB = 6
	// The lowest-activity clause is the reason of v[0].
	s.enqueue(v[0], crefs[0])
	s.reduceDB()
	var deleted []int
	for i, c := range s.clauses {
		if s.arena[c.cref+hdrLen] == 0 {
			deleted = append(deleted, i)
		}
	}
	// Candidates are clauses 1..4 (activities 2..5); the lower half goes.
	if want := []int{1, 2}; !slices.Equal(deleted, want) {
		t.Errorf("deleted clauses %v, want %v", deleted, want)
	}
	if s.m.LearnedDB != 4 || s.m.LearnedDeleted != 2 {
		t.Errorf("LearnedDB %d, LearnedDeleted %d; want 4, 2", s.m.LearnedDB, s.m.LearnedDeleted)
	}
}
