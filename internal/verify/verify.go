// Package verify implements formal verification of gate-level layouts
// against their logic specifications — flow step (5) of the Bestagon paper,
// following the SAT-based equivalence-checking approach of [50].
//
// A miter is built over the specification XAG and the network extracted
// from the layout: corresponding primary inputs are tied together, each
// pair of corresponding outputs is XORed, and the disjunction of the XORs
// is asserted. The layout is equivalent to the specification iff the miter
// is unsatisfiable; a satisfying assignment is returned as a counterexample
// otherwise.
package verify

import (
	"context"
	"fmt"

	"repro/internal/gatelayout"
	"repro/internal/logic/network"
	"repro/internal/sat"
)

// Result reports the outcome of an equivalence check.
type Result struct {
	Equivalent bool
	// Counterexample holds a distinguishing input assignment (bit i = PI i)
	// when Equivalent is false.
	Counterexample uint32
	// Conflicts is the SAT effort spent (same as Metrics.Conflicts).
	Conflicts int64
	// Metrics is the full SAT search-effort breakdown of the miter solve.
	Metrics sat.Metrics
}

// tseitin encodes an XAG into the solver, returning literals for each PO
// given literals for each PI.
func tseitin(s *sat.Solver, x *network.XAG, piLits []sat.Lit) []sat.Lit {
	lits := make([]sat.Lit, x.NumNodes())
	constFalse := s.NewVar()
	s.AddClause(constFalse.Neg())
	lits[0] = constFalse
	for i := 0; i < x.NumPIs(); i++ {
		lits[x.PI(i).Node()] = piLits[i]
	}
	get := func(sg network.Signal) sat.Lit {
		l := lits[sg.Node()]
		if sg.Neg() {
			return l.Neg()
		}
		return l
	}
	for n := 1; n < x.NumNodes(); n++ {
		switch x.Kind(n) {
		case network.KindAnd:
			a, b := x.FanIns(n)
			la, lb := get(a), get(b)
			v := s.NewVar()
			s.AddClause(v.Neg(), la)
			s.AddClause(v.Neg(), lb)
			s.AddClause(v, la.Neg(), lb.Neg())
			lits[n] = v
		case network.KindXor:
			a, b := x.FanIns(n)
			la, lb := get(a), get(b)
			v := s.NewVar()
			s.AddClause(v.Neg(), la, lb)
			s.AddClause(v.Neg(), la.Neg(), lb.Neg())
			s.AddClause(v, la.Neg(), lb)
			s.AddClause(v, la, lb.Neg())
			lits[n] = v
		}
	}
	out := make([]sat.Lit, x.NumPOs())
	for i := 0; i < x.NumPOs(); i++ {
		out[i] = get(x.PO(i))
	}
	return out
}

// EquivalentNetworksContext checks two XAGs for combinational
// equivalence via a SAT miter. The networks must have identical PI/PO
// counts; PIs correspond by index. Cancellation or deadline expiry of ctx
// interrupts the miter solve and returns the context's error. A nil
// context behaves like context.Background.
func EquivalentNetworksContext(ctx context.Context, a, b *network.XAG) (Result, error) {
	if a.NumPIs() != b.NumPIs() {
		return Result{}, fmt.Errorf("verify: PI count mismatch: %d vs %d", a.NumPIs(), b.NumPIs())
	}
	if a.NumPOs() != b.NumPOs() {
		return Result{}, fmt.Errorf("verify: PO count mismatch: %d vs %d", a.NumPOs(), b.NumPOs())
	}
	s := sat.New()
	piLits := make([]sat.Lit, a.NumPIs())
	for i := range piLits {
		piLits[i] = s.NewVar()
	}
	outA := tseitin(s, a, piLits)
	outB := tseitin(s, b, piLits)
	// Miter: OR over (outA[i] XOR outB[i]) must be satisfiable for
	// non-equivalence.
	var xorLits []sat.Lit
	for i := range outA {
		x := s.NewVar()
		la, lb := outA[i], outB[i]
		s.AddClause(x.Neg(), la, lb)
		s.AddClause(x.Neg(), la.Neg(), lb.Neg())
		s.AddClause(x, la.Neg(), lb)
		s.AddClause(x, la, lb.Neg())
		xorLits = append(xorLits, x)
	}
	s.AddClause(xorLits...)
	status := s.SolveContext(ctx)
	m := s.Metrics()
	switch status {
	case sat.Unsat:
		return Result{Equivalent: true, Conflicts: m.Conflicts, Metrics: m}, nil
	case sat.Sat:
		var cex uint32
		for i, l := range piLits {
			if s.Value(l) {
				cex |= 1 << i
			}
		}
		return Result{Equivalent: false, Counterexample: cex, Conflicts: m.Conflicts, Metrics: m}, nil
	default:
		if ctx != nil && ctx.Err() != nil {
			return Result{}, fmt.Errorf("verify: equivalence check canceled: %w", ctx.Err())
		}
		return Result{}, fmt.Errorf("verify: SAT solver returned %v", status)
	}
}

// EquivalentLayoutContext checks a gate-level layout against its
// specification: the layout network is extracted and compared with a SAT
// miter under ctx (see EquivalentNetworksContext). PI/PO correspondence is
// positional (layout pins are ordered row-major, matching the placement
// order produced by the physical design engines).
func EquivalentLayoutContext(ctx context.Context, spec *network.XAG, l *gatelayout.Layout) (Result, error) {
	extracted, err := l.ExtractNetwork()
	if err != nil {
		return Result{}, fmt.Errorf("verify: extraction failed: %w", err)
	}
	return EquivalentNetworksContext(ctx, spec, extracted)
}

// ExhaustiveEquivalent cross-checks equivalence by simulating all input
// assignments; usable up to ~20 inputs and used in tests to validate the
// SAT path.
func ExhaustiveEquivalent(a, b *network.XAG) (bool, uint32) {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return false, 0
	}
	for in := uint32(0); in < 1<<a.NumPIs(); in++ {
		if a.Simulate(in) != b.Simulate(in) {
			return false, in
		}
	}
	return true, 0
}
