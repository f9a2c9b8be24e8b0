package npn

import (
	"fmt"

	"repro/internal/logic/tt"
	"repro/internal/sat"
)

// Gate is one gate of a synthesized XAG structure. Fan-in references are
// encoded as: 0..n-1 for the cut inputs, n+i for the i-th synthesized gate.
type Gate struct {
	IsXor      bool
	In0, In1   int
	Neg0, Neg1 bool // fan-in polarities (always false for XOR gates)
}

// Structure is a synthesized XAG implementation of a single-output function.
type Structure struct {
	NumInputs int
	Gates     []Gate
	OutNeg    bool
	// OutVar is the signal driving the output: input index or n+gate index.
	// For gate-free structures it selects an input (or -1 for constant 0).
	OutVar int
}

// Eval evaluates the structure for one input assignment and is used to
// cross-check synthesized circuits against their specification.
func (st Structure) Eval(input uint32) bool {
	vals := make([]bool, st.NumInputs+len(st.Gates))
	for i := 0; i < st.NumInputs; i++ {
		vals[i] = input>>i&1 == 1
	}
	for gi, g := range st.Gates {
		a := vals[g.In0] != g.Neg0
		b := vals[g.In1] != g.Neg1
		if g.IsXor {
			vals[st.NumInputs+gi] = a != b
		} else {
			vals[st.NumInputs+gi] = a && b
		}
	}
	v := false
	if st.OutVar >= 0 {
		v = vals[st.OutVar]
	}
	return v != st.OutNeg
}

// TruthTable returns the function computed by the structure.
func (st Structure) TruthTable() tt.TT {
	f := tt.New(st.NumInputs)
	for i := 0; i < f.Bits(); i++ {
		f.Set(i, st.Eval(uint32(i)))
	}
	return f
}

// Cost returns the number of gates.
func (st Structure) Cost() int { return len(st.Gates) }

// Synthesizer performs SAT-based exact synthesis of XAG structures.
type Synthesizer struct {
	// MaxGates bounds the search; synthesis fails beyond it.
	MaxGates int
	// ConflictBudget bounds each SAT call; 0 means unlimited. When a call is
	// cut off the gate count is treated as infeasible and search continues
	// upward, so results stay correct but may lose minimality.
	ConflictBudget int64
}

// NewSynthesizer returns a synthesizer with defaults suitable for 4-input
// cut rewriting.
func NewSynthesizer() *Synthesizer {
	return &Synthesizer{MaxGates: 7, ConflictBudget: 30000}
}

// Synthesize returns a minimal (up to budget cut-offs) XAG structure
// computing f, trying gate counts from a trivial lower bound upward.
func (sy *Synthesizer) Synthesize(f tt.TT) (Structure, error) {
	n := f.NumVars()
	// Trivial cases: constants and (complemented) projections.
	if isConst, val := f.IsConst(); isConst {
		return Structure{NumInputs: n, OutVar: -1, OutNeg: val}, nil
	}
	for v := 0; v < n; v++ {
		proj := tt.Var(n, v)
		if f.Equal(proj) {
			return Structure{NumInputs: n, OutVar: v}, nil
		}
		if f.Equal(proj.Not()) {
			return Structure{NumInputs: n, OutVar: v, OutNeg: true}, nil
		}
	}
	for r := 1; r <= sy.MaxGates; r++ {
		st, status := sy.trySize(f, r)
		switch status {
		case sat.Sat:
			// Sanity check: reject miscompiled structures outright.
			if !st.TruthTable().Equal(f) {
				return Structure{}, fmt.Errorf("npn: synthesized structure does not match %v", f)
			}
			return st, nil
		case sat.Unsat, sat.Unknown:
			continue
		}
	}
	return Structure{}, fmt.Errorf("npn: no XAG with at most %d gates found for %v", sy.MaxGates, f)
}

// trySize asks the SAT solver whether an r-gate XAG computing f exists.
func (sy *Synthesizer) trySize(f tt.TT, r int) (Structure, sat.Status) {
	n := f.NumVars()
	rows := f.Bits()
	s := sat.New()
	s.MaxConflicts = sy.ConflictBudget

	// Variables.
	// sel[i][j][k]: gate i picks fan-ins (j, k), j < k over candidates
	//   0..n-1 (inputs) and n..n+i-1 (previous gates).
	// isXor[i], neg0[i], neg1[i]: gate i operation and fan-in polarities.
	// val[i][t]: value of gate i at truth-table row t.
	// outNeg: output polarity; gate r-1 drives the output.
	sel := make([][][]sat.Lit, r)
	isXor := make([]sat.Lit, r)
	neg0 := make([]sat.Lit, r)
	neg1 := make([]sat.Lit, r)
	val := make([][]sat.Lit, r)
	for i := 0; i < r; i++ {
		cands := n + i
		sel[i] = make([][]sat.Lit, cands)
		for j := 0; j < cands; j++ {
			sel[i][j] = make([]sat.Lit, cands)
			for k := j + 1; k < cands; k++ {
				sel[i][j][k] = s.NewVar()
			}
		}
		isXor[i] = s.NewVar()
		neg0[i] = s.NewVar()
		neg1[i] = s.NewVar()
		val[i] = make([]sat.Lit, rows)
		for t := 0; t < rows; t++ {
			val[i][t] = s.NewVar()
		}
	}
	outNeg := s.NewVar()

	// Exactly one fan-in pair per gate.
	for i := 0; i < r; i++ {
		var all []sat.Lit
		cands := n + i
		for j := 0; j < cands; j++ {
			for k := j + 1; k < cands; k++ {
				all = append(all, sel[i][j][k])
			}
		}
		s.AddClause(all...)
		for a := 0; a < len(all); a++ {
			for b := a + 1; b < len(all); b++ {
				s.AddClause(all[a].Neg(), all[b].Neg())
			}
		}
		// XOR gates use no fan-in polarities (complement normalization).
		s.AddClause(isXor[i].Neg(), neg0[i].Neg())
		s.AddClause(isXor[i].Neg(), neg1[i].Neg())
	}

	// inputVal returns the constant value of input j at row t.
	inputVal := func(j, t int) bool { return t>>j&1 == 1 }

	// Semantics: for every gate, pair, and row, conditioned on the selection.
	for i := 0; i < r; i++ {
		cands := n + i
		for j := 0; j < cands; j++ {
			for k := j + 1; k < cands; k++ {
				sl := sel[i][j][k]
				for t := 0; t < rows; t++ {
					v := val[i][t]
					// Literal generators for fan-in values at row t; nil
					// means the value is the given constant.
					aLit, aConst, aIsConst := litOrConst(val, n, j, t, inputVal)
					bLit, bConst, bIsConst := litOrConst(val, n, k, t, inputVal)
					addGateSemantics(s, sl, isXor[i], neg0[i], neg1[i], v,
						aLit, aConst, aIsConst, bLit, bConst, bIsConst)
				}
			}
		}
	}

	// Output constraint: val[r-1][t] xor outNeg == f(t).
	for t := 0; t < rows; t++ {
		v := val[r-1][t]
		if f.Get(t) {
			// v xor outNeg = 1  ->  (v | outNeg) & (!v | !outNeg)
			s.AddClause(v, outNeg)
			s.AddClause(v.Neg(), outNeg.Neg())
		} else {
			s.AddClause(v, outNeg.Neg())
			s.AddClause(v.Neg(), outNeg)
		}
	}

	// Symmetry breaking: every gate except the last must be used by a later
	// gate (no dangling gates).
	for i := 0; i < r-1; i++ {
		var uses []sat.Lit
		for i2 := i + 1; i2 < r; i2++ {
			cands := n + i2
			gi := n + i
			for j := 0; j < cands; j++ {
				for k := j + 1; k < cands; k++ {
					if j == gi || k == gi {
						uses = append(uses, sel[i2][j][k])
					}
				}
			}
		}
		s.AddClause(uses...)
	}

	status := s.Solve()
	if status != sat.Sat {
		return Structure{}, status
	}

	// Decode the model.
	st := Structure{NumInputs: n, OutVar: n + r - 1, OutNeg: s.Value(outNeg)}
	for i := 0; i < r; i++ {
		g := Gate{IsXor: s.Value(isXor[i])}
		cands := n + i
		found := false
		for j := 0; j < cands && !found; j++ {
			for k := j + 1; k < cands; k++ {
				if s.Value(sel[i][j][k]) {
					g.In0, g.In1 = j, k
					found = true
					break
				}
			}
		}
		if !g.IsXor {
			g.Neg0 = s.Value(neg0[i])
			g.Neg1 = s.Value(neg1[i])
		}
		st.Gates = append(st.Gates, g)
	}
	return st, sat.Sat
}

// litOrConst resolves candidate index c (input or gate) at row t into either
// a literal or a constant.
func litOrConst(val [][]sat.Lit, n, c, t int, inputVal func(j, t int) bool) (sat.Lit, bool, bool) {
	if c < n {
		return 0, inputVal(c, t), true
	}
	return val[c-n][t], false, false
}

// addGateSemantics emits CNF enforcing, under selection literal sl:
//
//	v == isXor ? (a xor b) : ((a xor n0) and (b xor n1))
//
// where a/b are either literals or constants.
func addGateSemantics(s *sat.Solver, sl, isXor, n0, n1, v sat.Lit,
	aLit sat.Lit, aConst, aIsConst bool, bLit sat.Lit, bConst, bIsConst bool) {

	// Enumerate the (at most) 4 value combinations of the non-constant
	// fan-ins; for each combination and each op/polarity case, force v.
	aVals := []bool{false, true}
	bVals := []bool{false, true}
	if aIsConst {
		aVals = []bool{aConst}
	}
	if bIsConst {
		bVals = []bool{bConst}
	}
	for _, av := range aVals {
		for _, bv := range bVals {
			// Condition literals making this combination active.
			base := []sat.Lit{sl.Neg()}
			if !aIsConst {
				if av {
					base = append(base, aLit.Neg())
				} else {
					base = append(base, aLit)
				}
			}
			if !bIsConst {
				if bv {
					base = append(base, bLit.Neg())
				} else {
					base = append(base, bLit)
				}
			}
			// XOR case: isXor -> v == av != bv.
			xr := av != bv
			cl := append(append([]sat.Lit(nil), base...), isXor.Neg())
			if xr {
				cl = append(cl, v)
			} else {
				cl = append(cl, v.Neg())
			}
			s.AddClause(cl...)
			// AND cases: for each polarity combination.
			for _, p0 := range []bool{false, true} {
				for _, p1 := range []bool{false, true} {
					res := (av != p0) && (bv != p1)
					cl := append(append([]sat.Lit(nil), base...), isXor)
					if p0 {
						cl = append(cl, n0.Neg())
					} else {
						cl = append(cl, n0)
					}
					if p1 {
						cl = append(cl, n1.Neg())
					} else {
						cl = append(cl, n1)
					}
					if res {
						cl = append(cl, v)
					} else {
						cl = append(cl, v.Neg())
					}
					s.AddClause(cl...)
				}
			}
		}
	}
}
