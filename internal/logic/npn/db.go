package npn

//go:generate go run -tags gentable ./gentable

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/logic/tt"
)

// entry is one NPN class of the generated table (table.go): its arity,
// canonical truth-table word and minimal structure, or failed when exact
// synthesis gave up within tableSynth's budget.
type entry struct {
	n      int
	canon  uint64
	st     Structure
	failed bool
}

// Database answers exact NPN lookups from the generated table: Canonize,
// find the class, and transform its stored structure back onto the
// queried function. Lookups take no lock and run no SAT. It is safe for
// concurrent use.
type Database struct {
	answered [len(table)]atomic.Bool // classes this database has served
	size     atomic.Int32
}

// NewDatabase returns a database over the generated table. The table was
// synthesized with NewSynthesizer's settings; sy may be nil or carry those
// same settings. Passing a synthesizer with any other settings is a
// programmer error and panics: the table cannot answer for it
// (regenerate it with gentable instead).
func NewDatabase(sy *Synthesizer) *Database {
	if sy != nil && *sy != tableSynth {
		panic(fmt.Sprintf("npn: table was generated with %+v, not %+v", tableSynth, *sy))
	}
	return &Database{}
}

// Lookup returns an optimal structure for f (not its NPN canon — the
// returned structure computes f itself, with the class transform already
// applied), or ok=false if synthesis failed within budget when the table
// was generated.
func (db *Database) Lookup(f tt.TT) (Structure, bool) {
	canon, tr := Canonize(f)
	i, found := find(canon.NumVars(), canon.Word())
	if !found || table[i].failed {
		return Structure{}, false
	}
	if db.answered[i].CompareAndSwap(false, true) {
		db.size.Add(1)
	}
	return applyTransform(table[i].st, tr), true
}

// Size returns the number of distinct classes this database has answered
// with a structure.
func (db *Database) Size() int { return int(db.size.Load()) }

// find binary-searches the table for the class (n, canon).
func find(n int, canon uint64) (int, bool) {
	return slices.BinarySearchFunc(table[:], entry{n: n, canon: canon}, func(e, key entry) int {
		return cmp.Or(cmp.Compare(e.n, key.n), cmp.Compare(e.canon, key.canon))
	})
}

// applyTransform rewrites a structure for the canon into a structure for
// tr.Apply(canon): inputs are remapped through the permutation with
// polarities pushed onto the fan-in edges, and the output polarity is
// adjusted.
func applyTransform(st Structure, tr Transform) Structure {
	out := Structure{
		NumInputs: st.NumInputs,
		OutNeg:    st.OutNeg != tr.FlipOut,
		OutVar:    st.OutVar,
		Gates:     make([]Gate, len(st.Gates)),
	}
	n := st.NumInputs
	// The transformed function g(x) = canon(sigma(x) xor flip) xor out,
	// where canon's input v is read from g's input position... tr.Apply
	// defines: new variable i reads old variable Perm[i] after flipping old
	// variable v when FlipIn bit v is set. The structure's references to
	// canon input v therefore become references to new input j with
	// Perm[j] == v, complemented when FlipIn bit v is set.
	invPos := make([]int, n)
	for j, p := range tr.Perm {
		invPos[p] = j
	}
	mapIn := func(ref int, neg bool) (int, bool) {
		if ref >= n {
			return ref, neg // gate reference: unchanged
		}
		flipped := tr.FlipIn>>ref&1 == 1
		return invPos[ref], neg != flipped
	}
	for i, g := range st.Gates {
		// XOR gates may acquire fan-in complements here; Eval and the XAG
		// builder normalize them, so no special handling is needed.
		ng := Gate{IsXor: g.IsXor}
		ng.In0, ng.Neg0 = mapIn(g.In0, g.Neg0)
		ng.In1, ng.Neg1 = mapIn(g.In1, g.Neg1)
		out.Gates[i] = ng
	}
	// Output var mapping when it is an input reference.
	if st.OutVar >= 0 && st.OutVar < n {
		v, neg := mapIn(st.OutVar, out.OutNeg)
		out.OutVar, out.OutNeg = v, neg
	}
	return out
}
