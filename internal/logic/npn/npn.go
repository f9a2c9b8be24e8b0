// Package npn implements NPN canonicalization and the "exact NPN database"
// that flow step (2) of the Bestagon paper uses for cut-based logic
// rewriting [38]: one minimal XAG structure per NPN class of up to four
// inputs. SAT-based exact synthesis (Synthesizer) finds the structures
// once, ahead of time; gentable writes them to table.go, and Database
// answers lookups from that static table.
//
// Two functions are NPN-equivalent if one can be obtained from the other by
// Negating inputs, Permuting inputs, and/or Negating the output. Rewriting
// only needs one optimal circuit per equivalence class; the class
// representative ("canon") is the lexicographically smallest truth table
// over all NPN transforms.
package npn

import (
	"fmt"
	"sort"

	"repro/internal/logic/tt"
)

// Transform describes an NPN transform: first each input i is complemented
// when FlipIn has bit i set, then inputs are permuted (new variable i reads
// old variable Perm[i]), and finally the output is complemented when FlipOut
// is set.
type Transform struct {
	Perm    []int
	FlipIn  uint32
	FlipOut bool
}

// Apply applies the transform to a truth table.
func (tr Transform) Apply(f tt.TT) tt.TT {
	g := f
	for v := 0; v < f.NumVars(); v++ {
		if tr.FlipIn>>v&1 == 1 {
			g = g.FlipVar(v)
		}
	}
	g = g.Permute(tr.Perm)
	if tr.FlipOut {
		g = g.Not()
	}
	return g
}

// Inverse returns the transform that undoes tr.
func (tr Transform) Inverse() Transform {
	n := len(tr.Perm)
	inv := Transform{Perm: make([]int, n), FlipOut: tr.FlipOut}
	for i, p := range tr.Perm {
		inv.Perm[p] = i
	}
	// Input flips commute through the permutation: flipping old variable v
	// before permuting equals flipping new variable inv.Perm[v] afterwards...
	// Since the inverse applies its flips first, map each original flip
	// through the forward permutation.
	for v := 0; v < n; v++ {
		if tr.FlipIn>>v&1 == 1 {
			// Old variable v appears as new variable j where Perm[j] == v.
			j := inv.Perm[v]
			inv.FlipIn |= 1 << j
		}
	}
	return inv
}

// String formats the transform compactly.
func (tr Transform) String() string {
	return fmt.Sprintf("perm=%v flipIn=%04b flipOut=%v", tr.Perm, tr.FlipIn, tr.FlipOut)
}

// identity returns the identity transform over n variables.
func identity(n int) Transform {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return Transform{Perm: p}
}

// permutations returns all permutations of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	var rec func(cur []int, used uint32)
	rec = func(cur []int, used uint32) {
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for v := 0; v < n; v++ {
			if used>>v&1 == 0 {
				rec(append(cur, v), used|1<<v)
			}
		}
	}
	rec(nil, 0)
	return out
}

// less compares two equal-arity truth tables lexicographically via their hex
// encoding of the underlying words.
func less(a, b tt.TT) bool {
	// For up to 4 variables a single word suffices.
	return a.Word() < b.Word()
}

// Canonize returns the NPN class representative of f together with the
// transform tr such that tr.Apply(canon) == f. Supported for up to 4
// variables (the cut size used by the rewriting step).
func Canonize(f tt.TT) (canon tt.TT, tr Transform) {
	n := f.NumVars()
	if n > 4 {
		panic(fmt.Sprintf("npn: canonization supports up to 4 vars, got %d", n))
	}
	best := f
	bestTr := identity(n) // transform f -> best
	for _, perm := range permutations(n) {
		for flip := uint32(0); flip < 1<<n; flip++ {
			for _, out := range []bool{false, true} {
				cand := Transform{Perm: perm, FlipIn: flip, FlipOut: out}
				g := cand.Apply(f)
				if less(g, best) {
					best = g
					bestTr = cand
				}
			}
		}
	}
	// bestTr maps f -> canon; the caller wants canon -> f.
	return best, bestTr.Inverse()
}

// Classes returns the canon of every NPN class of n ≤ 4 variables in
// ascending truth-table order (1, 2, 4, 14 and 222 classes for n = 0..4).
// It walks all 2^(2^n) functions, canonizes the first member of each new
// class and marks the class's whole orbit, so each class is canonized once.
func Classes(n int) []tt.TT {
	total := 1 << (1 << n)
	member := make([]bool, total)
	var out []tt.TT
	for v := 0; v < total; v++ {
		if member[v] {
			continue
		}
		f := tt.New(n)
		for i := 0; i < f.Bits(); i++ {
			f.Set(i, v>>i&1 == 1)
		}
		canon, _ := Canonize(f)
		for _, perm := range permutations(n) {
			for flip := uint32(0); flip < 1<<n; flip++ {
				for _, neg := range []bool{false, true} {
					member[Transform{Perm: perm, FlipIn: flip, FlipOut: neg}.Apply(canon).Word()] = true
				}
			}
		}
		out = append(out, canon)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Word() < out[j].Word() })
	return out
}
