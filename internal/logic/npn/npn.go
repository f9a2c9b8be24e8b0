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
	"math/bits"
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

// nextPerm steps p to the next permutation in lexicographic order and
// reports false, leaving p as it is, when p is the last one.
func nextPerm(p []int) bool {
	i := len(p) - 2
	for i >= 0 && p[i] > p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(p) - 1
	for p[j] < p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	for a, b := i+1, len(p)-1; a < b; a, b = a+1, b-1 {
		p[a], p[b] = p[b], p[a]
	}
	return true
}

// permRows returns, for every row i of an n-variable table, the row that
// row i of the permuted table reads: it sets bit perm[v] for every set bit
// v of i (new variable v reads old variable perm[v]).
func permRows(perm []int) (rows [16]int) {
	for i := 1; i < 1<<len(perm); i++ {
		low := i & -i
		rows[i] = rows[i&^low] | 1<<perm[bits.TrailingZeros(uint(low))]
	}
	return rows
}

// transformed returns the word of Transform{Perm: perm, FlipIn: flip}
// applied to the function with word w, where rows = permRows(perm): row i
// of the result is row rows[i] XOR flip of w.
func transformed(w uint64, rows *[16]int, n, flip int) uint64 {
	var g uint64
	for i := 0; i < 1<<n; i++ {
		g |= (w >> uint(rows[i]^flip) & 1) << uint(i)
	}
	return g
}

// fromWord builds the n-variable truth table whose bits are w.
func fromWord(n int, w uint64) tt.TT {
	f := tt.New(n)
	for i := 0; i < f.Bits(); i++ {
		f.Set(i, w>>i&1 == 1)
	}
	return f
}

// Canonize returns the NPN class representative of f together with the
// transform tr such that tr.Apply(canon) == f. Supported for up to 4
// variables (the cut size used by the rewriting step).
//
// It walks the input permutations in lexicographic order, the input flips
// in ascending order and then the output polarity, on the truth-table
// word, and keeps the first transform reaching the smallest word.
func Canonize(f tt.TT) (canon tt.TT, tr Transform) {
	n := f.NumVars()
	if n > 4 {
		panic(fmt.Sprintf("npn: canonization supports up to 4 vars, got %d", n))
	}
	w := f.Word()
	mask := uint64(1)<<(1<<n) - 1
	best, bestFlip, bestOut := w, 0, false
	perm := [4]int{0, 1, 2, 3}
	bestPerm := perm
	for {
		rows := permRows(perm[:n])
		for flip := 0; flip < 1<<n; flip++ {
			g := transformed(w, &rows, n, flip)
			if g < best {
				best, bestPerm, bestFlip, bestOut = g, perm, flip, false
			}
			if g = ^g & mask; g < best {
				best, bestPerm, bestFlip, bestOut = g, perm, flip, true
			}
		}
		if !nextPerm(perm[:n]) {
			break
		}
	}
	// The transform found maps f to the canon; the caller wants canon -> f.
	tr = Transform{Perm: bestPerm[:n], FlipIn: uint32(bestFlip), FlipOut: bestOut}.Inverse()
	return fromWord(n, best), tr
}

// Classes returns the canon of every NPN class of n ≤ 4 variables in
// ascending truth-table order (1, 2, 4, 14 and 222 classes for n = 0..4).
// It walks all 2^(2^n) functions, canonizes the first member of each new
// class and marks the class's whole orbit, so each class is canonized once.
func Classes(n int) []tt.TT {
	total := 1 << (1 << n)
	mask := uint64(total - 1)
	member := make([]bool, total)
	var out []tt.TT
	for v := 0; v < total; v++ {
		if member[v] {
			continue
		}
		canon, _ := Canonize(fromWord(n, uint64(v)))
		perm := [4]int{0, 1, 2, 3}
		for {
			rows := permRows(perm[:n])
			for flip := 0; flip < 1<<n; flip++ {
				g := transformed(canon.Word(), &rows, n, flip)
				member[g], member[^g&mask] = true, true
			}
			if !nextPerm(perm[:n]) {
				break
			}
		}
		out = append(out, canon)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Word() < out[j].Word() })
	return out
}
