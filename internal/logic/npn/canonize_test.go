package npn

import (
	"slices"
	"testing"

	"repro/internal/logic/tt"
)

// identity returns the identity transform over n variables.
func identity(n int) Transform {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return Transform{Perm: p}
}

// permutations returns all permutations of 0..n-1 in lexicographic order.
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

// less compares two equal-arity truth tables by their words, which hold
// every row for up to 4 variables.
func less(a, b tt.TT) bool {
	return a.Word() < b.Word()
}

// canonizeReference is the brute-force canonization Canonize must agree
// with: every transform applied through tt operations, in the order
// permutation, input flip, output flip, keeping the first strictly
// smaller table.
func canonizeReference(f tt.TT) (canon tt.TT, tr Transform) {
	n := f.NumVars()
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
	return best, bestTr.Inverse()
}

// referenceStride thins the 4-input sweep of TestCanonizeMatchesReference:
// the reference costs about half a millisecond per call. With stride 1
// the test covers all 65,536 4-input functions.
const referenceStride = 61

// TestCanonizeMatchesReference requires Canonize to return the same canon
// and the same Transform as canonizeReference on every function of 0–3
// inputs, every 4-input class canon and every referenceStride-th 4-input
// word.
func TestCanonizeMatchesReference(t *testing.T) {
	var words [5][]uint64
	for n := 0; n <= 3; n++ {
		for w := uint64(0); w < 1<<(1<<n); w++ {
			words[n] = append(words[n], w)
		}
	}
	for _, e := range table {
		if e.n == 4 {
			words[4] = append(words[4], e.canon)
		}
	}
	if len(words[4]) != 222 {
		t.Fatalf("table has %d 4-input classes, want 222", len(words[4]))
	}
	for w := uint64(0); w < 1<<16; w += referenceStride {
		words[4] = append(words[4], w)
	}
	for n, ws := range words {
		for _, w := range ws {
			f := fromWord(n, w)
			canon, tr := Canonize(f)
			wantCanon, wantTr := canonizeReference(f)
			if canon.NumVars() != n || canon.Word() != wantCanon.Word() ||
				!slices.Equal(tr.Perm, wantTr.Perm) || tr.FlipIn != wantTr.FlipIn || tr.FlipOut != wantTr.FlipOut {
				t.Fatalf("Canonize(%v) = %v, %v; reference %v, %v", f, canon, tr, wantCanon, wantTr)
			}
		}
	}
}

// TestCanonizeAllocs requires a 4-input Canonize to allocate no more than
// its result.
func TestCanonizeAllocs(t *testing.T) {
	f := hexTT(t, 4, "cafe")
	if got := testing.AllocsPerRun(20, func() { Canonize(f) }); got > 4 {
		t.Errorf("Canonize allocates %v times per 4-input call, want at most 4", got)
	}
}

// canonSink keeps BenchmarkCanonize's calls from being optimised away.
var canonSink tt.TT

func BenchmarkCanonize(b *testing.B) {
	fs := make([]tt.TT, 256)
	for i := range fs {
		fs[i] = fromWord(4, uint64(i)*257+0x1234)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		canonSink, _ = Canonize(fs[i%len(fs)])
	}
}
