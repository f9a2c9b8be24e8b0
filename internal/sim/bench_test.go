package sim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sidb"
)

// benchLayout builds a deterministic random layout of n free dots.
func benchLayout(n int, seed int64, span int) *sidb.Layout {
	rng := rand.New(rand.NewSource(seed))
	l := &sidb.Layout{}
	seen := map[[2]int]bool{}
	for i := 0; i < n; i++ {
		for {
			x, y := rng.Intn(span), rng.Intn(span)
			if !seen[[2]int{x, y}] {
				seen[[2]int{x, y}] = true
				l.AddCell(x, y, sidb.RoleNormal)
				break
			}
		}
	}
	return l
}

// The headline comparison: blind 2^n enumeration (ExGS) vs the pruned
// branch-and-bound (QuickExact) on the same 20-free-dot instance. Run via
// `make bench-sim`.

func BenchmarkGroundStateExGS20(b *testing.B) {
	eng := NewEngine(benchLayout(20, 7, 40), ParamsFig5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Exhaustive(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroundStateQuickExact20(b *testing.B) {
	eng := NewEngine(benchLayout(20, 7, 40), ParamsFig5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := eng.QuickExact(QuickExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Beyond the enumeration limit: instances ExGS cannot touch at all.

func BenchmarkGroundStateQuickExact30(b *testing.B) {
	eng := NewEngine(benchLayout(30, 7, 48), ParamsFig5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := eng.QuickExact(QuickExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroundStateQuickExact40(b *testing.B) {
	eng := NewEngine(benchLayout(40, 7, 56), ParamsFig5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := eng.QuickExact(QuickExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// The heuristic baseline at the same size, for context.

func BenchmarkGroundStateAnneal20(b *testing.B) {
	eng := NewEngine(benchLayout(20, 7, 40), ParamsFig5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Anneal(DefaultAnnealConfig())
	}
}

// The degeneracy gap at the exact limit: one pinned QuickExact search per
// key of the interest dots (4 keys for one output pair, 16 for two).

func BenchmarkDegeneracyGap22(b *testing.B) {
	eng := NewEngine(benchLayout(22, 7, 44), ParamsFig5)
	for _, interest := range [][]int{{0, 1}, {0, 1, 2, 3}} {
		b.Run(fmt.Sprintf("interest%d", len(interest)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.DegeneracyGap(context.Background(), interest, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
