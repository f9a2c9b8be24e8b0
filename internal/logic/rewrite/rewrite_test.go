package rewrite

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/logic/bench"
	"repro/internal/logic/network"
)

// rewriteAll rewrites x under a context that never ends.
func rewriteAll(t *testing.T, x *network.XAG) *network.XAG {
	t.Helper()
	y, err := RewriteContext(context.Background(), x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func checkSameFunction(t *testing.T, a, b *network.XAG) {
	t.Helper()
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		t.Fatalf("interface changed: %v vs %v", a, b)
	}
	for in := uint32(0); in < 1<<a.NumPIs(); in++ {
		if a.Simulate(in) != b.Simulate(in) {
			t.Fatalf("function changed at input %b", in)
		}
	}
}

func TestRewriteRedundantMux(t *testing.T) {
	// A bloated mux construction that rewriting should shrink.
	x := network.New()
	s, a, b := x.NewPI("s"), x.NewPI("a"), x.NewPI("b")
	// (s AND a) OR (!s AND b), written with extra double negations.
	t0 := x.And(s, a)
	t1 := x.And(s.Not(), b)
	f := x.Or(t0, t1)
	x.NewPO(f, "f")
	before := x.NumGates()
	y := rewriteAll(t, x)
	checkSameFunction(t, x, y)
	if y.NumGates() > before {
		t.Errorf("rewriting grew the network: %d -> %d", before, y.NumGates())
	}
}

func TestRewriteCollapsesDuplicatedLogic(t *testing.T) {
	// Build XOR3 in a wasteful way: (a^b)^c plus a redundant reconstruction
	// of the same function through AND/OR logic on a second PO.
	x := network.New()
	a, b, c := x.NewPI("a"), x.NewPI("b"), x.NewPI("c")
	x1 := x.Xor(x.Xor(a, b), c)
	// xor(a,b) = (a|b) & !(a&b), then xor with c the long way.
	ab := x.And(x.Or(a, b), x.And(a, b).Not())
	x2 := x.And(x.Or(ab, c), x.And(ab, c).Not())
	x.NewPO(x1, "f1")
	x.NewPO(x2, "f2")
	before := x.NumGates()
	y := rewriteAll(t, x)
	checkSameFunction(t, x, y)
	if y.NumGates() >= before {
		t.Errorf("expected shrink: %d -> %d", before, y.NumGates())
	}
}

func TestRewriteAllBenchmarksPreserveFunction(t *testing.T) {
	for _, name := range bench.Names() {
		x, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		y := rewriteAll(t, x)
		checkSameFunction(t, x, y)
		if y.NumGates() > x.NumGates() {
			t.Errorf("%s: rewriting grew the network %d -> %d", name, x.NumGates(), y.NumGates())
		}
	}
}

func TestRewriteXor5MajorityShrinks(t *testing.T) {
	// The MAJ-based xor5 is heavily redundant; rewriting must recover most
	// of the pure-XOR structure.
	x, err := bench.Load("xor5_majority")
	if err != nil {
		t.Fatal(err)
	}
	y := rewriteAll(t, x)
	checkSameFunction(t, x, y)
	if y.NumGates() > x.NumGates()/2 {
		t.Errorf("expected strong reduction, got %d -> %d", x.NumGates(), y.NumGates())
	}
}

func TestRewriteIdempotentOnOptimal(t *testing.T) {
	x, err := bench.Load("xor2")
	if err != nil {
		t.Fatal(err)
	}
	y := rewriteAll(t, x)
	z := rewriteAll(t, y)
	if z.NumGates() != y.NumGates() {
		t.Errorf("second rewrite changed size: %d -> %d", y.NumGates(), z.NumGates())
	}
	checkSameFunction(t, x, z)
}

func TestRewriteRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		x := network.New()
		var sigs []network.Signal
		for i := 0; i < 4; i++ {
			sigs = append(sigs, x.NewPI(""))
		}
		for g := 0; g < 20; g++ {
			a := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 1)
			b := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 1)
			if rng.Intn(2) == 0 {
				sigs = append(sigs, x.And(a, b))
			} else {
				sigs = append(sigs, x.Xor(a, b))
			}
		}
		x.NewPO(sigs[len(sigs)-1], "f")
		x.NewPO(sigs[len(sigs)-2], "g")
		xc := x.Cleanup()
		y := rewriteAll(t, xc)
		checkSameFunction(t, xc, y)
		if y.NumGates() > xc.NumGates() {
			t.Errorf("trial %d: grew %d -> %d", trial, xc.NumGates(), y.NumGates())
		}
	}
}

func TestCutEnumerationProperties(t *testing.T) {
	x, err := bench.Load("c17")
	if err != nil {
		t.Fatal(err)
	}
	cuts := enumerateCuts(x)
	for n := 1; n < x.NumNodes(); n++ {
		for _, c := range cuts[n] {
			if len(c) > cutSize {
				t.Fatalf("node %d: cut %v exceeds size %d", n, c, cutSize)
			}
			for i := 1; i < len(c); i++ {
				if c[i-1] >= c[i] {
					t.Fatalf("node %d: cut %v not sorted", n, c)
				}
			}
			// The cut function must be computable (cut must be a real cut).
			if _, ok := cutFunction(x, n, c); !ok {
				t.Fatalf("node %d: cut %v is not a valid cut", n, c)
			}
		}
		if len(cuts[n]) > cutsPerNode {
			t.Fatalf("node %d: %d cuts exceeds limit", n, len(cuts[n]))
		}
	}
}

func TestMergeCuts(t *testing.T) {
	a := cut{1, 3, 5}
	b := cut{2, 3, 6}
	m, ok := mergeCuts(a, b, 6)
	if !ok || len(m) != 5 {
		t.Fatalf("merge = %v, %v", m, ok)
	}
	if _, ok := mergeCuts(a, b, 4); ok {
		t.Error("merge must fail beyond k")
	}
}

func TestDominates(t *testing.T) {
	if !dominates(cut{1, 3}, cut{1, 2, 3}) {
		t.Error("subset must dominate")
	}
	if dominates(cut{1, 4}, cut{1, 2, 3}) {
		t.Error("non-subset must not dominate")
	}
	if !dominates(cut{2}, cut{2}) {
		t.Error("equal cuts dominate")
	}
}
