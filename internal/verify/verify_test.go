package verify

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/logic/bench"
	"repro/internal/logic/mapping"
	"repro/internal/logic/network"
	"repro/internal/logic/rewrite"
	"repro/internal/pnr"
)

func TestEquivalentIdentical(t *testing.T) {
	a, err := bench.Load("c17")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := bench.Load("c17")
	res, err := EquivalentNetworksContext(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Errorf("identical networks reported different at %b", res.Counterexample)
	}
}

func TestEquivalentAfterRewrite(t *testing.T) {
	for _, name := range []string{"xor5_majority", "par_check", "mux21", "t_5"} {
		a, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rewrite.RewriteContext(context.Background(), a, rewrite.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := EquivalentNetworksContext(context.Background(), a, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Equivalent {
			t.Errorf("%s: rewrite broke equivalence at %b", name, res.Counterexample)
		}
	}
}

func TestNotEquivalentDetected(t *testing.T) {
	a := network.New()
	x, y := a.NewPI("x"), a.NewPI("y")
	a.NewPO(a.And(x, y), "f")
	b := network.New()
	x2, y2 := b.NewPI("x"), b.NewPI("y")
	b.NewPO(b.Or(x2, y2), "f")
	res, err := EquivalentNetworksContext(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("AND vs OR reported equivalent")
	}
	// Counterexample must actually distinguish them.
	if a.Simulate(res.Counterexample) == b.Simulate(res.Counterexample) {
		t.Errorf("counterexample %b does not distinguish", res.Counterexample)
	}
}

func TestSubtleDifferenceDetected(t *testing.T) {
	// Two structurally different networks equal except at one minterm.
	a, err := bench.Load("par_check")
	if err != nil {
		t.Fatal(err)
	}
	b := network.New()
	var pis []network.Signal
	for i := 0; i < 4; i++ {
		pis = append(pis, b.NewPI(""))
	}
	// parity-complement of 4 inputs, but flipped at input 0b1111 by OR-ing
	// the full minterm.
	par := b.Xnor(b.Xor(pis[0], pis[1]), b.Xor(pis[2], pis[3]))
	m := b.And(b.And(pis[0], pis[1]), b.And(pis[2], pis[3]))
	b.NewPO(b.Xor(par, m), "err")
	res, err := EquivalentNetworksContext(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("single-minterm difference missed")
	}
	if res.Counterexample != 0b1111 {
		t.Errorf("counterexample %04b, want 1111", res.Counterexample)
	}
}

func TestInterfaceMismatchErrors(t *testing.T) {
	a := network.New()
	a.NewPO(a.NewPI("x"), "f")
	b := network.New()
	b.NewPI("x")
	b.NewPI("y")
	b.NewPO(b.PI(0), "f")
	if _, err := EquivalentNetworksContext(context.Background(), a, b); err == nil {
		t.Error("PI mismatch must error")
	}
}

func TestSATAgreesWithExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		a := randomNet(rng)
		var b *network.XAG
		if trial%2 == 0 {
			b, _ = rewrite.RewriteContext(context.Background(), a, rewrite.Options{})
		} else {
			b = randomNet(rng)
		}
		if b.NumPIs() != a.NumPIs() || b.NumPOs() != a.NumPOs() {
			continue
		}
		res, err := EquivalentNetworksContext(context.Background(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		exh, cex := ExhaustiveEquivalent(a, b)
		if res.Equivalent != exh {
			t.Fatalf("trial %d: SAT says %v, exhaustive says %v (cex %b)", trial, res.Equivalent, exh, cex)
		}
		if !res.Equivalent && a.Simulate(res.Counterexample) == b.Simulate(res.Counterexample) {
			t.Fatalf("trial %d: bogus counterexample", trial)
		}
	}
}

func randomNet(rng *rand.Rand) *network.XAG {
	x := network.New()
	var sigs []network.Signal
	for i := 0; i < 4; i++ {
		sigs = append(sigs, x.NewPI(""))
	}
	for g := 0; g < 10; g++ {
		a := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 1)
		b := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 1)
		if rng.Intn(2) == 0 {
			sigs = append(sigs, x.And(a, b))
		} else {
			sigs = append(sigs, x.Xor(a, b))
		}
	}
	x.NewPO(sigs[len(sigs)-1], "f")
	x.NewPO(sigs[len(sigs)-3].Not(), "g")
	return x.Cleanup()
}

func TestEquivalentLayoutAllBenchmarks(t *testing.T) {
	for _, name := range bench.Names() {
		x, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mapping.Map(x)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := pnr.Expand(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		l, err := pnr.Ortho(context.Background(), g, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := EquivalentLayoutContext(context.Background(), x, l)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Equivalent {
			t.Errorf("%s: layout not equivalent, cex %b", name, res.Counterexample)
		}
	}
}

func TestEquivalentLayoutCatchesCorruption(t *testing.T) {
	x, err := bench.Load("mux21")
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Map(x)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pnr.Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	l, err := pnr.Ortho(context.Background(), g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one gate tile: flip AND <-> OR (or XOR <-> XNOR).
	corrupted := false
	for _, at := range l.Tiles() {
		tile, _ := l.At(at)
		switch tile.Func {
		case 6: // gates.And
			tile.Func = 7 // gates.Or
		case 7:
			tile.Func = 6
		case 10: // gates.Xor
			tile.Func = 11
		case 11:
			tile.Func = 10
		default:
			continue
		}
		if err := l.Set(at, tile); err != nil {
			t.Fatal(err)
		}
		corrupted = true
		break
	}
	if !corrupted {
		t.Skip("no 2-input gate tile found to corrupt")
	}
	res, err := EquivalentLayoutContext(context.Background(), x, l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Error("corrupted layout passed verification")
	}
}
