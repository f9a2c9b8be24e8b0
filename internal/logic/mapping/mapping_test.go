package mapping

import (
	"math/rand"
	"testing"

	"repro/internal/gates"
	"repro/internal/logic/bench"
	"repro/internal/logic/network"
)

func mustMap(t *testing.T, x *network.XAG) *Net {
	t.Helper()
	m, err := Map(x)
	if err != nil {
		t.Fatalf("Map(%s): %v", x.Name, err)
	}
	return m
}

func checkEquivalent(t *testing.T, x *network.XAG, m *Net) {
	t.Helper()
	if len(m.PIs) != x.NumPIs() || len(m.POs) != x.NumPOs() {
		t.Fatalf("%s: interface mismatch", x.Name)
	}
	for in := uint32(0); in < 1<<x.NumPIs(); in++ {
		if got, want := m.Simulate(in), x.Simulate(in); got != want {
			t.Fatalf("%s: mapped(%b)=%b, xag=%b", x.Name, in, got, want)
		}
	}
}

func TestMapAllBenchmarks(t *testing.T) {
	for _, name := range bench.Names() {
		x, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		m := mustMap(t, x)
		checkEquivalent(t, x, m)
	}
}

func TestMapSelectsNorForDoubleNegatedAnd(t *testing.T) {
	x := network.New()
	a, b := x.NewPI("a"), x.NewPI("b")
	x.NewPO(x.And(a.Not(), b.Not()), "f") // == NOR(a, b)
	m := mustMap(t, x)
	checkEquivalent(t, x, m)
	h := m.GateCounts()
	if h[gates.Nor] != 1 || h[gates.Inv] != 0 {
		t.Errorf("expected a single NOR and no inverters, got %v", h)
	}
}

func TestMapSelectsNandForNegatedOutput(t *testing.T) {
	x := network.New()
	a, b := x.NewPI("a"), x.NewPI("b")
	x.NewPO(x.And(a, b).Not(), "f")
	m := mustMap(t, x)
	checkEquivalent(t, x, m)
	h := m.GateCounts()
	if h[gates.Nand] != 1 || h[gates.Inv] != 0 {
		t.Errorf("expected a single NAND and no inverters, got %v", h)
	}
}

func TestMapSelectsXnor(t *testing.T) {
	x := network.New()
	a, b := x.NewPI("a"), x.NewPI("b")
	x.NewPO(x.Xnor(a, b), "f")
	m := mustMap(t, x)
	checkEquivalent(t, x, m)
	h := m.GateCounts()
	if h[gates.Xnor] != 1 || h[gates.Inv] != 0 {
		t.Errorf("expected a single XNOR and no inverters, got %v", h)
	}
}

func TestMapOrViaDeMorgan(t *testing.T) {
	x := network.New()
	a, b := x.NewPI("a"), x.NewPI("b")
	x.NewPO(x.Or(a, b), "f")
	m := mustMap(t, x)
	checkEquivalent(t, x, m)
	h := m.GateCounts()
	if h[gates.Or] != 1 || h[gates.Inv] != 0 {
		t.Errorf("expected a single OR, got %v", h)
	}
}

func TestMapMixedPolarityNeedsOneInverter(t *testing.T) {
	x := network.New()
	a, b := x.NewPI("a"), x.NewPI("b")
	x.NewPO(x.And(a, b.Not()), "f")
	m := mustMap(t, x)
	checkEquivalent(t, x, m)
	h := m.GateCounts()
	if h[gates.Inv] != 1 {
		t.Errorf("mixed polarity needs exactly one inverter, got %v", h)
	}
}

func TestMapHalfAdderFusion(t *testing.T) {
	x := network.New()
	a, b := x.NewPI("a"), x.NewPI("b")
	x.NewPO(x.Xor(a, b), "sum")
	x.NewPO(x.And(a, b), "carry")
	m := mustMap(t, x)
	checkEquivalent(t, x, m)
	h := m.GateCounts()
	if h[gates.HalfAdder] != 1 {
		t.Errorf("expected half-adder fusion, got %v", h)
	}
	if h[gates.Xor] != 0 || h[gates.And] != 0 {
		t.Errorf("fused gates must not also appear separately: %v", h)
	}
}

func TestMapFullAdderUsesHalfAdders(t *testing.T) {
	x := network.New()
	a, b, cin := x.NewPI("a"), x.NewPI("b"), x.NewPI("cin")
	s1 := x.Xor(a, b)
	c1 := x.And(a, b)
	sum := x.Xor(s1, cin)
	c2 := x.And(s1, cin)
	x.NewPO(sum, "s")
	x.NewPO(x.Or(c1, c2), "cout")
	m := mustMap(t, x)
	checkEquivalent(t, x, m)
	if got := m.GateCounts()[gates.HalfAdder]; got != 2 {
		t.Errorf("full adder should fuse into 2 half adders, got %d", got)
	}
}

func TestMapInverterSharing(t *testing.T) {
	// Three consumers of !a must share one inverter.
	x := network.New()
	a, b, c, d := x.NewPI("a"), x.NewPI("b"), x.NewPI("c"), x.NewPI("d")
	na := a.Not()
	x.NewPO(x.And(na, b), "f0")
	x.NewPO(x.And(na, c), "f1")
	x.NewPO(x.And(na, d), "f2")
	m := mustMap(t, x)
	checkEquivalent(t, x, m)
	if got := m.GateCounts()[gates.Inv]; got != 1 {
		t.Errorf("inverter must be shared: got %d", got)
	}
}

func TestMapConstantPORejected(t *testing.T) {
	x := network.New()
	x.NewPI("a")
	x.NewPO(x.Const(true), "f")
	if _, err := Map(x); err == nil {
		t.Error("constant PO must be rejected")
	}
}

func TestMapRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		x := network.New()
		var sigs []network.Signal
		nPI := 3 + rng.Intn(3)
		for i := 0; i < nPI; i++ {
			sigs = append(sigs, x.NewPI(""))
		}
		for g := 0; g < 15; g++ {
			a := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 1)
			b := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 1)
			if a.Node() == b.Node() {
				continue
			}
			if rng.Intn(2) == 0 {
				sigs = append(sigs, x.And(a, b))
			} else {
				sigs = append(sigs, x.Xor(a, b))
			}
		}
		nPO := 1 + rng.Intn(3)
		for i := 0; i < nPO; i++ {
			s := sigs[len(sigs)-1-rng.Intn(min(4, len(sigs)))]
			x.NewPO(s.NotIf(rng.Intn(2) == 1), "")
		}
		xc := x.Cleanup()
		m := mustMap(t, xc)
		checkEquivalent(t, xc, m)
	}
}

func TestLevelsAndStats(t *testing.T) {
	x, err := bench.Load("c17")
	if err != nil {
		t.Fatal(err)
	}
	m := mustMap(t, x)
	_, depth := m.Levels()
	if depth < 2 {
		t.Errorf("c17 depth %d unreasonably small", depth)
	}
	st := m.Stats()
	if st.PIs != 5 || st.POs != 2 || st.Gates == 0 {
		t.Errorf("stats wrong: %+v", st)
	}
	if m.String() == "" {
		t.Error("String empty")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
