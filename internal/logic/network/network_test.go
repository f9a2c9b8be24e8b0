package network

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstRules(t *testing.T) {
	x := New()
	a := x.NewPI("a")
	if got := x.And(a, x.Const(false)); got != x.Const(false) {
		t.Errorf("a AND 0 = %v", got)
	}
	if got := x.And(x.Const(true), a); got != a {
		t.Errorf("1 AND a = %v", got)
	}
	if got := x.And(a, a); got != a {
		t.Errorf("a AND a = %v", got)
	}
	if got := x.And(a, a.Not()); got != x.Const(false) {
		t.Errorf("a AND !a = %v", got)
	}
	if got := x.Xor(a, x.Const(false)); got != a {
		t.Errorf("a XOR 0 = %v", got)
	}
	if got := x.Xor(a, x.Const(true)); got != a.Not() {
		t.Errorf("a XOR 1 = %v", got)
	}
	if got := x.Xor(a, a); got != x.Const(false) {
		t.Errorf("a XOR a = %v", got)
	}
	if got := x.Xor(a, a.Not()); got != x.Const(true) {
		t.Errorf("a XOR !a = %v", got)
	}
}

func TestStructuralHashing(t *testing.T) {
	x := New()
	a, b := x.NewPI("a"), x.NewPI("b")
	g1 := x.And(a, b)
	g2 := x.And(b, a)
	if g1 != g2 {
		t.Error("AND must be hashed commutatively")
	}
	x1 := x.Xor(a, b)
	x2 := x.Xor(b, a)
	if x1 != x2 {
		t.Error("XOR must be hashed commutatively")
	}
	// XOR complement normalization: !a ^ b == !(a ^ b) shares the node.
	x3 := x.Xor(a.Not(), b)
	if x3 != x1.Not() {
		t.Errorf("XOR complement normalization broken: %v vs %v", x3, x1.Not())
	}
	if x.NumGates() != 2 {
		t.Errorf("gate count %d, want 2", x.NumGates())
	}
}

func TestSignalPacking(t *testing.T) {
	f := func(n uint16, neg bool) bool {
		s := MakeSignal(int(n), neg)
		return s.Node() == int(n) && s.Neg() == neg && s.Not().Neg() != neg && s.Not().Node() == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func buildFullAdder(x *XAG) (sum, carry Signal) {
	a, b, cin := x.NewPI("a"), x.NewPI("b"), x.NewPI("cin")
	sum = x.Xor(x.Xor(a, b), cin)
	carry = x.Maj(a, b, cin)
	return sum, carry
}

func TestFullAdderSimulation(t *testing.T) {
	x := New()
	sum, carry := buildFullAdder(x)
	x.NewPO(sum, "s")
	x.NewPO(carry, "cout")
	for in := uint32(0); in < 8; in++ {
		pop := in&1 + in>>1&1 + in>>2&1
		out := x.Simulate(in)
		gotSum := out & 1
		gotCarry := out >> 1 & 1
		if gotSum != pop&1 || gotCarry != pop>>1 {
			t.Errorf("FA(%03b): sum=%d carry=%d, pop=%d", in, gotSum, gotCarry, pop)
		}
	}
}

func TestTruthTables(t *testing.T) {
	x := New()
	sum, carry := buildFullAdder(x)
	x.NewPO(sum, "s")
	x.NewPO(carry, "cout")
	tabs := x.TruthTables()
	if tabs[0].Hex() != "96" {
		t.Errorf("sum table = %s, want 96", tabs[0].Hex())
	}
	if tabs[1].Hex() != "e8" {
		t.Errorf("carry table = %s, want e8", tabs[1].Hex())
	}
}

func TestSimulateMatchesTruthTables(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		x := randomXAG(rng, 4, 12, 2)
		tabs := x.TruthTables()
		for in := uint32(0); in < 16; in++ {
			out := x.Simulate(in)
			for po := range tabs {
				if tabs[po].Eval(in) != ((out>>po)&1 == 1) {
					t.Fatalf("simulate/tt mismatch trial %d in %04b po %d", trial, in, po)
				}
			}
		}
	}
}

// randomXAG builds a random network for property tests.
func randomXAG(rng *rand.Rand, nPIs, nGates, nPOs int) *XAG {
	x := New()
	sigs := []Signal{x.Const(false)}
	for i := 0; i < nPIs; i++ {
		sigs = append(sigs, x.NewPI(""))
	}
	for i := 0; i < nGates; i++ {
		a := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 1)
		b := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 1)
		var g Signal
		if rng.Intn(2) == 0 {
			g = x.And(a, b)
		} else {
			g = x.Xor(a, b)
		}
		sigs = append(sigs, g)
	}
	for i := 0; i < nPOs; i++ {
		x.NewPO(sigs[len(sigs)-1-i%len(sigs)].NotIf(rng.Intn(2) == 1), "")
	}
	return x
}

func TestLevels(t *testing.T) {
	x := New()
	a, b, c := x.NewPI("a"), x.NewPI("b"), x.NewPI("c")
	g1 := x.And(a, b)
	g2 := x.Xor(g1, c)
	x.NewPO(g2, "o")
	levels, depth := x.Levels()
	if depth != 2 {
		t.Errorf("depth = %d, want 2", depth)
	}
	if levels[g1.Node()] != 1 || levels[g2.Node()] != 2 {
		t.Errorf("levels wrong: %v", levels)
	}
}

func TestFanoutCounts(t *testing.T) {
	x := New()
	a, b := x.NewPI("a"), x.NewPI("b")
	g := x.And(a, b)
	o1 := x.Xor(g, a)
	x.NewPO(o1, "o1")
	x.NewPO(g, "o2")
	fo := x.FanoutCounts()
	if fo[g.Node()] != 2 {
		t.Errorf("fanout of g = %d, want 2 (one gate + one PO)", fo[g.Node()])
	}
	if fo[a.Node()] != 2 {
		t.Errorf("fanout of a = %d, want 2", fo[a.Node()])
	}
}

func TestCleanupRemovesDanglingAndPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		x := randomXAG(rng, 4, 15, 2)
		// Add dangling logic.
		d := x.And(x.PI(0), x.PI(1).Not())
		_ = x.Xor(d, x.PI(2))
		before := x.TruthTables()
		c := x.Cleanup()
		after := c.TruthTables()
		if c.NumPIs() != x.NumPIs() || c.NumPOs() != x.NumPOs() {
			t.Fatal("cleanup changed interface")
		}
		if c.NumGates() > x.NumGates() {
			t.Fatal("cleanup grew the network")
		}
		for i := range before {
			if !before[i].Equal(after[i]) {
				t.Fatalf("cleanup changed function of PO %d", i)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	x := New()
	a, b := x.NewPI("a"), x.NewPI("b")
	x.NewPO(x.And(a, b), "o")
	c := x.Clone()
	c.NewPO(c.Xor(a, b), "o2")
	if x.NumPOs() != 1 || c.NumPOs() != 2 {
		t.Error("clone must be independent")
	}
}

func TestMuxAndMaj(t *testing.T) {
	x := New()
	s, a, b := x.NewPI("s"), x.NewPI("a"), x.NewPI("b")
	x.NewPO(x.Mux(s, a, b), "mux")
	tabs := x.TruthTables()
	// mux(s,a,b): s is var0, a var1, b var2 -> s? a : b
	for in := uint32(0); in < 8; in++ {
		sel := in&1 == 1
		av := in>>1&1 == 1
		bv := in>>2&1 == 1
		want := bv
		if sel {
			want = av
		}
		if tabs[0].Eval(in) != want {
			t.Errorf("mux(%03b) = %v, want %v", in, tabs[0].Eval(in), want)
		}
	}

	y := New()
	p, q, r := y.NewPI("p"), y.NewPI("q"), y.NewPI("r")
	y.NewPO(y.Maj(p, q, r), "maj")
	if got := y.TruthTables()[0].Hex(); got != "e8" {
		t.Errorf("maj = %s, want e8", got)
	}
}

func TestOrNandNorXnor(t *testing.T) {
	x := New()
	a, b := x.NewPI("a"), x.NewPI("b")
	x.NewPO(x.Or(a, b), "or")
	x.NewPO(x.Nand(a, b), "nand")
	x.NewPO(x.Nor(a, b), "nor")
	x.NewPO(x.Xnor(a, b), "xnor")
	tabs := x.TruthTables()
	want := []string{"e", "7", "1", "9"}
	for i, w := range want {
		if tabs[i].Hex() != w {
			t.Errorf("PO %d = %s, want %s", i, tabs[i].Hex(), w)
		}
	}
}

func TestStatsAndString(t *testing.T) {
	x := New()
	x.Name = "fa"
	s, c := buildFullAdder(x)
	x.NewPO(s, "s")
	x.NewPO(c, "c")
	st := x.Stats()
	if st.PIs != 3 || st.POs != 2 || st.Gates != st.Ands+st.Xors {
		t.Errorf("stats inconsistent: %+v", st)
	}
	if x.String() == "" {
		t.Error("String must not be empty")
	}
}

func TestTopoOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	x := randomXAG(rng, 5, 30, 3)
	pos := make(map[int]int)
	for i, n := range x.TopoOrder() {
		pos[n] = i
	}
	for n := 1; n < x.NumNodes(); n++ {
		if k := x.Kind(n); k == KindAnd || k == KindXor {
			a, b := x.FanIns(n)
			if pos[a.Node()] >= pos[n] || pos[b.Node()] >= pos[n] {
				t.Fatalf("topo order violated at node %d", n)
			}
		}
	}
}

func TestPIIndex(t *testing.T) {
	x := New()
	a := x.NewPI("a")
	b := x.NewPI("b")
	if x.PI(0) != a || x.PI(1) != b {
		t.Error("PI order wrong")
	}
	if x.PIName(0) != "a" || x.PIName(1) != "b" {
		t.Error("PI names wrong")
	}
}

func TestXorDeepComplementEquivalence(t *testing.T) {
	// Build the same function two ways and confirm the hash merges them.
	x := New()
	a, b, c := x.NewPI("a"), x.NewPI("b"), x.NewPI("c")
	f1 := x.Xor(x.Xor(a, b), c)
	f2 := x.Xor(a, x.Xor(b, c))
	x.NewPO(f1, "f1")
	x.NewPO(f2, "f2")
	tabs := x.TruthTables()
	if !tabs[0].Equal(tabs[1]) {
		t.Error("XOR associativity broken functionally")
	}
}

func TestToAIGPreservesFunction(t *testing.T) {
	x := New()
	a, b, c := x.NewPI("a"), x.NewPI("b"), x.NewPI("c")
	x.NewPO(x.Xor(x.Xor(a, b), c), "parity")
	x.NewPO(x.Maj(a, b, c), "maj")
	aig := x.ToAIG()
	if aig.NumXors() != 0 {
		t.Fatal("conversion left XOR nodes")
	}
	for in := uint32(0); in < 8; in++ {
		if aig.Simulate(in) != x.Simulate(in) {
			t.Fatalf("AIG differs at %03b", in)
		}
	}
	// Parity-heavy logic must grow under AIG decomposition.
	if aig.NumGates() <= x.NumGates() {
		t.Errorf("AIG (%d gates) not larger than XAG (%d)", aig.NumGates(), x.NumGates())
	}
}

func TestToAIGIdempotentOnPureAnd(t *testing.T) {
	x := New()
	a, b := x.NewPI("a"), x.NewPI("b")
	x.NewPO(x.And(a, b.Not()), "f")
	aig := x.ToAIG()
	if aig.NumGates() != x.NumGates() {
		t.Error("AND-only networks must not grow")
	}
}
