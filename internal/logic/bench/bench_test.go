package bench

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/logic/tt"
)

func TestParseBenchSimple(t *testing.T) {
	src := `
# comment
INPUT(a)
INPUT(b)
OUTPUT(f)
f = AND(a, b)
`
	x, err := ParseBench("and2", src)
	if err != nil {
		t.Fatal(err)
	}
	if x.NumPIs() != 2 || x.NumPOs() != 1 || x.NumGates() != 1 {
		t.Fatalf("unexpected shape: %v", x)
	}
	if got := x.TruthTables()[0].Hex(); got != "8" {
		t.Errorf("and2 = %s", got)
	}
}

func TestParseBenchOutOfOrder(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(f)
f = NOT(g)
g = OR(a, b)
`
	x, err := ParseBench("nor2", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.TruthTables()[0].Hex(); got != "1" {
		t.Errorf("nor2 = %s", got)
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := map[string]string{
		"no outputs":     "INPUT(a)\n",
		"unknown gate":   "INPUT(a)\nOUTPUT(f)\nf = FROB(a)\n",
		"cycle":          "INPUT(a)\nOUTPUT(f)\nf = AND(a, g)\ng = AND(a, f)\n",
		"missing signal": "INPUT(a)\nOUTPUT(f)\nf = AND(a, nothere)\n",
		"redefined":      "INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = AND(a, b)\nf = OR(a, b)\n",
		"dup input":      "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n",
		"bad line":       "INPUT(a)\nOUTPUT(f)\nf AND a b\n",
		"undef output":   "INPUT(a)\nOUTPUT(zzz)\n",
	}
	for name, src := range cases {
		if _, err := ParseBench(name, src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestParseBenchVariadicGates(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(f)
f = AND(a, b, c)
`
	x, err := ParseBench("and3", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.TruthTables()[0].Hex(); got != "80" {
		t.Errorf("and3 = %s, want 80", got)
	}
}

func TestAllBenchmarksParse(t *testing.T) {
	for _, b := range Benchmarks {
		x, err := Load(b.Name)
		if err != nil {
			t.Errorf("%s: %v", b.Name, err)
			continue
		}
		if x.NumPOs() == 0 || x.NumPIs() == 0 {
			t.Errorf("%s: degenerate interface", b.Name)
		}
	}
	if len(Benchmarks) != 14 {
		t.Errorf("Table 1 has 14 rows, embedded %d", len(Benchmarks))
	}
}

// popcount-based functional specs for the Table 1 circuits.
func TestBenchmarkSemantics(t *testing.T) {
	check := func(name string, spec func(in uint32) uint32) {
		t.Helper()
		x, err := Load(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for in := uint32(0); in < 1<<x.NumPIs(); in++ {
			if got, want := x.Simulate(in), spec(in); got != want {
				t.Errorf("%s(%b) = %b, want %b", name, in, got, want)
			}
		}
	}

	parity := func(in uint32) uint32 { return uint32(bits.OnesCount32(in)) & 1 }

	check("xor2", parity)
	check("xnor2", func(in uint32) uint32 { return parity(in) ^ 1 })
	check("par_gen", parity)
	// par_check: XNOR(XNOR(d0,d1), XNOR(d2,p)) == even-parity indicator...
	// output is 1 iff total parity is even? e0 = !(d0^d1), e1 = !(d2^p),
	// err = !(e0^e1) = !(d0^d1^d2^p) inverted twice = d0^d1^d2^p ... compute:
	// e0^e1 = (d0^d1)^(d2^p), so err = NOT(parity) -> flags even parity.
	check("par_check", func(in uint32) uint32 { return parity(in) ^ 1 })
	check("xor5_r1", parity)
	check("xor5_majority", parity)
	check("majority", func(in uint32) uint32 {
		if bits.OnesCount32(in&7) >= 2 {
			return 1
		}
		return 0
	})
	check("majority_5_r1", func(in uint32) uint32 {
		if bits.OnesCount32(in&31) >= 3 {
			return 1
		}
		return 0
	})
	check("mux21", func(in uint32) uint32 {
		a, b, s := in&1, in>>1&1, in>>2&1
		if s == 1 {
			return b
		}
		return a
	})
	check("cm82a_5", func(in uint32) uint32 {
		a, b, cin := in&1, in>>1&1, in>>2&1
		c, d := in>>3&1, in>>4&1
		sum0 := a + b + cin
		s0, k0 := sum0&1, sum0>>1
		sum1 := c + d + k0
		s1, cout := sum1&1, sum1>>1
		return s0 | s1<<1 | cout<<2
	})
	check("newtag", func(in uint32) uint32 {
		a := in & 0xf
		b := in >> 4 & 0xf
		if a == b {
			return 1
		}
		return 0
	})
}

func TestC17KnownVectors(t *testing.T) {
	x, err := Load("c17")
	if err != nil {
		t.Fatal(err)
	}
	// Reference model of the c17 NAND network, PIs in declared order
	// G1,G2,G3,G6,G7 (bits 0..4).
	ref := func(in uint32) uint32 {
		g1, g2, g3 := in&1, in>>1&1, in>>2&1
		g6, g7 := in>>3&1, in>>4&1
		nand := func(a, b uint32) uint32 { return (a & b) ^ 1 }
		g10 := nand(g1, g3)
		g11 := nand(g3, g6)
		g16 := nand(g2, g11)
		g19 := nand(g11, g7)
		return nand(g10, g16) | nand(g16, g19)<<1
	}
	for in := uint32(0); in < 32; in++ {
		if got, want := x.Simulate(in), ref(in); got != want {
			t.Errorf("c17(%05b) = %02b, want %02b", in, got, want)
		}
	}
}

func TestTAndT5Equivalent(t *testing.T) {
	a, err := Load("t")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load("t_5")
	if err != nil {
		t.Fatal(err)
	}
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		t.Fatal("t and t_5 interfaces differ")
	}
	for in := uint32(0); in < 1<<a.NumPIs(); in++ {
		if a.Simulate(in) != b.Simulate(in) {
			t.Errorf("t vs t_5 mismatch at %05b", in)
		}
	}
}

func TestParseVerilog(t *testing.T) {
	src := `
// 2:1 mux
module mux21(a, b, s, f);
  input a, b, s;
  output f;
  wire t0, t1;
  assign t0 = a & ~s;
  assign t1 = b & s;
  assign f = t0 | t1;
endmodule
`
	x, err := ParseVerilog(src)
	if err != nil {
		t.Fatal(err)
	}
	if x.Name != "mux21" {
		t.Errorf("module name = %q", x.Name)
	}
	for in := uint32(0); in < 8; in++ {
		a, b, s := in&1, in>>1&1, in>>2&1
		want := a
		if s == 1 {
			want = b
		}
		if got := x.Simulate(in); got != want {
			t.Errorf("mux(%03b) = %d, want %d", in, got, want)
		}
	}
}

func TestParseVerilogPrecedence(t *testing.T) {
	src := `
module prec(a, b, c, f);
  input a, b, c;
  output f;
  assign f = a | b & c ^ a;  /* & binds tighter than ^ binds tighter than | */
endmodule
`
	x, err := ParseVerilog(src)
	if err != nil {
		t.Fatal(err)
	}
	for in := uint32(0); in < 8; in++ {
		a, b, c := in&1, in>>1&1, in>>2&1
		want := a | ((b & c) ^ a)
		if got := x.Simulate(in); got != want {
			t.Errorf("prec(%03b) = %d, want %d", in, got, want)
		}
	}
}

func TestParseVerilogConstantsAndOrder(t *testing.T) {
	src := `
module k(a, f);
  input a;
  output f;
  wire w;
  assign f = w ^ 1'b1;
  assign w = a & 1'b1;
endmodule
`
	x, err := ParseVerilog(src)
	if err != nil {
		t.Fatal(err)
	}
	if x.Simulate(0) != 1 || x.Simulate(1) != 0 {
		t.Error("constant handling wrong")
	}
}

func TestParseVerilogErrors(t *testing.T) {
	cases := map[string]string{
		"unassigned out": "module m(a, f); input a; output f; endmodule",
		"double assign":  "module m(a, f); input a; output f; assign f = a; assign f = ~a; endmodule",
		"bad token":      "module m(a, f); input a; output f; assign f = a + a; endmodule",
		"unbalanced":     "module m(a, f); input a; output f; assign f = (a; endmodule",
		"cycle":          "module m(a, f); input a; output f; wire u, v; assign u = v; assign v = u; assign f = u; endmodule",
		"redeclare":      "module m(a, f); input a; input a; output f; assign f = a; endmodule",
	}
	for name, src := range cases {
		if _, err := ParseVerilog(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestNamesAndByName(t *testing.T) {
	names := Names()
	if len(names) != len(Benchmarks) || names[0] != "xor2" {
		t.Errorf("Names() wrong: %v", names)
	}
	if _, err := Load("c17"); err != nil {
		t.Errorf("Load(c17): %v", err)
	}
	if _, err := Load("nonesuch"); err == nil {
		t.Error("Load must fail for unknown names")
	}
}

// TestLoadReturnsIndependentCopies checks that Load, which parses each
// built-in once, hands every caller its own network: editing one copy
// leaves the next Load as the netlist's parse.
func TestLoadReturnsIndependentCopies(t *testing.T) {
	for _, b := range Benchmarks {
		want, err := ParseBench(b.Name, b.Source)
		if err != nil {
			t.Fatal(err)
		}
		first, err := Load(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		first.Name = "edited"
		first.NewPO(first.And(first.PI(0), first.PI(first.NumPIs()-1).Not()), "extra")
		second, err := Load(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		if first == second {
			t.Fatalf("%s: two Loads returned the same network", b.Name)
		}
		if second.Name != want.Name || second.NumPOs() != want.NumPOs() || second.NumGates() != want.NumGates() ||
			!slices.EqualFunc(second.TruthTables(), want.TruthTables(), tt.TT.Equal) {
			t.Errorf("%s: Load after editing an earlier copy differs from the netlist's parse", b.Name)
		}
	}
}
