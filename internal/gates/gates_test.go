package gates

import "testing"

func TestPortCounts(t *testing.T) {
	cases := map[Func][2]int{
		Wire: {1, 1}, DiagWire: {1, 1}, Inv: {1, 1},
		Fanout: {1, 2}, Crossing: {2, 2}, HalfAdder: {2, 2},
		And: {2, 1}, Or: {2, 1}, Nand: {2, 1}, Nor: {2, 1},
		Xor: {2, 1}, Xnor: {2, 1},
		PI: {0, 1}, PO: {1, 0}, None: {0, 0},
	}
	for f, want := range cases {
		if f.NumIns() != want[0] || f.NumOuts() != want[1] {
			t.Errorf("%v: ports (%d,%d), want (%d,%d)", f, f.NumIns(), f.NumOuts(), want[0], want[1])
		}
	}
}

func TestEvalTruthTables(t *testing.T) {
	two := func(f Func, tt [4]bool) {
		for i := 0; i < 4; i++ {
			in := []bool{i&1 == 1, i>>1&1 == 1}
			if got := f.Eval(in)[0]; got != tt[i] {
				t.Errorf("%v(%v) = %v, want %v", f, in, got, tt[i])
			}
		}
	}
	two(And, [4]bool{false, false, false, true})
	two(Or, [4]bool{false, true, true, true})
	two(Nand, [4]bool{true, true, true, false})
	two(Nor, [4]bool{true, false, false, false})
	two(Xor, [4]bool{false, true, true, false})
	two(Xnor, [4]bool{true, false, false, true})

	if got := Inv.Eval([]bool{true})[0]; got {
		t.Error("Inv(1) must be 0")
	}
	if got := Wire.Eval([]bool{true})[0]; !got {
		t.Error("Wire(1) must be 1")
	}
}

func TestEvalMultiOutput(t *testing.T) {
	fo := Fanout.Eval([]bool{true})
	if !fo[0] || !fo[1] {
		t.Error("Fanout(1) must duplicate")
	}
	// Crossing: out0 (SW) carries in1 (NE); out1 (SE) carries in0 (NW).
	cr := Crossing.Eval([]bool{true, false})
	if cr[0] != false || cr[1] != true {
		t.Errorf("Crossing(1,0) = %v, want [false true]", cr)
	}
	ha := HalfAdder.Eval([]bool{true, true})
	if ha[0] != false || ha[1] != true {
		t.Errorf("HA(1,1) = %v, want sum=0 carry=1", ha)
	}
}

func TestClassification(t *testing.T) {
	for _, f := range []Func{Inv, And, Or, Nand, Nor, Xor, Xnor, HalfAdder} {
		if !f.IsGate() {
			t.Errorf("%v must be a gate", f)
		}
	}
	for _, f := range []Func{Wire, DiagWire, Fanout, Crossing} {
		if f.IsGate() {
			t.Errorf("%v is routing, not a gate", f)
		}
	}
	if PI.IsGate() || PO.IsGate() {
		t.Error("I/O pins are not gates")
	}
}

func TestAllAndTwoInput(t *testing.T) {
	if len(All()) != 14 {
		t.Errorf("All() = %d funcs, want 14", len(All()))
	}
	for _, f := range []Func{And, Or, Nand, Nor, Xor, Xnor} {
		if f.NumIns() != 2 || f.NumOuts() != 1 {
			t.Errorf("%v is not 2-in-1-out", f)
		}
	}
}

func TestStringNames(t *testing.T) {
	for _, f := range All() {
		if f.String() == "" || f.String()[0] == 'F' && f != Fanout {
			t.Errorf("%v has suspicious name %q", int(f), f.String())
		}
	}
}
