package tt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVarProjections(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for v := 0; v < n; v++ {
			p := Var(n, v)
			for i := 0; i < p.Bits(); i++ {
				want := (i>>v)&1 == 1
				if p.Get(i) != want {
					t.Fatalf("Var(%d,%d) bit %d = %v, want %v", n, v, i, p.Get(i), want)
				}
			}
		}
	}
}

func TestHexRoundTrip(t *testing.T) {
	cases := []struct {
		n   int
		hex string
	}{
		{2, "8"}, {2, "6"}, {2, "e"}, {3, "e8"}, {3, "96"},
		{4, "8000"}, {4, "6996"}, {5, "96696996"},
		{6, "9669699669969669"},
	}
	for _, c := range cases {
		tab, err := FromHex(c.n, c.hex)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Hex() != c.hex {
			t.Errorf("hex round trip %q -> %q", c.hex, tab.Hex())
		}
	}
}

func TestFromHexErrors(t *testing.T) {
	if _, err := FromHex(3, "e"); err == nil {
		t.Error("wrong digit count must fail")
	}
	if _, err := FromHex(2, "g"); err == nil {
		t.Error("invalid digit must fail")
	}
}

func TestBasicGates(t *testing.T) {
	a, b := Var(2, 0), Var(2, 1)
	if got := a.And(b).Hex(); got != "8" {
		t.Errorf("AND = %s", got)
	}
	if got := a.Or(b).Hex(); got != "e" {
		t.Errorf("OR = %s", got)
	}
	if got := a.Xor(b).Hex(); got != "6" {
		t.Errorf("XOR = %s", got)
	}
	if got := a.And(b).Not().Hex(); got != "7" {
		t.Errorf("NAND = %s", got)
	}
	if got := a.Or(b).Not().Hex(); got != "1" {
		t.Errorf("NOR = %s", got)
	}
	if got := a.Xor(b).Not().Hex(); got != "9" {
		t.Errorf("XNOR = %s", got)
	}
}

func TestMajority3(t *testing.T) {
	a, b, c := Var(3, 0), Var(3, 1), Var(3, 2)
	maj := a.And(b).Or(a.And(c)).Or(b.And(c))
	if maj.Hex() != "e8" {
		t.Errorf("MAJ3 = %s, want e8", maj.Hex())
	}
}

func TestDeMorganProperty(t *testing.T) {
	f := func(aw, bw uint16) bool {
		a, b := New(4), New(4)
		a.words[0] = uint64(aw)
		b.words[0] = uint64(bw)
		left := a.And(b).Not()
		right := a.Not().Or(b.Not())
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXorProperties(t *testing.T) {
	f := func(aw, bw uint16) bool {
		a, b := New(4), New(4)
		a.words[0] = uint64(aw)
		b.words[0] = uint64(bw)
		if !a.Xor(b).Equal(b.Xor(a)) {
			return false
		}
		if !a.Xor(a).Equal(Const(4, false)) {
			return false
		}
		return a.Xor(Const(4, true)).Equal(a.Not())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNotInvolution(t *testing.T) {
	f := func(w uint16) bool {
		a := New(4)
		a.words[0] = uint64(w)
		return a.Not().Not().Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstAndIsConst(t *testing.T) {
	for n := 0; n <= 8; n++ {
		c0, c1 := Const(n, false), Const(n, true)
		if k, v := c0.IsConst(); !k || v {
			t.Errorf("Const(%d,false) not detected", n)
		}
		if k, v := c1.IsConst(); !k || !v {
			t.Errorf("Const(%d,true) not detected", n)
		}
	}
	if k, _ := Var(3, 1).IsConst(); k {
		t.Error("Var must not be constant")
	}
}

func TestCofactorShannon(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(5) // up to 7 vars exercises multi-word paths
		f := randomTT(rng, n)
		for v := 0; v < n; v++ {
			x := Var(n, v)
			rebuilt := x.And(f.Cofactor(v, true)).Or(x.Not().And(f.Cofactor(v, false)))
			if !rebuilt.Equal(f) {
				t.Fatalf("Shannon expansion failed for n=%d v=%d f=%v", n, v, f)
			}
			if f.Cofactor(v, false).DependsOn(v) || f.Cofactor(v, true).DependsOn(v) {
				t.Fatalf("cofactor still depends on %d", v)
			}
		}
	}
}

func randomTT(rng *rand.Rand, n int) TT {
	f := New(n)
	for i := range f.words {
		f.words[i] = rng.Uint64()
	}
	f.mask()
	return f
}

func TestDependsOnAndSupport(t *testing.T) {
	a, c := Var(3, 0), Var(3, 2)
	f := a.Xor(c)
	if !f.DependsOn(0) || f.DependsOn(1) || !f.DependsOn(2) {
		t.Error("DependsOn wrong for a xor c")
	}
}

func TestPermuteIdentityAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		f := randomTT(rng, n)
		id := make([]int, n)
		for i := range id {
			id[i] = i
		}
		if !f.Permute(id).Equal(f) {
			t.Fatal("identity permutation changed function")
		}
		perm := rng.Perm(n)
		inv := make([]int, n)
		for i, p := range perm {
			inv[p] = i
		}
		if !f.Permute(perm).Permute(inv).Equal(f) {
			t.Fatalf("permute/inverse failed: %v", perm)
		}
	}
}

func TestPermuteSemantics(t *testing.T) {
	// f = x0 AND NOT x1; permute so new var 0 reads old var 1.
	f := Var(2, 0).And(Var(2, 1).Not())
	g := f.Permute([]int{1, 0})
	want := Var(2, 1).And(Var(2, 0).Not())
	if !g.Equal(want) {
		t.Errorf("Permute semantics: got %v, want %v", g, want)
	}
}

func TestFlipVar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		f := randomTT(rng, n)
		for v := 0; v < n; v++ {
			g := f.FlipVar(v)
			if !g.FlipVar(v).Equal(f) {
				t.Fatal("FlipVar not involutive")
			}
			for i := 0; i < 16 && i < f.Bits(); i++ {
				if g.Get(i) != f.Get(i^(1<<v)) {
					t.Fatal("FlipVar semantics broken")
				}
			}
		}
	}
}

func TestEval(t *testing.T) {
	maj, err := FromHex(3, "e8")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[uint32]bool{
		0b000: false, 0b001: false, 0b010: false, 0b100: false,
		0b011: true, 0b101: true, 0b110: true, 0b111: true,
	}
	for in, want := range cases {
		if maj.Eval(in) != want {
			t.Errorf("MAJ3(%03b) = %v, want %v", in, maj.Eval(in), want)
		}
	}
}

func TestArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("And with mismatched arity must panic")
		}
	}()
	Var(2, 0).And(Var(3, 0))
}
