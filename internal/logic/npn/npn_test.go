package npn

import (
	"math/rand"
	"testing"

	"repro/internal/logic/tt"
)

func randTT(rng *rand.Rand, n int) tt.TT {
	f := tt.New(n)
	for i := 0; i < f.Bits(); i++ {
		f.Set(i, rng.Intn(2) == 1)
	}
	return f
}

// hexTT parses a truth table written in hex.
func hexTT(t *testing.T, n int, s string) tt.TT {
	t.Helper()
	f, err := tt.FromHex(n, s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTransformInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(3)
		f := randTT(rng, n)
		tr := Transform{
			Perm:    rng.Perm(n),
			FlipIn:  uint32(rng.Intn(1 << n)),
			FlipOut: rng.Intn(2) == 1,
		}
		g := tr.Apply(f)
		back := tr.Inverse().Apply(g)
		if !back.Equal(f) {
			t.Fatalf("inverse failed: f=%v tr=%v g=%v back=%v", f, tr, g, back)
		}
	}
}

func TestCanonizeInvariantUnderTransforms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(3)
		f := randTT(rng, n)
		c1, _ := Canonize(f)
		// Apply a random NPN transform; the canon must not change.
		tr := Transform{
			Perm:    rng.Perm(n),
			FlipIn:  uint32(rng.Intn(1 << n)),
			FlipOut: rng.Intn(2) == 1,
		}
		c2, _ := Canonize(tr.Apply(f))
		if !c1.Equal(c2) {
			t.Fatalf("canon not invariant: %v vs %v", c1, c2)
		}
	}
}

func TestCanonizeTransformReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(3)
		f := randTT(rng, n)
		canon, tr := Canonize(f)
		if got := tr.Apply(canon); !got.Equal(f) {
			t.Fatalf("tr.Apply(canon) = %v, want %v", got, f)
		}
	}
}

func TestClassCounts(t *testing.T) {
	// Known NPN class counts for n = 0..4.
	for n, want := range []int{1, 2, 4, 14, 222} {
		cs := Classes(n)
		if len(cs) != want {
			t.Errorf("NPN classes of %d vars = %d, want %d", n, len(cs), want)
		}
		for i, c := range cs {
			if got, _ := Canonize(c); !got.Equal(c) {
				t.Errorf("class %v is not its own canon (%v)", c, got)
			}
			if i > 0 && cs[i-1].Word() >= c.Word() {
				t.Errorf("classes of %d vars not strictly ascending at %d", n, i)
			}
		}
	}
}

func TestSynthesizeTrivial(t *testing.T) {
	sy := NewSynthesizer()
	for _, c := range []struct {
		f     tt.TT
		gates int
	}{
		{tt.Const(3, false), 0},
		{tt.Const(3, true), 0},
		{tt.Var(3, 1), 0},
		{tt.Var(3, 2).Not(), 0},
	} {
		st, err := sy.Synthesize(c.f)
		if err != nil {
			t.Fatalf("%v: %v", c.f, err)
		}
		if st.Cost() != c.gates {
			t.Errorf("%v: cost %d, want %d", c.f, st.Cost(), c.gates)
		}
		if !st.TruthTable().Equal(c.f) {
			t.Errorf("%v: wrong function %v", c.f, st.TruthTable())
		}
	}
}

func TestSynthesizeTwoInputGates(t *testing.T) {
	sy := NewSynthesizer()
	for _, hex := range []string{"8", "6", "e", "7", "1", "9", "2", "4", "b", "d"} {
		f := hexTT(t, 2, hex)
		st, err := sy.Synthesize(f)
		if err != nil {
			t.Fatalf("0x%s: %v", hex, err)
		}
		if st.Cost() != 1 {
			t.Errorf("0x%s: cost %d, want 1", hex, st.Cost())
		}
		if !st.TruthTable().Equal(f) {
			t.Errorf("0x%s: wrong function", hex)
		}
	}
}

func TestSynthesizeMajority(t *testing.T) {
	sy := NewSynthesizer()
	maj := hexTT(t, 3, "e8")
	st, err := sy.Synthesize(maj)
	if err != nil {
		t.Fatal(err)
	}
	if !st.TruthTable().Equal(maj) {
		t.Fatalf("wrong function: %v", st.TruthTable())
	}
	// Known XAG optimum for MAJ3 is 4 gates, e.g.
	// (a&b) | (c & (a^b)) = !(!(a&b) & !(c&(a^b))): XOR + 3 ANDs.
	if st.Cost() != 4 {
		t.Errorf("MAJ3 cost %d, want 4", st.Cost())
	}
}

func TestSynthesizeXor3AndFullAdder(t *testing.T) {
	sy := NewSynthesizer()
	x3 := hexTT(t, 3, "96")
	st, err := sy.Synthesize(x3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cost() != 2 {
		t.Errorf("XOR3 cost %d, want 2 (two XOR gates)", st.Cost())
	}
	if !st.TruthTable().Equal(x3) {
		t.Error("XOR3 function wrong")
	}
}

func TestSynthesizeRandom3Var(t *testing.T) {
	sy := NewSynthesizer()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		f := randTT(rng, 3)
		st, err := sy.Synthesize(f)
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, f, err)
		}
		if !st.TruthTable().Equal(f) {
			t.Fatalf("trial %d: structure computes %v, want %v", trial, st.TruthTable(), f)
		}
	}
}

func TestSynthesizeSelected4Var(t *testing.T) {
	sy := NewSynthesizer()
	for _, hex := range []string{"6996", "8000", "fffe", "7888", "0660", "cafe"} {
		f := hexTT(t, 4, hex)
		st, err := sy.Synthesize(f)
		if err != nil {
			t.Fatalf("0x%s: %v", hex, err)
		}
		if !st.TruthTable().Equal(f) {
			t.Fatalf("0x%s: wrong function", hex)
		}
	}
}

func TestXor4IsThreeGates(t *testing.T) {
	sy := NewSynthesizer()
	f := hexTT(t, 4, "6996") // parity of 4 variables
	st, err := sy.Synthesize(f)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cost() != 3 {
		t.Errorf("XOR4 cost %d, want 3", st.Cost())
	}
}

func TestDatabaseLookup(t *testing.T) {
	db := NewDatabase(nil)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(2)
		f := randTT(rng, n)
		st, ok := db.Lookup(f)
		if !ok {
			t.Fatalf("lookup failed for %v", f)
		}
		if !st.TruthTable().Equal(f) {
			t.Fatalf("database returned wrong structure for %v: computes %v", f, st.TruthTable())
		}
	}
	if db.Size() == 0 {
		t.Error("database must have cached classes")
	}
}

func TestDatabaseCacheSharing(t *testing.T) {
	db := NewDatabase(nil)
	// AND and its NPN variants must share one cached class.
	variants := []string{"8", "4", "2", "1", "e", "7", "b", "d"}
	for _, hex := range variants {
		f := hexTT(t, 2, hex)
		st, ok := db.Lookup(f)
		if !ok || !st.TruthTable().Equal(f) {
			t.Fatalf("variant 0x%s failed", hex)
		}
	}
	if db.Size() != 1 {
		t.Errorf("all AND/OR variants are one NPN class; cached %d", db.Size())
	}
}

func TestDatabaseTransformCorrectness4Var(t *testing.T) {
	db := NewDatabase(nil)
	rng := rand.New(rand.NewSource(17))
	// Pick one synthesizable 4-var class and exercise several of its
	// variants.
	var synthesizable []entry
	for _, e := range table {
		if e.n == 4 && !e.failed {
			synthesizable = append(synthesizable, e)
		}
	}
	e := synthesizable[rng.Intn(len(synthesizable))]
	base := fromWord(4, e.canon)
	for trial := 0; trial < 8; trial++ {
		tr := Transform{
			Perm:    rng.Perm(4),
			FlipIn:  uint32(rng.Intn(16)),
			FlipOut: rng.Intn(2) == 1,
		}
		f := tr.Apply(base)
		st, ok := db.Lookup(f)
		if !ok {
			t.Fatalf("lookup of %v (class %#04x) failed", f, e.canon)
		}
		if !st.TruthTable().Equal(f) {
			t.Fatalf("transform application broken: got %v, want %v", st.TruthTable(), f)
		}
	}
	if db.Size() != 1 {
		t.Errorf("variants of one class must count once, got %d", db.Size())
	}
}

func TestStructureEvalMatchesGates(t *testing.T) {
	// Hand-built structure: f = (x0 & !x1) ^ x2.
	st := Structure{
		NumInputs: 3,
		Gates: []Gate{
			{IsXor: false, In0: 0, In1: 1, Neg1: true},
			{IsXor: true, In0: 2, In1: 3},
		},
		OutVar: 4,
	}
	for in := uint32(0); in < 8; in++ {
		a, b, c := in&1 == 1, in>>1&1 == 1, in>>2&1 == 1
		want := (a && !b) != c
		if st.Eval(in) != want {
			t.Errorf("Eval(%03b) = %v, want %v", in, st.Eval(in), want)
		}
	}
}
