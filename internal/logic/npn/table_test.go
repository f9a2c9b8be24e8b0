package npn

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/logic/tt"
)

// wantFailed lists the 4-input classes exact synthesis cannot solve within
// tableSynth's budget (MaxGates 7, ConflictBudget 30000). Rewriting skips
// cuts of these classes, exactly as the lazily synthesizing database did.
var wantFailed = []uint64{
	0x0117, 0x019e, 0x019f, 0x01bd, 0x01e8, 0x0661, 0x066b, 0x0678,
	0x067b, 0x0691, 0x0779, 0x077e, 0x07b6, 0x07e6, 0x166a, 0x167e,
	0x1687, 0x168b, 0x168e, 0x1697, 0x1698, 0x169b, 0x1798, 0x19e1,
}

func TestTableSynthIsDefault(t *testing.T) {
	if *NewSynthesizer() != tableSynth {
		t.Fatalf("NewSynthesizer() = %+v but the table was generated with %+v; run make npn-table",
			*NewSynthesizer(), tableSynth)
	}
}

// TestTableTotality requires one entry per NPN class, in sorted order, and
// that every canonized function finds its class.
func TestTableTotality(t *testing.T) {
	perArity := make([]int, 5)
	for i, e := range table {
		perArity[e.n]++
		if i > 0 {
			if p := table[i-1]; p.n > e.n || (p.n == e.n && p.canon >= e.canon) {
				t.Fatalf("table not sorted at %d: (%d,%#x) after (%d,%#x)", i, e.n, e.canon, p.n, p.canon)
			}
		}
	}
	for n, want := range []int{1, 2, 4, 14, 222} {
		if perArity[n] != want {
			t.Errorf("%d-input entries = %d, want %d", n, perArity[n], want)
		}
	}
	rng := rand.New(rand.NewSource(19))
	for n := 0; n <= 4; n++ {
		for trial := 0; trial < 2000; trial++ {
			canon, _ := Canonize(randTT(rng, n))
			if _, ok := find(n, canon.Word()); !ok {
				t.Fatalf("class %v missing from the table", canon)
			}
		}
	}
}

func TestTableStructuresComputeCanon(t *testing.T) {
	for _, e := range table {
		if e.failed {
			continue
		}
		if e.st.NumInputs != e.n {
			t.Errorf("class (%d,%#x): structure has %d inputs", e.n, e.canon, e.st.NumInputs)
			continue
		}
		if got := e.st.TruthTable(); got.Word() != e.canon {
			t.Errorf("class (%d,%#x): structure computes %v", e.n, e.canon, got)
		}
	}
}

// TestTableMatchesSynthesizer re-synthesizes the cheap classes (every
// class of up to three inputs and every 4-input class of at most four
// gates) and requires the stored structure byte for byte. The full
// comparison is the CI step that regenerates table.go.
func TestTableMatchesSynthesizer(t *testing.T) {
	sy := NewSynthesizer()
	checked := 0
	for _, e := range table {
		if e.n == 4 && (e.failed || e.st.Cost() > 4) {
			continue
		}
		st, err := sy.Synthesize(fromWord(e.n, e.canon))
		if err != nil {
			t.Errorf("class (%d,%#x): %v", e.n, e.canon, err)
			continue
		}
		if !reflect.DeepEqual(st, e.st) {
			t.Errorf("class (%d,%#x): synthesized %+v, table has %+v", e.n, e.canon, st, e.st)
		}
		checked++
	}
	if checked < 84 { // 21 classes of up to three inputs, 63 of four
		t.Errorf("checked only %d classes", checked)
	}
}

func TestTableFailedClasses(t *testing.T) {
	var failed []uint64
	for _, e := range table {
		if e.failed {
			if e.n != 4 {
				t.Errorf("%d-input class %#x failed", e.n, e.canon)
			}
			failed = append(failed, e.canon)
		}
	}
	if !reflect.DeepEqual(failed, wantFailed) {
		t.Fatalf("failed classes = %#04x, want %#04x", failed, wantFailed)
	}
	db := NewDatabase(nil)
	rng := rand.New(rand.NewSource(23))
	for _, w := range wantFailed {
		tr := Transform{Perm: rng.Perm(4), FlipIn: uint32(rng.Intn(16)), FlipOut: rng.Intn(2) == 1}
		if _, ok := db.Lookup(tr.Apply(fromWord(4, w))); ok {
			t.Errorf("lookup of failed class %#04x answered ok", w)
		}
	}
	if db.Size() != 0 {
		t.Errorf("failed classes counted as answered: Size() = %d", db.Size())
	}
}

func TestNewDatabaseRejectsOtherSynthesizer(t *testing.T) {
	NewDatabase(nil)
	NewDatabase(NewSynthesizer())
	defer func() {
		if recover() == nil {
			t.Fatal("NewDatabase accepted a synthesizer the table was not generated with")
		}
	}()
	NewDatabase(&Synthesizer{MaxGates: 3})
}

// TestDatabaseConcurrentLookup shares one database between goroutines;
// run it under -race.
func TestDatabaseConcurrentLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	fs := make([]tt.TT, 64)
	classes := map[uint64]bool{}
	for i := range fs {
		fs[i] = randTT(rng, 4)
		canon, _ := Canonize(fs[i])
		if j, _ := find(4, canon.Word()); !table[j].failed {
			classes[canon.Word()] = true
		}
	}
	db := NewDatabase(nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range fs {
				f := fs[(i+g*16)%len(fs)]
				if st, ok := db.Lookup(f); ok && !st.TruthTable().Equal(f) {
					t.Errorf("lookup of %v computes %v", f, st.TruthTable())
				}
			}
		}(g)
	}
	wg.Wait()
	if db.Size() != len(classes) {
		t.Errorf("Size() = %d, want %d distinct classes", db.Size(), len(classes))
	}
}
