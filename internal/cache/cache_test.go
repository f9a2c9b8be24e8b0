package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/lattice"
	"repro/internal/logic/bench"
	"repro/internal/sidb"
	"repro/internal/sim"
)

const xorSrc = `# c17-like toy
INPUT(a)
INPUT(b)
OUTPUT(y)
y = XOR(a, b)
`

// TestHashXAGSameNetlistParsedTwice: the determinism contract of the
// content address — parsing the identical netlist source twice (under
// different names) must produce identical keys.
func TestHashXAGSameNetlistParsedTwice(t *testing.T) {
	a, err := bench.ParseBench("first", xorSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.ParseBench("second", xorSrc)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := HashXAG(a), HashXAG(b)
	if ka != kb {
		t.Fatalf("same netlist hashed differently:\n  %s\n  %s", ka, kb)
	}

	c, err := bench.Load("xor2")
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.Load("majority")
	if err != nil {
		t.Fatal(err)
	}
	if HashXAG(c) == HashXAG(d) {
		t.Fatal("different netlists collided")
	}
}

// TestHashXAGGolden pins the hash against a constant computed in another
// process: cross-process (and cross-run) determinism. If this fails after
// an intentional encoding change, every cached artifact is invalidated —
// update the constant deliberately.
func TestHashXAGGolden(t *testing.T) {
	x, err := bench.ParseBench("golden", xorSrc)
	if err != nil {
		t.Fatal(err)
	}
	const want = Key("xag:b6978a77db54e0ac0e4383a7c2a63528c0e0f4e0bf893d021954bc2f6c6500f1")
	if got := HashXAG(x); got != want {
		t.Fatalf("golden hash changed:\n  got  %s\n  want %s", got, want)
	}
}

// twoLayouts builds the same 4-dot layout with two different dot insertion
// orders (the second also permutes which dots are perturbers last).
func twoLayouts() (*sidb.Layout, *sidb.Layout, []int) {
	sites := []lattice.Site{
		lattice.FromCell(0, 0),
		lattice.FromCell(3, 0),
		lattice.FromCell(0, 4),
		lattice.FromCell(3, 4),
	}
	roles := []sidb.Role{sidb.RoleNormal, sidb.RolePerturber, sidb.RoleNormal, sidb.RolePerturber}
	perm := []int{2, 0, 3, 1}
	a := &sidb.Layout{Name: "a"}
	for i := range sites {
		a.Add(sites[i], roles[i])
	}
	b := &sidb.Layout{Name: "b"}
	for _, i := range perm {
		b.Add(sites[i], roles[i])
	}
	return a, b, perm
}

// TestSimKeyPermutationInvariance: layouts with identical dots but
// permuted insertion order must share a content address, and the canonical
// order must map charge vectors correctly between them.
func TestSimKeyPermutationInvariance(t *testing.T) {
	la, lb, perm := twoLayouts()
	ea := sim.NewEngine(la, sim.ParamsFig5)
	eb := sim.NewEngine(lb, sim.ParamsFig5)
	ka, orderA := SimKey(ea, "exgs")
	kb, orderB := SimKey(eb, "exgs")
	if ka != kb {
		t.Fatalf("permuted layouts hashed differently:\n  %s\n  %s", ka, kb)
	}
	// Canonical position k refers to the same physical site in both.
	for k := range orderA {
		sa := ea.Sites[orderA[k]]
		sb := eb.Sites[orderB[k]]
		if sa != sb {
			t.Fatalf("canonical position %d: site %v vs %v", k, sa, sb)
		}
	}
	if kDiff, _ := SimKey(ea, "anneal"); kDiff == ka {
		t.Fatal("solver name not part of the key")
	}
	ec := sim.NewEngine(la, sim.ParamsFig1c)
	if kc, _ := SimKey(ec, "exgs"); kc == ka {
		t.Fatal("physical parameters not part of the key")
	}
	_ = perm
}

// TestLRUBounds: the byte budget is enforced by eviction and oversize
// values are rejected outright.
func TestLRUBounds(t *testing.T) {
	c := NewLRU(numShards * 1024) // 1 KiB per shard
	val := make([]byte, 512)
	for i := 0; i < 200; i++ {
		c.Put(Key(fmt.Sprintf("k:%04d", i)), val)
	}
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("cache over budget: %d > %d", st.Bytes, st.MaxBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions under a tight budget")
	}
	c.Put(Key("huge"), make([]byte, 4096))
	if _, ok := c.Get(Key("huge")); ok {
		t.Fatal("oversize value was stored")
	}
}

// TestLRUConcurrent hammers the sharded LRU from many goroutines; run
// under -race it is the data-race regression test for the cache.
func TestLRUConcurrent(t *testing.T) {
	c := NewLRU(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := Key(fmt.Sprintf("k:%03d", rng.Intn(256)))
				if rng.Intn(2) == 0 {
					val := make([]byte, 16+rng.Intn(64))
					val[0] = byte(seed)
					c.Put(k, val)
				} else if v, ok := c.Get(k); ok {
					_ = v[0] // read the shared slice
				}
			}
		}(int64(g))
	}
	wg.Wait()
	st := c.Stats()
	if st.Puts == 0 || st.Hits+st.Misses == 0 {
		t.Fatalf("hammer did no work: %+v", st)
	}
}
