package pnr_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/gatelayout"
	"repro/internal/gatelib"
	"repro/internal/logic/bench"
	"repro/internal/logic/mapping"
	"repro/internal/logic/rewrite"
	"repro/internal/pnr"
)

var update = flag.Bool("update", false, "regenerate testdata/table1.golden")

const goldenPath = "testdata/table1.golden"

// tileDigest hashes every used tile's position, function, port sides and
// name, in Tiles order. It is the layout hash the benchmark's flow
// workload reports, so the two can be compared.
func tileDigest(l *gatelayout.Layout) string {
	h := sha256.New()
	for _, at := range l.Tiles() {
		t, _ := l.At(at)
		fmt.Fprintf(h, "%v %v %v %v %s;", at, t.Func, t.Ins, t.Outs, t.Name)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// exactLayout runs the Table 1 front end (rewrite, map, expand) and the
// exact engine with default options.
func exactLayout(t *testing.T, name string) *gatelayout.Layout {
	t.Helper()
	x, err := bench.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Map(rewrite.Rewrite(x, rewrite.Options{}))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g, err := pnr.Expand(m)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	l, err := pnr.Exact(context.Background(), g, pnr.ExactOptions{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return l
}

// TestExactTable1Golden pins the exact layout of every Table 1 circuit:
// one line per circuit with its width, height, SiDB count and tile
// digest. The encoder emits its clauses in a fixed order, so a digest
// moves only when the encoding, the solver or the front end changes.
func TestExactTable1Golden(t *testing.T) {
	lib := gatelib.NewLibrary()
	var got strings.Builder
	for _, name := range bench.Names() {
		l := exactLayout(t, name)
		sidbs, err := gatelib.CountSiDBs(lib, l)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%s %dx%d %d %s\n", name, l.Width(), l.Height(), sidbs, tileDigest(l))
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("exact layouts changed (name, w×h, SiDBs, digest):\ngot:\n%swant:\n%s", got.String(), want)
	}
}

// TestExactRepeatable places the same circuit several times in one
// process; every call must return the same layout.
func TestExactRepeatable(t *testing.T) {
	for _, name := range []string{"c17", "mux21"} {
		first := tileDigest(exactLayout(t, name))
		for i := 1; i < 5; i++ {
			if d := tileDigest(exactLayout(t, name)); d != first {
				t.Fatalf("%s: call %d gave layout %s, call 0 gave %s", name, i, d, first)
			}
		}
	}
}
