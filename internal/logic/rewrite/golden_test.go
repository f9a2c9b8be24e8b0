package rewrite

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/logic/bench"
	"repro/internal/logic/network"
)

var update = flag.Bool("update", false, "regenerate testdata/table1.golden")

const goldenPath = "testdata/table1.golden"

// digest hashes the full structure of an XAG: every node's kind and
// fan-ins in index order, then the named PIs and POs. Two networks share a
// digest only if rewriting produced them node for node.
func digest(x *network.XAG) string {
	h := sha256.New()
	for n := 0; n < x.NumNodes(); n++ {
		switch k := x.Kind(n); k {
		case network.KindAnd, network.KindXor:
			a, b := x.FanIns(n)
			fmt.Fprintf(h, "%d %v %d %d\n", n, k, a, b)
		default:
			fmt.Fprintf(h, "%d %v\n", n, k)
		}
	}
	for i := 0; i < x.NumPIs(); i++ {
		fmt.Fprintf(h, "pi %d %q\n", x.PI(i), x.PIName(i))
	}
	for i := 0; i < x.NumPOs(); i++ {
		fmt.Fprintf(h, "po %d %q\n", x.PO(i), x.POName(i))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRewriteTable1Golden pins the rewritten XAG of every Table 1 circuit
// under the default options: one line per circuit with its gate count and
// structural digest. A change in any NPN class's stored structure, or in
// the rewriting loop, changes a digest and fails here.
func TestRewriteTable1Golden(t *testing.T) {
	var got strings.Builder
	for _, name := range bench.Names() {
		x, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		y := rewriteAll(t, x)
		fmt.Fprintf(&got, "%s %d %s\n", name, y.NumGates(), digest(y))
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
		t.Errorf("rewritten XAGs changed (name, gates, digest):\ngot:\n%swant:\n%s", got.String(), want)
	}
}
