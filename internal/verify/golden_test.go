package verify

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/logic/bench"
	"repro/internal/logic/mapping"
	"repro/internal/logic/rewrite"
	"repro/internal/pnr"
)

var update = flag.Bool("update", false, "regenerate the testdata golden")

const effortPath = "testdata/table1_effort.golden"

// TestTable1SearchEffortGolden pins the equivalence check of the flow on
// every Table 1 circuit: the specification against its exact layout (after
// rewriting, mapping and expansion), one line per circuit with its verdict
// and the miter solve's conflicts, decisions and propagations. A solver
// change that keeps the search step for step leaves every line alone.
func TestTable1SearchEffortGolden(t *testing.T) {
	var got strings.Builder
	for _, name := range bench.Names() {
		spec, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		x, err := rewrite.RewriteContext(context.Background(), spec, rewrite.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := mapping.Map(x)
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
		res, err := EquivalentLayoutContext(context.Background(), spec, l)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%s %v %d %d %d\n", name, res.Equivalent,
			res.Metrics.Conflicts, res.Metrics.Decisions, res.Metrics.Propagations)
	}
	if *update {
		if err := os.WriteFile(effortPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(effortPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("equivalence-check effort changed (name, equivalent, conflicts, decisions, propagations):\ngot:\n%swant:\n%s",
			got.String(), want)
	}
}
