package pnr_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/gatelayout"
	"repro/internal/gatelib"
	"repro/internal/logic/bench"
	"repro/internal/obs"
	"repro/internal/pnr"
)

var update = flag.Bool("update", false, "regenerate the testdata goldens")

const (
	goldenPath = "testdata/table1.golden"
	effortPath = "testdata/table1_effort.golden"
)

// exactLayout runs the Table 1 front end (rewrite, map, expand) and the
// exact engine with default options.
func exactLayout(t *testing.T, name string) *gatelayout.Layout {
	t.Helper()
	return exactLayoutWith(t, name, pnr.ExactOptions{})
}

// exactLayoutWith is exactLayout under the given engine options.
func exactLayoutWith(t *testing.T, name string, opts pnr.ExactOptions) *gatelayout.Layout {
	t.Helper()
	l, err := pnr.Exact(context.Background(), frontEnd(t, name), opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return l
}

// frontEnd loads a Table 1 circuit and returns its routing graph after
// rewriting, mapping and expansion.
func frontEnd(t testing.TB, name string) *pnr.RGraph {
	t.Helper()
	x, err := bench.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	return pnr.FlowGraph(t, x)
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
		cell, err := gatelib.Apply(lib, l, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%s %dx%d %d %s\n", name, l.Width(), l.Height(), cell.NumDots(), pnr.TileDigest(l))
	}
	checkGolden(t, goldenPath, got.String(), "exact layouts changed (name, w×h, SiDBs, digest)")
}

// TestExactSearchEffortGolden pins the size search of every Table 1
// circuit: one line per tried size with its w×h, SAT status, formula size
// (variables, problem clauses) and search effort (conflicts, decisions,
// propagations). A change that only makes the formula cheaper to build
// must leave every line alone; a pruned size prints "pruned".
func TestExactSearchEffortGolden(t *testing.T) {
	var got strings.Builder
	for _, name := range bench.Names() {
		tr := obs.New()
		exactLayoutWith(t, name, pnr.ExactOptions{Tracer: tr})
		var walk func(ss []*obs.StageReport)
		walk = func(ss []*obs.StageReport) {
			for _, s := range ss {
				if s.Name == "pnr/exact/size" {
					a := s.Attrs
					if a["pruned"] == true {
						fmt.Fprintf(&got, "%s %vx%v pruned\n", name, a["w"], a["h"])
					} else {
						fmt.Fprintf(&got, "%s %vx%v %v %v %v %v %v %v\n", name, a["w"], a["h"], a["status"],
							a["vars"], a["clauses"], a["conflicts"], a["decisions"], a["propagations"])
					}
				}
				walk(s.Children)
			}
		}
		walk(tr.Report(name).Stages)
	}
	checkGolden(t, effortPath, got.String(),
		"exact size search changed (name, w×h, status, vars, clauses, conflicts, decisions, propagations)")
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got, what string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s:\ngot:\n%swant:\n%s", what, got, want)
	}
}

// TestExactRepeatable places the same circuit several times in one
// process; every call must return the same layout.
func TestExactRepeatable(t *testing.T) {
	for _, name := range []string{"c17", "mux21"} {
		first := pnr.TileDigest(exactLayout(t, name))
		for i := 1; i < 5; i++ {
			if d := pnr.TileDigest(exactLayout(t, name)); d != first {
				t.Fatalf("%s: call %d gave layout %s, call 0 gave %s", name, i, d, first)
			}
		}
	}
}

// TestExactConcurrent runs Exact on c17 and mux21 from several goroutines
// at once, each with its own solver; every layout must carry the digest
// table1.golden pins. Run it under -race: it is the guard for any solver
// or encoder storage shared between calls.
func TestExactConcurrent(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		f := strings.Fields(line)
		want[f[0]] = f[len(f)-1]
	}
	names := []string{"c17", "mux21"}
	graphs := map[string]*pnr.RGraph{}
	for _, name := range names {
		graphs[name] = frontEnd(t, name)
	}
	const perCircuit = 3
	var wg sync.WaitGroup
	for i := 0; i < perCircuit; i++ {
		for _, name := range names {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				l, err := pnr.Exact(context.Background(), graphs[name], pnr.ExactOptions{})
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if d := pnr.TileDigest(l); d != want[name] {
					t.Errorf("%s: concurrent call gave digest %s, table1.golden has %s", name, d, want[name])
				}
			}(name)
		}
	}
	wg.Wait()
}

// BenchmarkExactTable1 times the exact engine alone: every op places all
// 14 Table 1 circuits, whose front end (rewrite, map, expand) runs once
// outside the timer. It separates the SAT kernel from rewriting.
func BenchmarkExactTable1(b *testing.B) {
	var graphs []*pnr.RGraph
	for _, name := range bench.Names() {
		graphs = append(graphs, frontEnd(b, name))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			if _, err := pnr.Exact(context.Background(), g, pnr.ExactOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
