package pnr

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gatelayout"
	"repro/internal/hexgrid"
	"repro/internal/logic/bench"
	"repro/internal/logic/mapping"
	"repro/internal/logic/network"
	"repro/internal/logic/rewrite"
	"repro/internal/obs"
	"repro/internal/sat"
)

// FlowGraph runs the flow's front end (rewrite, map, expand) on a netlist
// and returns its routing graph. The external tests reach it as
// pnr.FlowGraph.
func FlowGraph(t testing.TB, x *network.XAG) *RGraph {
	t.Helper()
	x, err := rewrite.RewriteContext(context.Background(), x, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Map(x)
	if err != nil {
		t.Fatalf("%s: %v", x.Name, err)
	}
	g, err := Expand(m)
	if err != nil {
		t.Fatalf("%s: %v", x.Name, err)
	}
	return g
}

// TileDigest hashes every used tile's position, function, port sides and
// name, in Tiles order. It is the layout hash the benchmark's flow
// workload reports, so the two can be compared.
func TileDigest(l *gatelayout.Layout) string {
	h := sha256.New()
	for _, at := range l.Tiles() {
		t, _ := l.At(at)
		fmt.Fprintf(h, "%v %v %v %v %s;", at, t.Func, t.Ins, t.Outs, t.Name)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// randomNetlist draws a netlist by the recipe of the benchmark's fresh
// flows: 3–4 inputs, 3–8 two-input gates over the inputs and earlier
// gates, and the last two gates as outputs.
func randomNetlist(rng *rand.Rand) string {
	ops := []string{"AND", "OR", "NAND", "NOR", "XOR", "XNOR"}
	nIn, nGates := 3+rng.Intn(2), 3+rng.Intn(6)
	var b strings.Builder
	var sigs []string
	for i := 0; i < nIn; i++ {
		fmt.Fprintf(&b, "INPUT(i%d)\n", i)
		sigs = append(sigs, fmt.Sprintf("i%d", i))
	}
	fmt.Fprintf(&b, "OUTPUT(g%d)\nOUTPUT(g%d)\n", nGates-1, nGates-2)
	for g := 0; g < nGates; g++ {
		a := rng.Intn(len(sigs))
		c := rng.Intn(len(sigs) - 1)
		if c >= a {
			c++
		}
		fmt.Fprintf(&b, "g%d = %s(%s, %s)\n", g, ops[rng.Intn(len(ops))], sigs[a], sigs[c])
		sigs = append(sigs, fmt.Sprintf("g%d", g))
	}
	return b.String()
}

// usableNetlist reports whether every output depends on at least two
// inputs and every input reaches an output, as the benchmark requires of
// its fresh flows.
func usableNetlist(x *network.XAG) bool {
	n := x.NumPIs()
	used := make([]bool, n)
	for _, t := range x.TruthTables() {
		deps := 0
		for i := 0; i < n; i++ {
			for p := 0; p < 1<<n; p++ {
				if t.Get(p) != t.Get(p^1<<i) {
					used[i] = true
					deps++
					break
				}
			}
		}
		if deps < 2 {
			return false
		}
	}
	for _, u := range used {
		if !u {
			return false
		}
	}
	return true
}

// TestSizeSearchMatchesLinear checks the size search against an in-order
// walk over solveSize that stops at the first SAT: both must return the
// same size and the same layout, or both none. It covers every Table 1
// circuit, netlists drawn by the benchmark's fresh-flow recipe, conflict
// budgets small enough to leave sizes Unknown, a blocked-tile predicate
// and areas too small to fit. It also checks the width monotonicity the
// search relies on: at one height, no solved width is SAT while a wider
// one is UNSAT, the answer's next width included.
func TestSizeSearchMatchesLinear(t *testing.T) {
	type tcase struct {
		name string
		g    *RGraph
		opts ExactOptions
	}
	table1 := map[string]*RGraph{}
	var cases []tcase
	for _, name := range bench.Names() {
		x, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		table1[name] = FlowGraph(t, x)
		cases = append(cases, tcase{name, table1[name], ExactOptions{}})
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 40; {
		x, err := bench.ParseBench("inline", randomNetlist(rng))
		if err != nil || !usableNetlist(x) {
			continue
		}
		cases = append(cases, tcase{fmt.Sprintf("random%d", n), FlowGraph(t, x), ExactOptions{}})
		n++
	}
	// Defects over the first three columns of rows 1 to 3: on xor2 and
	// c17 a wide size is SAT ahead of its turn, and on xor2 a narrower one
	// is the answer. A single defect at (1, 2) under a budget of 5
	// conflicts leaves a wide par_gen size Unknown and a narrower one SAT.
	block3 := func(o hexgrid.Offset) bool { return o.X <= 2 && o.Y >= 1 && o.Y <= 3 }
	block1 := func(o hexgrid.Offset) bool { return o.X == 1 && o.Y == 2 }
	for _, c := range []struct {
		name string
		opts ExactOptions
	}{
		{"newtag", ExactOptions{ConflictBudget: 40}},
		{"cm82a_5", ExactOptions{ConflictBudget: 20}},
		{"mux21", ExactOptions{ConflictBudget: 10}},
		{"xor2", ExactOptions{Blocked: block3}},
		{"c17", ExactOptions{Blocked: block3}},
		{"par_gen", ExactOptions{Blocked: block1, ConflictBudget: 5}},
		{"newtag", ExactOptions{MaxArea: 78}},
		{"majority_5_r1", ExactOptions{MaxArea: 59}},
	} {
		cases = append(cases, tcase{c.name, table1[c.name], c.opts})
	}

	e := &exactEncoder{s: sat.New()}
	ctx := context.Background()
	for _, c := range cases {
		o := c.opts.withDefaults(c.g)
		label := fmt.Sprintf("%s (area %d, budget %d, blocked %v)", c.name, o.MaxArea, o.ConflictBudget, o.Blocked != nil)
		lv := c.g.Levels()
		cands, err := candidates(c.g, lv, o.MaxArea)
		if err != nil {
			t.Fatal(err)
		}
		e.bind(c.g, lv, o.Blocked)

		// statuses[h][w] is the outcome of every size either walk solved.
		statuses := map[int]map[int]sat.Status{}
		record := func(w, h int, st sat.Status) {
			if statuses[h] == nil {
				statuses[h] = map[int]sat.Status{}
			}
			if old, ok := statuses[h][w]; ok && old != st {
				t.Errorf("%s: %dx%d solved %v and %v", label, w, h, old, st)
			}
			statuses[h][w] = st
		}
		solve := func(d dims) (*gatelayout.Layout, sat.Status) {
			l, st, _, err := e.solveSize(ctx, d.w, d.h, o)
			if err != nil {
				t.Fatalf("%s: %dx%d: %v", label, d.w, d.h, err)
			}
			record(d.w, d.h, st)
			return l, st
		}

		var want *gatelayout.Layout
		var wantD dims
		for _, d := range cands {
			if l, st := solve(d); st == sat.Sat {
				want, wantD = l, d
				break
			}
		}

		tr := obs.New()
		o.Tracer = tr
		got, gotD, err := e.search(ctx, cands, o)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var walk func(ss []*obs.StageReport)
		walk = func(ss []*obs.StageReport) {
			for _, s := range ss {
				if s.Name == "pnr/exact/size" {
					st := map[string]sat.Status{"SAT": sat.Sat, "UNSAT": sat.Unsat, "UNKNOWN": sat.Unknown}[s.Attrs["status"].(string)]
					record(s.Attrs["w"].(int), s.Attrs["h"].(int), st)
				}
				walk(s.Children)
			}
		}
		walk(tr.Report(c.name).Stages)

		switch {
		case (want == nil) != (got == nil):
			t.Errorf("%s: search found %v, the in-order walk %v", label, got != nil, want != nil)
		case want != nil && (gotD != wantD || TileDigest(got) != TileDigest(want)):
			t.Errorf("%s: search gave %dx%d %s, the in-order walk %dx%d %s",
				label, gotD.w, gotD.h, TileDigest(got), wantD.w, wantD.h, TileDigest(want))
		}
		if want != nil && (wantD.w+1)*wantD.h <= o.MaxArea {
			solve(dims{wantD.w + 1, wantD.h})
		}
		for h, ws := range statuses {
			for w, st := range ws {
				for wider, wst := range ws {
					if st == sat.Sat && wider > w && wst == sat.Unsat {
						t.Errorf("%s: %dx%d is SAT but %dx%d is UNSAT", label, w, h, wider, h)
					}
				}
			}
		}
	}
}
