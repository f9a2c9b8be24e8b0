package pnr

import (
	"context"
	"testing"

	"repro/internal/gates"
	"repro/internal/logic/bench"
	"repro/internal/logic/mapping"
	"repro/internal/logic/network"
)

func mapBench(t *testing.T, name string) (*network.XAG, *mapping.Net) {
	t.Helper()
	x, err := bench.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Map(x)
	if err != nil {
		t.Fatal(err)
	}
	return x, m
}

func TestExpandSingleConsumer(t *testing.T) {
	_, m := mapBench(t, "xor2")
	g, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, nd := range g.Nodes {
		if nd.Func == gates.Fanout {
			t.Error("xor2 needs no fanouts")
		}
	}
}

func TestExpandInsertsFanouts(t *testing.T) {
	_, m := mapBench(t, "c17")
	g, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	fo := 0
	for _, nd := range g.Nodes {
		if nd.Func == gates.Fanout {
			fo++
		}
	}
	if fo == 0 {
		t.Error("c17 has multi-fanout signals; expansion must insert fanouts")
	}
	// Every output port feeds exactly one consumer after expansion.
	seen := map[[2]int]int{}
	for _, e := range g.Edges {
		seen[[2]int{e.Src, e.SrcPort}]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("output %v has %d consumers after expansion", k, n)
		}
	}
}

func TestExpandLevelsMonotone(t *testing.T) {
	_, m := mapBench(t, "par_check")
	g, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	lv := g.Levels()
	for _, e := range g.Edges {
		if lv[e.Dst] <= lv[e.Src] {
			t.Errorf("edge %d->%d levels %d -> %d not increasing", e.Src, e.Dst, lv[e.Src], lv[e.Dst])
		}
	}
}

// routeAndCheck runs the whole ortho pipeline for a benchmark and validates
// DRC cleanliness plus functional equivalence by exhaustive simulation.
func routeAndCheck(t *testing.T, name string) {
	t.Helper()
	x, m := mapBench(t, name)
	g, err := Expand(m)
	if err != nil {
		t.Fatalf("%s: expand: %v", name, err)
	}
	l, err := Ortho(context.Background(), g, nil, nil)
	if err != nil {
		t.Fatalf("%s: ortho: %v", name, err)
	}
	if v := l.Check(nil); len(v) != 0 {
		t.Fatalf("%s: %d DRC violations, first: %v\n%s", name, len(v), v[0], l.Render())
	}
	if got, want := len(l.PIs()), x.NumPIs(); got != want {
		t.Fatalf("%s: %d PI tiles, want %d", name, got, want)
	}
	if got, want := len(l.POs()), x.NumPOs(); got != want {
		t.Fatalf("%s: %d PO tiles, want %d", name, got, want)
	}
	for in := uint32(0); in < 1<<x.NumPIs(); in++ {
		if got, want := l.Simulate(in), x.Simulate(in); got != want {
			t.Fatalf("%s: layout(%b) = %b, spec %b\n%s", name, in, got, want, l.Render())
		}
	}
}

func TestOrthoXor2(t *testing.T)     { routeAndCheck(t, "xor2") }
func TestOrthoXnor2(t *testing.T)    { routeAndCheck(t, "xnor2") }
func TestOrthoParGen(t *testing.T)   { routeAndCheck(t, "par_gen") }
func TestOrthoMux21(t *testing.T)    { routeAndCheck(t, "mux21") }
func TestOrthoParCheck(t *testing.T) { routeAndCheck(t, "par_check") }
func TestOrthoC17(t *testing.T)      { routeAndCheck(t, "c17") }

func TestOrthoAllBenchmarks(t *testing.T) {
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) { routeAndCheck(t, name) })
	}
}

func TestOrthoBalancedPaths(t *testing.T) {
	// Row-based fabric: every PI->PO path crosses every row once, so all
	// POs are on the last row and all PIs on row 0.
	_, m := mapBench(t, "c17")
	g, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Ortho(context.Background(), g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range l.PIs() {
		if at.Y != 0 {
			t.Errorf("PI at row %d, want 0", at.Y)
		}
	}
	last := l.Height() - 1
	for _, at := range l.POs() {
		if at.Y != last {
			t.Errorf("PO at row %d, want %d", at.Y, last)
		}
	}
}

func TestOrthoPOOrderMatchesSpec(t *testing.T) {
	x, m := mapBench(t, "cm82a_5")
	g, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Ortho(context.Background(), g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pos := l.POs()
	for i, at := range pos {
		tile, _ := l.At(at)
		if tile.Name != x.POName(i) {
			t.Errorf("PO %d is %q, want %q", i, tile.Name, x.POName(i))
		}
	}
}

func TestOrthoExtractNetworkEquivalent(t *testing.T) {
	x, m := mapBench(t, "par_check")
	g, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Ortho(context.Background(), g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := l.ExtractNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if ex.NumPIs() != x.NumPIs() || ex.NumPOs() != x.NumPOs() {
		t.Fatal("extracted interface mismatch")
	}
	for in := uint32(0); in < 1<<x.NumPIs(); in++ {
		if ex.Simulate(in) != x.Simulate(in) {
			t.Fatalf("extracted network differs at %b", in)
		}
	}
}

func exactAndCheck(t *testing.T, name string, opts ExactOptions) *RGraph {
	t.Helper()
	x, m := mapBench(t, name)
	g, err := Expand(m)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	l, err := Exact(context.Background(), g, opts)
	if err != nil {
		t.Fatalf("%s: exact: %v", name, err)
	}
	if v := l.Check(nil); len(v) != 0 {
		t.Fatalf("%s: %d DRC violations, first: %v\n%s", name, len(v), v[0], l.Render())
	}
	for in := uint32(0); in < 1<<x.NumPIs(); in++ {
		if got, want := l.Simulate(in), x.Simulate(in); got != want {
			t.Fatalf("%s: exact layout(%b) = %b, spec %b\n%s", name, in, got, want, l.Render())
		}
	}
	t.Logf("%s: exact %dx%d = %d tiles", name, l.Width(), l.Height(), l.Area())
	return g
}

// TestExactAllBenchmarks places every Table 1 circuit with the exact
// engine and checks each layout for DRC and, exhaustively, for function.
func TestExactAllBenchmarks(t *testing.T) {
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) { exactAndCheck(t, name, ExactOptions{}) })
	}
}

func TestExactBeatsOrthoOnArea(t *testing.T) {
	g := exactAndCheck(t, "xor2", ExactOptions{})
	le, err := Exact(context.Background(), g, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := Ortho(context.Background(), g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if le.Area() > lo.Area() {
		t.Errorf("exact area %d worse than ortho %d", le.Area(), lo.Area())
	}
}

func TestExactMux21(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	exactAndCheck(t, "mux21", ExactOptions{})
}
