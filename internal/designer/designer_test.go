package designer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gatelib"
	"repro/internal/lattice"
	"repro/internal/sidb"
	"repro/internal/sim"
)

// wireDesign is a minimal 1-input tile on the validated ray geometry:
// input pair at (15,0), output pair at (28,20), the search must bridge
// the two (the known-good bridge is the ray anchors (19,7) and (24,13)).
// ValidateWith emulates the upstream ray pair (gatelib.InputEmulation) and
// the downstream pair behind the output (gatelib.OutputPerturber).
func wireDesign() *gatelib.Design {
	in := gatelib.Pair{X: 15, Y: 0, DX: 1}
	out := gatelib.Pair{X: 28, Y: 20, DX: 1}
	return &gatelib.Design{
		Name:  "wire",
		Pairs: []gatelib.Pair{in, out},
		Ins:   []gatelib.Pair{in},
		Outs:  []gatelib.Pair{out},
	}
}

func identity(pat uint32) uint32 { return pat & 1 }

func TestEvaluateCountsPatterns(t *testing.T) {
	cand := Evaluate(wireDesign(), identity, sim.ParamsFig5, nil)
	if cand.Patterns != 2 {
		t.Fatalf("patterns = %d, want 2", cand.Patterns)
	}
	if cand.Correct < 0 || cand.Correct > 2 {
		t.Fatalf("correct = %d out of range", cand.Correct)
	}
}

func TestEvaluateKnownGoodChain(t *testing.T) {
	// The ray anchors (19,7) and (24,13) bridge input and output.
	canvas := []lattice.Site{
		lattice.FromCell(19, 7), lattice.FromCell(20, 9),
		lattice.FromCell(24, 13), lattice.FromCell(25, 15),
	}
	cand := Evaluate(wireDesign(), identity, sim.ParamsFig5, canvas)
	if !cand.Works() {
		t.Fatalf("known-good chain rejected: %d/%d", cand.Correct, cand.Patterns)
	}
	if cand.MinGap <= 0 {
		t.Error("working candidate must have positive gap")
	}
}

// TestEvaluateUnmeasuredGapIsZero: above sim.ExactLimit free dots the gap
// is not measured, so a working candidate reads MinGap 0, as the
// validation's MinGapEV does, and cannot outrank a measured one.
func TestEvaluateUnmeasuredGapIsZero(t *testing.T) {
	d := wireDesign()
	canvas := []lattice.Site{
		lattice.FromCell(19, 7), lattice.FromCell(20, 9),
		lattice.FromCell(24, 13), lattice.FromCell(25, 15),
	}
	// Lengthen the wire past the exact limit with ray pairs beyond the
	// output; the bridge still carries the signal.
	for k := 1; 2*len(d.Pairs)+len(canvas) <= sim.ExactLimit; k++ {
		d.Pairs = append(d.Pairs, gatelib.Pair{X: 28 + 4*k, Y: 20 + 7*k, DX: 1})
	}
	d.Outs = []gatelib.Pair{d.Pairs[len(d.Pairs)-1]}
	cand := Evaluate(d, identity, sim.ParamsFig5, canvas)
	if !cand.Works() {
		t.Fatalf("long wire rejected: %d/%d", cand.Correct, cand.Patterns)
	}
	if cand.MinGap != 0 {
		t.Errorf("unmeasured gap reads %g, want 0", cand.MinGap)
	}
}

func TestGridExcludesNearFixed(t *testing.T) {
	fixed := []sidb.Dot{{Site: lattice.FromCell(10, 10)}}
	cands := Grid(9, 9, 11, 11, 1, fixed, 1.0)
	for _, c := range cands {
		if lattice.DistanceNM(c, fixed[0].Site) < 1.0 {
			t.Errorf("candidate %v too close to fixed dot", c)
		}
	}
}

// TestExhaustiveFindsWire: of the 1,597 canvases of at most 2 dots on a
// coarse grid between the wire's input and output, exactly one bridges
// them.
func TestExhaustiveFindsWire(t *testing.T) {
	d := wireDesign()
	sites := Grid(15, 4, 28, 18, 2, d.Layout(0, 0).Dots, 0.5)
	got, err := Exhaustive(context.Background(), d, identity, sim.ParamsFig5, sites, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []lattice.Site{lattice.FromCell(19, 10), lattice.FromCell(23, 16)}
	if len(got) != 1 || !slices.Equal(got[0].Canvas, want) {
		t.Fatalf("working canvases %v, want only %v", canvases(got), want)
	}
	if got[0].MinGap <= 0 {
		t.Errorf("working canvas has gap %g, want > 0", got[0].MinGap)
	}
}

// TestExhaustiveReportsFailure: no canvas of at most one dot makes the
// wire read 1 on both inputs.
func TestExhaustiveReportsFailure(t *testing.T) {
	d := wireDesign()
	one := func(uint32) uint32 { return 1 }
	sites := Grid(12, 6, 20, 16, 2, d.Layout(0, 0).Dots, 0.5)
	for k := 0; k <= 1; k++ {
		got, err := Exhaustive(context.Background(), d, one, sim.ParamsFig5, sites, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("k=%d: constant 1 satisfied by %v", k, canvases(got))
		}
	}
}

// TestExhaustiveBareDesign: k = 0 validates the design as it is, so the
// library's wire yields one candidate, its empty canvas with the
// validation's gap.
func TestExhaustiveBareDesign(t *testing.T) {
	d, f, ok := gatelib.NewLibrary().Design("wire:iNW:oSE")
	if !ok {
		t.Fatal("wire:iNW:oSE missing from the library")
	}
	truth := gatelib.TruthOf(f)
	sites := Grid(18, 12, 42, 30, 2, d.Layout(0, 0).Dots, 0.6)
	got, err := Exhaustive(context.Background(), d, truth, sim.ParamsFig5, sites, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := gatelib.ValidateWith(d, truth, sim.ParamsFig5, gatelib.ValidateOptions{Solver: "quickexact"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Canvas) != 0 || got[0].MinGap != v.MinGapEV {
		t.Fatalf("k=0 gave %+v, want one empty canvas with gap %g", got, v.MinGapEV)
	}
}

// inhibition is A AND NOT B, the tile examples/customlib designs.
func inhibition(in uint32) uint32 { return in & 1 &^ (in >> 1) }

// TestExhaustiveInhibition pins examples/customlib's search: of the 6,217
// canvases of at most 2 dots on the short model's grid, 3 realize
// inhibition, and the best is (34,16) (40,20).
func TestExhaustiveInhibition(t *testing.T) {
	d := gatelib.ShortModel(2, false, true)
	sites := Grid(20, 12, 40, 32, 2, d.Layout(0, 0).Dots, 0.6)
	got, err := Exhaustive(context.Background(), d, inhibition, sim.ParamsFig5, sites, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []lattice.Site{lattice.FromCell(34, 16), lattice.FromCell(40, 20)}
	if len(got) != 3 || !slices.Equal(got[0].Canvas, want) {
		t.Fatalf("working canvases %v, want 3 led by %v", canvases(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i].MinGap > got[i-1].MinGap {
			t.Errorf("rank %d gap %g above rank %d gap %g", i, got[i].MinGap, i-1, got[i-1].MinGap)
		}
	}
}

// TestExhaustiveWorkersAgree: the ranked list is the same whether one
// pool worker or two score the candidates.
func TestExhaustiveWorkersAgree(t *testing.T) {
	d := wireDesign()
	sites := Grid(18, 8, 26, 17, 1, d.Layout(0, 0).Dots, 0.5)
	run := func(procs int) []Candidate {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		got, err := Exhaustive(context.Background(), d, identity, sim.ParamsFig5, sites, 2)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	one, two := run(1), run(2)
	if len(one) == 0 {
		t.Fatal("no working canvas")
	}
	if !reflect.DeepEqual(one, two) {
		t.Errorf("1 worker: %v\n2 workers: %v", canvases(one), canvases(two))
	}
}

func TestExhaustiveCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := wireDesign()
	sites := Grid(15, 4, 28, 18, 2, d.Layout(0, 0).Dots, 0.5)
	if _, err := Exhaustive(ctx, d, identity, sim.ParamsFig5, sites, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// canvases lists the candidates' canvases for a failure message.
func canvases(cands []Candidate) [][]lattice.Site {
	out := make([][]lattice.Site, len(cands))
	for i, c := range cands {
		out[i] = c.Canvas
	}
	return out
}

// shortTarget is one target of the evaluation golden: the short model's
// shape and the truth table its canvas must realize.
type shortTarget struct {
	name         string
	nIn          int
	outSW, outSE bool
	truth        func(uint32) uint32
}

func (st shortTarget) design() *gatelib.Design {
	return gatelib.ShortModel(st.nIn, st.outSW, st.outSE)
}

func or2(i uint32) uint32 {
	if i != 0 {
		return 1
	}
	return 0
}

func nor2(i uint32) uint32 { return or2(i) ^ 1 }

var shortTargets = []shortTarget{
	{"AND", 2, false, true, func(i uint32) uint32 { return i & (i >> 1) & 1 }},
	{"OR", 2, false, true, or2},
	{"NAND", 2, false, true, func(i uint32) uint32 { return (i & (i >> 1) & 1) ^ 1 }},
	{"NOR", 2, false, true, nor2},
	{"XOR", 2, false, true, func(i uint32) uint32 { return (i ^ i>>1) & 1 }},
	{"XNOR", 2, false, true, func(i uint32) uint32 { return ((i ^ i>>1) & 1) ^ 1 }},
	{"INV", 1, false, true, func(i uint32) uint32 { return i ^ 1 }},
	{"FANOUT", 1, true, true, func(i uint32) uint32 { return i * 3 }},
	{"CROSS", 2, true, true, func(i uint32) uint32 { return (i>>1)&1 | (i&1)<<1 }},
	{"HA", 2, true, true, func(i uint32) uint32 { return (i^i>>1)&1 | (i&(i>>1)&1)<<1 }},
}

// TestEvaluateGolden pins Evaluate's scores on the 20 canvases (0 to 4
// dots) that testdata/evaluate.golden lists for each short-model target,
// drawn at random from the target's candidate grid when the golden was
// recorded. The scores were recorded with the designer's former private
// simulate-and-read loop under automatic solver dispatch, so they also pin
// that scoring through gatelib.ValidateWith under QuickExact changed no
// score. Each target's header line pins its candidate count; each score
// line reads "target index canvas correct patterns mingap", the canvas as
// x,y cells joined by ';' ("-" when empty).
func TestEvaluateGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/evaluate.golden")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]shortTarget{}
	for _, st := range shortTargets {
		byName[st.name] = st
	}
	var st shortTarget
	headers := 0
	for i, want := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var got string
		if header, ok := strings.CutPrefix(want, "# "); ok {
			name, _, _ := strings.Cut(header, " ")
			if st, ok = byName[name]; !ok {
				t.Fatalf("line %d: unknown target %q", i+1, name)
			}
			headers++
			cands := Grid(20, 12, 40, 32, 2, st.design().Layout(0, 0).Dots, 0.6)
			got = fmt.Sprintf("# %s candidates=%d", name, len(cands))
		} else {
			f := strings.Fields(want)
			if len(f) != 6 || f[0] != st.name {
				t.Fatalf("line %d: malformed score line %q", i+1, want)
			}
			canvas, err := parseCells(f[2])
			if err != nil {
				t.Fatalf("line %d: %v", i+1, err)
			}
			cand := Evaluate(st.design(), st.truth, sim.ParamsFig5, canvas)
			got = fmt.Sprintf("%s %s %s %d %d %.17g", f[0], f[1], f[2], cand.Correct, cand.Patterns, cand.MinGap)
		}
		if !goldenLineMatches(got, want) {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got, want)
		}
	}
	if headers != len(shortTargets) {
		t.Errorf("golden has %d targets, want %d", headers, len(shortTargets))
	}
}

// parseCells reads a golden canvas: x,y cells joined by ';', "-" when
// empty.
func parseCells(text string) ([]lattice.Site, error) {
	if text == "-" {
		return nil, nil
	}
	var canvas []lattice.Site
	for _, cell := range strings.Split(text, ";") {
		var x, y int
		if _, err := fmt.Sscanf(cell, "%d,%d", &x, &y); err != nil {
			return nil, fmt.Errorf("cell %q: %v", cell, err)
		}
		canvas = append(canvas, lattice.FromCell(x, y))
	}
	return canvas, nil
}

// goldenLineMatches compares two golden lines field by field, the last
// field of a score line (MinGap) within 1e-12 eV.
func goldenLineMatches(got, want string) bool {
	if strings.HasPrefix(want, "#") {
		return got == want
	}
	g, w := strings.Fields(got), strings.Fields(want)
	if len(g) != len(w) || len(w) == 0 {
		return false
	}
	last := len(w) - 1
	for i := 0; i < last; i++ {
		if g[i] != w[i] {
			return false
		}
	}
	gv, gerr := strconv.ParseFloat(g[last], 64)
	wv, werr := strconv.ParseFloat(w[last], 64)
	return gerr == nil && werr == nil && math.Abs(gv-wv) <= 1e-12
}
