package designer

import (
	"fmt"
	"math"
	"math/rand"
	"os"
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
	cand, err := Evaluate(wireDesign(), identity, sim.ParamsFig5, nil, "")
	if err != nil {
		t.Fatal(err)
	}
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
	cand, err := Evaluate(wireDesign(), identity, sim.ParamsFig5, canvas, "")
	if err != nil {
		t.Fatal(err)
	}
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
	cand, err := Evaluate(d, identity, sim.ParamsFig5, canvas, "quickexact")
	if err != nil {
		t.Fatal(err)
	}
	if !cand.Works() {
		t.Fatalf("long wire rejected: %d/%d", cand.Correct, cand.Patterns)
	}
	if cand.MinGap != 0 {
		t.Errorf("unmeasured gap reads %g, want 0", cand.MinGap)
	}
}

func TestUnknownSolverIsAnError(t *testing.T) {
	if _, err := Evaluate(wireDesign(), identity, sim.ParamsFig5, nil, "no-such-solver"); err == nil {
		t.Error("Evaluate accepted an unknown solver")
	}
	opts := Options{Seed: 1, Restarts: 1, Iterations: 1, MaxDots: 1, Solver: "no-such-solver"}
	if _, err := Search(wireDesign(), identity, sim.ParamsFig5, nil, opts); err == nil {
		t.Error("Search accepted an unknown solver")
	}
}

func TestSearchFindsWire(t *testing.T) {
	d := wireDesign()
	cands := Grid(15, 4, 28, 18, 1, d.Layout(0, 0).Dots, 0.5)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	opts := Options{Seed: 3, Restarts: 8, Iterations: 200, MaxDots: 4}
	best, err := Search(d, identity, sim.ParamsFig5, cands, opts)
	if err != nil {
		t.Fatalf("search failed: %v (best %d/%d)", err, best.Correct, best.Patterns)
	}
	// Deterministic: same options give the same result.
	again, err2 := Search(d, identity, sim.ParamsFig5, cands, opts)
	if err2 != nil {
		t.Fatal(err2)
	}
	if len(again.Canvas) != len(best.Canvas) {
		t.Error("search must be deterministic for a fixed seed")
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

func TestSearchReportsFailure(t *testing.T) {
	d := wireDesign()
	// Impossible target: constant 1 regardless of input, with an output
	// wired to follow the input -> at least one pattern must fail.
	one := func(pat uint32) uint32 { return 1 }
	cands := Grid(12, 6, 20, 16, 2, d.Layout(0, 0).Dots, 0.5)
	opts := Options{Seed: 1, Restarts: 2, Iterations: 40, MaxDots: 2}
	if _, err := Search(d, one, sim.ParamsFig5, cands, opts); err == nil {
		t.Skip("search surprisingly satisfied constant-1; acceptable but unexpected")
	}
}

// shortTarget is one cmd/gatedesigner target: the short model's shape and
// the truth table its canvas must realize.
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

// TestEvaluateGolden pins Evaluate's scores on 20 seeded canvases (0 to 4
// dots) from each gatedesigner target's candidate grid. The values in
// testdata/evaluate.golden were recorded with the designer's former
// private simulate-and-read loop, so they also pin that scoring through
// gatelib.ValidateWith changed no score. Each target's header line pins
// its candidate count; each score line reads "target index canvas
// correct patterns mingap", the canvas as x,y cells joined by ';' ("-"
// when empty).
func TestEvaluateGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/evaluate.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var got []string
	for ti, st := range shortTargets {
		d := st.design()
		cands := Grid(20, 12, 40, 32, 2, d.Layout(0, 0).Dots, 0.6)
		got = append(got, fmt.Sprintf("# %s candidates=%d", st.name, len(cands)))
		rng := rand.New(rand.NewSource(int64(ti + 1)))
		for i := 0; i < 20; i++ {
			canvas := randomSubset(rng, cands, i%5)
			cand, err := Evaluate(d, st.truth, sim.ParamsFig5, canvas, "")
			if err != nil {
				t.Fatal(err)
			}
			cells := make([]string, len(canvas))
			for j, s := range canvas {
				x, y := s.Cell()
				cells[j] = fmt.Sprintf("%d,%d", x, y)
			}
			text := strings.Join(cells, ";")
			if text == "" {
				text = "-"
			}
			got = append(got, fmt.Sprintf("%s %d %s %d %d %.17g", st.name, i, text, cand.Correct, cand.Patterns, cand.MinGap))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d lines, golden has %d", len(got), len(want))
	}
	for i := range got {
		if !goldenLineMatches(got[i], want[i]) {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
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
