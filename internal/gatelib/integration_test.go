package gatelib

import (
	"context"
	"strings"
	"testing"

	"repro/internal/gates"
	"repro/internal/hexgrid"
	"repro/internal/sidb"
	"repro/internal/sim"
	"repro/internal/sqd"
)

// exhaustive runs the enumerating ground-state search, failing the test on
// error.
func exhaustive(t *testing.T, e *sim.Engine) ([]bool, float64) {
	t.Helper()
	gs, en, err := e.Exhaustive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return gs, en
}

// TestSQDRoundTripPreservesGroundState exports a validated gate to SiQAD
// format, re-imports it, and confirms the simulated ground state is
// unchanged — the full step-(8) pipeline.
func TestSQDRoundTripPreservesGroundState(t *testing.T) {
	lib := NewLibrary()
	d, err := lib.Get(gates.Wire,
		[]hexgrid.Direction{hexgrid.NorthWest},
		[]hexgrid.Direction{hexgrid.SouthEast})
	if err != nil {
		t.Fatal(err)
	}
	l := d.Layout(0, 0)
	for _, s := range InputEmulation(d.Ins[0], true) {
		l.Add(s, sidb.RolePerturber)
	}
	l.Add(OutputPerturber(d.Outs[0]), sidb.RolePerturber)

	doc, err := sqd.WriteString(l)
	if err != nil {
		t.Fatal(err)
	}
	back, err := sqd.Read(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumDots() != l.NumDots() {
		t.Fatalf("dot count changed: %d -> %d", l.NumDots(), back.NumDots())
	}

	e1 := sim.NewEngine(l, sim.ParamsFig5)
	e2 := sim.NewEngine(back, sim.ParamsFig5)
	g1, en1 := exhaustive(t, e1)
	g2, en2 := exhaustive(t, e2)
	if en1 != en2 {
		t.Fatalf("ground-state energy changed: %v -> %v", en1, en2)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatal("ground-state configuration changed after SQD round trip")
		}
	}
}

// TestAdjacentTilesShareNoDots stitches two wire tiles vertically (a ray
// continuing across the border) and checks spacing: Validate also reports
// a site the two tiles share.
func TestAdjacentTilesShareNoDots(t *testing.T) {
	lib := NewLibrary()
	d, err := lib.Get(gates.Wire,
		[]hexgrid.Direction{hexgrid.NorthWest},
		[]hexgrid.Direction{hexgrid.SouthEast})
	if err != nil {
		t.Fatal(err)
	}
	merged := &sidb.Layout{Name: "two_tiles"}
	ox0, oy0 := TileOrigin(hexgrid.Offset{X: 0, Y: 0})
	ox1, oy1 := TileOrigin(hexgrid.Offset{X: 0, Y: 1}) // SE neighbor of (0,0)
	merged.Dots = append(merged.Dots, d.Layout(ox0, oy0).Dots...)
	merged.Dots = append(merged.Dots, d.Layout(ox1, oy1).Dots...)
	if v := merged.Validate(0.38); len(v) != 0 {
		t.Fatalf("stitched tiles violate spacing: %v", v[0])
	}
}

// TestClockedHandoffPropagates simulates inter-tile signal transfer the
// way the clocking scheme operates it (Fig. 2): the upstream tile computes
// in its phase, then its charges are held (frozen) while the downstream
// tile relaxes. The downstream tile must reproduce the upstream logic
// value. (Unclocked whole-circuit ground-state simulation is explicitly
// future work in the paper's §6.)
func TestClockedHandoffPropagates(t *testing.T) {
	lib := NewLibrary()
	d, err := lib.Get(gates.Wire,
		[]hexgrid.Direction{hexgrid.NorthWest},
		[]hexgrid.Direction{hexgrid.SouthEast})
	if err != nil {
		t.Fatal(err)
	}
	for _, bit := range []bool{false, true} {
		// Phase 1: upstream tile relaxes with its input driven.
		up := d.Layout(0, 0)
		for _, s := range InputEmulation(d.Ins[0], bit) {
			up.Add(s, sidb.RolePerturber)
		}
		up.Add(OutputPerturber(d.Outs[0]), sidb.RolePerturber)
		upEng := sim.NewEngine(up, sim.ParamsFig5)
		upGS, _ := exhaustive(t, upEng)

		// Phase 2: upstream charges held; downstream tile relaxes. The
		// held charges become fixed dots; the upstream's validation-only
		// output perturber is dropped (the downstream tile replaces it).
		down := d.Layout(30, 46)
		for i, dot := range up.Dots {
			if dot.Role == sidb.RolePerturber && i >= up.NumDots()-1 {
				continue // drop the phase-1 output perturber
			}
			if upGS[i] {
				down.Add(dot.Site, sidb.RolePerturber)
			}
		}
		out2 := d.Outs[0].Translate(30, 46)
		down.Add(OutputPerturber(out2), sidb.RolePerturber)

		downEng := sim.NewEngine(down, sim.ParamsFig5)
		downGS, _ := exhaustive(t, downEng)
		idx := down.SiteIndex()
		state, err := out2.BDL().State(idx, downGS)
		if err != nil {
			t.Fatalf("bit=%v: output pair undefined: %v", bit, err)
		}
		if state != bit {
			t.Errorf("bit=%v: clocked handoff delivered %v", bit, state)
		}
	}
}
