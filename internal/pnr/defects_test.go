package pnr

import (
	"context"
	"errors"
	"testing"

	"repro/internal/defects"
	"repro/internal/gatelib"
	"repro/internal/hexgrid"
)

// expandBench maps and expands a benchmark into a routing graph.
func expandBench(t *testing.T, name string) *RGraph {
	t.Helper()
	_, m := mapBench(t, name)
	g, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// usedTiles returns the layout's occupied offsets as a set.
func usedTiles(l interface{ Tiles() []hexgrid.Offset }) map[hexgrid.Offset]bool {
	out := map[hexgrid.Offset]bool{}
	for _, at := range l.Tiles() {
		out[at] = true
	}
	return out
}

// TestExactAvoidsDefectTile: the SAT engine must produce a clean layout,
// then — with a defect afflicting a tile that clean layout used — either
// re-place around it or fail honestly with defects.ErrBlocked. The
// re-placed layout must not use any afflicted tile and must stay
// functionally equivalent.
func TestExactAvoidsDefectTile(t *testing.T) {
	g := expandBench(t, "xor2")
	clean, err := Exact(context.Background(), g, ExactOptions{})
	if err != nil {
		t.Fatalf("clean exact failed: %v", err)
	}
	used := clean.Tiles()
	if len(used) == 0 {
		t.Fatal("empty clean layout")
	}
	// Pick a non-PI/PO tile to afflict (interior tiles are the ones P&R
	// has freedom over).
	target := used[0]
	for _, at := range used {
		if at.Y > 0 && at.Y < clean.Height()-1 {
			target = at
			break
		}
	}
	blocked := func(at hexgrid.Offset) bool { return at == target }
	rerouted, err := Exact(context.Background(), g, ExactOptions{Blocked: blocked})
	if err != nil {
		// Honest failure is acceptable, but it must carry the sentinel.
		if !errors.Is(err, defects.ErrBlocked) {
			t.Fatalf("blocked exact failed without ErrBlocked: %v", err)
		}
		return
	}
	if usedTiles(rerouted)[target] {
		t.Fatalf("re-placed layout still uses afflicted tile %v", target)
	}
	x, _ := mapBench(t, "xor2")
	for in := uint32(0); in < 1<<x.NumPIs(); in++ {
		if got, want := rerouted.Simulate(in), x.Simulate(in); got != want {
			t.Fatalf("rerouted layout(%b) = %b, want %b", in, got, want)
		}
	}
	if len(rerouted.Check(nil)) != 0 {
		t.Fatal("rerouted layout has DRC violations")
	}
}

// TestExactUnsatWhenEverythingBlocked: a blocker that afflicts every tile
// makes every size UNSAT; the error must wrap defects.ErrBlocked.
func TestExactUnsatWhenEverythingBlocked(t *testing.T) {
	g := expandBench(t, "xor2")
	_, err := Exact(context.Background(), g, ExactOptions{
		MaxArea: 12, // keep the futile size sweep short
		Blocked: func(hexgrid.Offset) bool { return true },
	})
	if err == nil {
		t.Fatal("fully blocked grid produced a layout")
	}
	if !errors.Is(err, defects.ErrBlocked) {
		t.Fatalf("error does not wrap ErrBlocked: %v", err)
	}
}

// TestOrthoAvoidingShifts: with a defect on a tile the greedy router
// would use, legalization must slide the layout to a clear position and
// preserve function; with an unescapable blocker it must fail with
// ErrBlocked.
func TestOrthoAvoidingShifts(t *testing.T) {
	g := expandBench(t, "mux21")
	clean, err := Ortho(context.Background(), g, nil, nil)
	if err != nil {
		t.Fatalf("clean ortho failed: %v", err)
	}
	target := clean.Tiles()[0]
	blocked := func(at hexgrid.Offset) bool { return at == target }
	shifted, err := Ortho(context.Background(), g, nil, blocked)
	if err != nil {
		t.Fatalf("legalization failed: %v", err)
	}
	// The shift moves every tile by the same dx and widens the layout by it.
	dx := shifted.Tiles()[0].X - clean.Tiles()[0].X
	if dx <= 0 {
		t.Fatalf("expected a positive shift, got %d", dx)
	}
	if got := shifted.Width() - clean.Width(); got != dx {
		t.Fatalf("layout widened by %d, tiles moved by %d", got, dx)
	}
	if usedTiles(shifted)[target] {
		t.Fatalf("shifted layout still uses afflicted tile %v", target)
	}
	if len(shifted.Check(nil)) != 0 {
		t.Fatal("shifted layout has DRC violations")
	}
	x, _ := mapBench(t, "mux21")
	for in := uint32(0); in < 1<<x.NumPIs(); in++ {
		if got, want := shifted.Simulate(in), x.Simulate(in); got != want {
			t.Fatalf("shifted layout(%b) = %b, want %b", in, got, want)
		}
	}

	_, err = Ortho(context.Background(), g, nil, func(hexgrid.Offset) bool { return true })
	if err == nil || !errors.Is(err, defects.ErrBlocked) {
		t.Fatalf("unescapable blocker: want ErrBlocked, got %v", err)
	}
}

// TestTileBlockerGeometry: a charged defect afflicts its own tile and its
// near neighbors (6 nm influence spans more than one 23 nm-wide tile only
// when near the boundary), while a distant tile stays clear.
func TestTileBlockerGeometry(t *testing.T) {
	surf := defects.New()
	// Center of tile (1, 0): origin (60, 0), center cell (90, 23).
	surf.AddCell(90, 23, defects.DB)
	blocker := gatelib.TileBlocker(surf)
	if blocker == nil {
		t.Fatal("nil blocker for non-empty surface")
	}
	if !blocker(hexgrid.Offset{X: 1, Y: 0}) {
		t.Fatal("defect's own tile not afflicted")
	}
	if blocker(hexgrid.Offset{X: 4, Y: 0}) {
		t.Fatal("tile ~70 nm away afflicted by 6 nm influence")
	}
	if gatelib.TileBlocker(nil) != nil {
		t.Fatal("pristine surface produced a blocker")
	}

	// A neutral defect only afflicts its own neighborhood (~1 nm): the
	// adjacent tile's far side stays clear.
	ns := defects.New()
	ns.AddCell(30, 20, defects.Siloxane)
	nb := gatelib.TileBlocker(ns)
	if !nb(hexgrid.Offset{X: 0, Y: 0}) {
		t.Fatal("neutral defect's own tile not afflicted")
	}
	if nb(hexgrid.Offset{X: 2, Y: 0}) {
		t.Fatal("neutral defect reached two tiles over")
	}
}
