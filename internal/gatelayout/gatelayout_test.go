package gatelayout

import (
	"strings"
	"testing"

	"repro/internal/clocking"
	"repro/internal/gates"
	"repro/internal/hexgrid"
)

// buildWireLayout is a 1x3 layout: PI -> wire -> PO, straight down-right.
func buildWireLayout(t *testing.T) *Layout {
	t.Helper()
	l := New("w", 2, 3)
	nw, ne := hexgrid.NorthWest, hexgrid.NorthEast
	se := hexgrid.SouthEast
	sw := hexgrid.SouthWest
	_ = ne
	_ = sw
	mustSet := func(at hexgrid.Offset, tile Tile) {
		if err := l.Set(at, tile); err != nil {
			t.Fatal(err)
		}
	}
	// PI at (0,0) emits SE -> (0,1) [odd row]; wire there emits SE -> (1,2).
	mustSet(hexgrid.Offset{X: 0, Y: 0}, Tile{Func: gates.PI, Outs: []hexgrid.Direction{se}, Name: "a"})
	mustSet(hexgrid.Offset{X: 0, Y: 1}, Tile{Func: gates.Wire, Ins: []hexgrid.Direction{nw}, Outs: []hexgrid.Direction{se}})
	mustSet(hexgrid.Offset{X: 1, Y: 2}, Tile{Func: gates.PO, Ins: []hexgrid.Direction{nw}, Name: "f"})
	return l
}

func TestWireLayoutCleanAndIdentity(t *testing.T) {
	l := buildWireLayout(t)
	if v := l.Check(nil); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if l.Simulate(0) != 0 || l.Simulate(1) != 1 {
		t.Error("wire layout must be the identity")
	}
}

func TestCheckCatchesDanglingInput(t *testing.T) {
	l := buildWireLayout(t)
	delete(l.tiles, hexgrid.Offset{X: 0, Y: 0}) // remove the PI driving the wire
	v := l.Check(nil)
	if len(v) == 0 {
		t.Fatal("dangling input not caught")
	}
}

func TestCheckCatchesClockingViolation(t *testing.T) {
	// A connection going upward violates the row-based scheme; build a tile
	// whose input comes from below by misdeclaring ports.
	l := New("bad", 2, 2)
	se := hexgrid.SouthEast
	nw := hexgrid.NorthWest
	if err := l.Set(hexgrid.Offset{X: 0, Y: 0}, Tile{Func: gates.PI, Outs: []hexgrid.Direction{se}, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	// PO on the same row as its driver: input from NW points at (0,-1)
	// (outside) -> dangling; instead declare input from West (illegal side).
	if err := l.Set(hexgrid.Offset{X: 1, Y: 0}, Tile{Func: gates.PO, Ins: []hexgrid.Direction{hexgrid.West}, Name: "f"}); err != nil {
		t.Fatal(err)
	}
	v := l.Check(nil)
	if len(v) == 0 {
		t.Fatal("illegal input side not caught")
	}
	_ = nw
}

func TestCheckWireGeometry(t *testing.T) {
	l := New("geo", 2, 3)
	nw := hexgrid.NorthWest
	sw := hexgrid.SouthWest
	se := hexgrid.SouthEast
	if err := l.Set(hexgrid.Offset{X: 0, Y: 0}, Tile{Func: gates.PI, Outs: []hexgrid.Direction{se}, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	// A Wire declared with diagonal geometry (NW in -> SW out) is invalid;
	// it should be a DiagWire.
	if err := l.Set(hexgrid.Offset{X: 0, Y: 1}, Tile{Func: gates.Wire, Ins: []hexgrid.Direction{nw}, Outs: []hexgrid.Direction{sw}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Set(hexgrid.Offset{X: 0, Y: 2}, Tile{Func: gates.PO, Ins: []hexgrid.Direction{hexgrid.NorthEast}, Name: "f"}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range l.Check(nil) {
		if strings.Contains(v.Message, "not straight") {
			found = true
		}
	}
	if !found {
		t.Error("wire geometry violation not reported")
	}
}

func TestSetRejectsOutOfBoundsAndBadPorts(t *testing.T) {
	l := New("x", 1, 1)
	if err := l.Set(hexgrid.Offset{X: 5, Y: 5}, Tile{Func: gates.PI, Outs: []hexgrid.Direction{hexgrid.SouthEast}}); err == nil {
		t.Error("out-of-bounds Set must fail")
	}
	if err := l.Set(hexgrid.Offset{X: 0, Y: 0}, Tile{Func: gates.And, Ins: []hexgrid.Direction{hexgrid.NorthWest}, Outs: []hexgrid.Direction{hexgrid.SouthEast}}); err == nil {
		t.Error("AND with one input must fail")
	}
}

func TestExtractNetworkOnWire(t *testing.T) {
	l := buildWireLayout(t)
	x, err := l.ExtractNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if x.NumPIs() != 1 || x.NumPOs() != 1 {
		t.Fatal("interface wrong")
	}
	if x.Simulate(0) != 0 || x.Simulate(1) != 1 {
		t.Error("extracted network not identity")
	}
}

func TestRenderAndString(t *testing.T) {
	l := buildWireLayout(t)
	r := l.Render()
	if !strings.Contains(r, "[in]") || !strings.Contains(r, "[out]") || !strings.Contains(r, "wire") {
		t.Errorf("render incomplete:\n%s", r)
	}
	if !strings.Contains(l.String(), "2x3") || !strings.Contains(l.String(), "(row clocking)") {
		t.Errorf("String() = %q", l.String())
	}
}

func TestGateCountsAndPins(t *testing.T) {
	l := buildWireLayout(t)
	h := l.GateCounts()
	if h[gates.PI] != 1 || h[gates.PO] != 1 || h[gates.Wire] != 1 {
		t.Errorf("histogram wrong: %v", h)
	}
	if len(l.PIs()) != 1 || len(l.POs()) != 1 {
		t.Error("pin enumeration wrong")
	}
	if l.NumTiles() != 3 || l.Area() != 6 {
		t.Error("tile counts wrong")
	}
}

func TestSuperTileCheckAcceptsIntraZoneConnections(t *testing.T) {
	// Under the expanded 3-row super-tile plan, connections within the
	// same zone (rows 0->1) are legal even though plain row clocking
	// requires zone+1.
	l := buildWireLayout(t)
	st := clocking.PlanSuperTiles(clocking.MinMetalPitchNM)
	if v := l.Check(&st); len(v) != 0 {
		t.Errorf("super-tile check rejected intra-zone flow: %v", v)
	}
}
