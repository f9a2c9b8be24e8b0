package gatelib

import (
	"context"
	"strings"
	"testing"

	"repro/internal/clocking"
	"repro/internal/gatelayout"
	"repro/internal/gates"
	"repro/internal/hexgrid"
	"repro/internal/lattice"
	"repro/internal/logic/bench"
	"repro/internal/logic/mapping"
	"repro/internal/pnr"
	"repro/internal/sim"
)

func TestLibraryCompleteness(t *testing.T) {
	lib := NewLibrary()
	nw, ne := hexgrid.NorthWest, hexgrid.NorthEast
	sw, se := hexgrid.SouthWest, hexgrid.SouthEast
	variants := []struct {
		f    gates.Func
		ins  []hexgrid.Direction
		outs []hexgrid.Direction
	}{
		{gates.Wire, []hexgrid.Direction{nw}, []hexgrid.Direction{se}},
		{gates.Wire, []hexgrid.Direction{ne}, []hexgrid.Direction{sw}},
		{gates.DiagWire, []hexgrid.Direction{nw}, []hexgrid.Direction{sw}},
		{gates.DiagWire, []hexgrid.Direction{ne}, []hexgrid.Direction{se}},
		{gates.Inv, []hexgrid.Direction{nw}, []hexgrid.Direction{se}},
		{gates.Inv, []hexgrid.Direction{ne}, []hexgrid.Direction{sw}},
		{gates.Fanout, []hexgrid.Direction{nw}, []hexgrid.Direction{sw, se}},
		{gates.Fanout, []hexgrid.Direction{ne}, []hexgrid.Direction{sw, se}},
		{gates.Crossing, []hexgrid.Direction{nw, ne}, []hexgrid.Direction{sw, se}},
		{gates.HalfAdder, []hexgrid.Direction{nw, ne}, []hexgrid.Direction{sw, se}},
		{gates.PI, nil, []hexgrid.Direction{se}},
		{gates.PI, nil, []hexgrid.Direction{sw}},
		{gates.PO, []hexgrid.Direction{nw}, nil},
		{gates.PO, []hexgrid.Direction{ne}, nil},
	}
	for _, g := range []gates.Func{gates.And, gates.Or, gates.Nand, gates.Nor, gates.Xor, gates.Xnor} {
		variants = append(variants,
			struct {
				f    gates.Func
				ins  []hexgrid.Direction
				outs []hexgrid.Direction
			}{g, []hexgrid.Direction{nw, ne}, []hexgrid.Direction{se}},
			struct {
				f    gates.Func
				ins  []hexgrid.Direction
				outs []hexgrid.Direction
			}{g, []hexgrid.Direction{nw, ne}, []hexgrid.Direction{sw}})
	}
	for _, v := range variants {
		if _, err := lib.Get(v.f, v.ins, v.outs); err != nil {
			t.Errorf("missing library variant: %v", err)
		}
	}
}

func TestDesignsFitTile(t *testing.T) {
	lib := NewLibrary()
	for _, key := range lib.Variants() {
		d := lib.designs[key]
		l := d.Layout(0, 0)
		box := l.BoundingBox()
		if box.MinX < 0 || box.MaxX >= TileWidth || box.MinY < 0 || box.MaxY >= TileHeight {
			t.Errorf("%s: dots outside tile bounds: %+v", key, box)
		}
	}
}

func TestDesignsRespectSpacing(t *testing.T) {
	lib := NewLibrary()
	for _, key := range lib.Variants() {
		d := lib.designs[key]
		l := d.Layout(0, 0)
		// Minimum fabrication spacing: no two dots closer than one lattice
		// site (0.384 nm); same-site duplicates are design errors.
		if v := l.Validate(0.38); len(v) != 0 {
			t.Errorf("%s: %d spacing violations, first: %s", key, len(v), v[0])
		}
	}
}

func TestMirrorInvolution(t *testing.T) {
	d := wireDesign()
	m := d.Mirror("m").Mirror("mm")
	if len(m.Pairs) != len(d.Pairs) {
		t.Fatal("mirror changed pair count")
	}
	for i := range d.Pairs {
		if m.Pairs[i] != d.Pairs[i] {
			t.Errorf("pair %d: %v != %v after double mirror", i, m.Pairs[i], d.Pairs[i])
		}
	}
}

func TestTileOrigin(t *testing.T) {
	cases := []struct {
		at     hexgrid.Offset
		ox, oy int
	}{
		{hexgrid.Offset{X: 0, Y: 0}, 0, 0},
		{hexgrid.Offset{X: 1, Y: 0}, 60, 0},
		{hexgrid.Offset{X: 0, Y: 1}, 30, 46},
		{hexgrid.Offset{X: 2, Y: 3}, 150, 138},
		{hexgrid.Offset{X: 0, Y: 2}, 0, 92},
	}
	for _, c := range cases {
		ox, oy := TileOrigin(c.at)
		if ox != c.ox || oy != c.oy {
			t.Errorf("TileOrigin(%v) = (%d,%d), want (%d,%d)", c.at, ox, oy, c.ox, c.oy)
		}
	}
}

func TestPortContinuity(t *testing.T) {
	// A wire tile's border step must land exactly on the SE neighbor's NW
	// port pair: last anchor (41,39) + (4,7) = (45,46) = neighbor (15,0)
	// at origin offset (30,46).
	d := wireDesign()
	last := d.Outs[0]
	if last.X+4 != PortEast || last.Y+7 != TileHeight {
		t.Errorf("wire exit (%d,%d) does not continue into the next tile", last.X, last.Y)
	}
	first := d.Ins[0]
	if first.X != PortWest || first.Y != 0 {
		t.Errorf("wire entry at (%d,%d), want (%d,0)", first.X, first.Y, PortWest)
	}
}

func TestAreaNM2MatchesTable1(t *testing.T) {
	cases := []struct {
		w, h int
		want float64
	}{
		{2, 3, 2403.98}, {3, 4, 4830.22}, {4, 7, 11312.68}, {5, 15, 30377.56},
	}
	for _, c := range cases {
		got := AreaNM2(c.w, c.h)
		if diff := got - c.want; diff > 2.5 || diff < -2.5 {
			t.Errorf("AreaNM2(%d,%d) = %.2f, want %.2f", c.w, c.h, got, c.want)
		}
	}
}

func TestApplyProducesCellLayout(t *testing.T) {
	x, err := bench.Load("xor2")
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Map(x)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pnr.Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	l, err := pnr.Ortho(context.Background(), g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary()
	cell, err := Apply(lib, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cell.NumDots() < 20 {
		t.Errorf("xor2 cell layout suspiciously small: %d dots", cell.NumDots())
	}
	// No overlapping dots after merging adjacent tiles.
	if v := cell.Validate(0.38); len(v) != 0 {
		t.Errorf("%d cell-level violations, first: %s", len(v), v[0])
	}
	// The layout must fit inside the tile grid's physical area.
	box := cell.BoundingBox()
	if box.MaxX >= l.Width()*TileWidth+TileWidth/2 || box.MaxY >= l.Height()*TileHeight {
		t.Errorf("cell layout exceeds grid: %+v for %dx%d tiles", box, l.Width(), l.Height())
	}
}

func TestApplyAllBenchmarksStructure(t *testing.T) {
	lib := NewLibrary()
	for _, name := range []string{"xnor2", "par_gen", "c17"} {
		x, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mapping.Map(x)
		if err != nil {
			t.Fatal(err)
		}
		g, err := pnr.Expand(m)
		if err != nil {
			t.Fatal(err)
		}
		l, err := pnr.Ortho(context.Background(), g, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := Apply(lib, l, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v := cell.Validate(0.38); len(v) != 0 {
			t.Errorf("%s: %d violations, first: %s", name, len(v), v[0])
		}
	}
}

func TestVariantKeys(t *testing.T) {
	v := Variant{
		Func:    gates.And,
		InDirs:  []hexgrid.Direction{hexgrid.NorthWest, hexgrid.NorthEast},
		OutDirs: []hexgrid.Direction{hexgrid.SouthEast},
	}
	if !strings.Contains(v.key(), "and") || !strings.Contains(v.key(), "iNW") {
		t.Errorf("variant key malformed: %s", v.key())
	}
}

func TestSuperTileCompatibility(t *testing.T) {
	// The tile height times the super-tile row count must exceed the
	// minimum metal pitch using the gatelib constants too.
	st := clocking.PlanSuperTiles(clocking.MinMetalPitchNM)
	tileH := float64(TileHeight) * lattice.PitchY / 2
	if float64(st.RowsPerSuperTile)*tileH < clocking.MinMetalPitchNM {
		t.Error("super-tile plan does not satisfy the metal pitch with gatelib dimensions")
	}
}

func TestWireAndIOOperational(t *testing.T) {
	// The canvas-free designs must validate operationally (gate cores are
	// covered by TestLibraryValidation once their search results land).
	for _, tc := range []struct {
		d *Design
	}{{wireDesign()}, {piDesign()}, {poDesign()}} {
		v, err := ValidateWith(tc.d, func(i uint32) uint32 { return i }, sim.ParamsFig5, ValidateOptions{})
		if err != nil || !v.OK {
			t.Errorf("%s: %v", tc.d.Name, v)
		}
	}
}

var _ = gatelayout.New // keep import if unused in some builds
