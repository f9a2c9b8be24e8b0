package lattice

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSitePos(t *testing.T) {
	cases := []struct {
		s    Site
		x, y float64
	}{
		{Site{0, 0, 0}, 0, 0},
		{Site{1, 0, 0}, 0.384, 0},
		{Site{0, 1, 0}, 0, 0.768},
		{Site{0, 0, 1}, 0, 0.225},
		{Site{3, 2, 1}, 3 * 0.384, 2*0.768 + 0.225},
	}
	for _, c := range cases {
		x, y := c.s.Pos()
		if math.Abs(x-c.x) > 1e-12 || math.Abs(y-c.y) > 1e-12 {
			t.Errorf("%v.Pos() = (%v,%v), want (%v,%v)", c.s, x, y, c.x, c.y)
		}
	}
}

func TestCellRoundTrip(t *testing.T) {
	f := func(x, y int16) bool {
		s := FromCell(int(x), int(y))
		gx, gy := s.Cell()
		return gx == int(x) && gy == int(y) && (s.L == 0 || s.L == 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromCellNegative(t *testing.T) {
	s := FromCell(0, -1)
	if s.L != 1 || s.M != -1 {
		t.Errorf("FromCell(0,-1) = %v, want m=-1 l=1", s)
	}
	if _, y := s.Cell(); y != -1 {
		t.Errorf("round trip broken for negative sub-row: %d", y)
	}
}

func TestTranslate(t *testing.T) {
	s := FromCell(5, 7)
	m := s.Translate(2, 3)
	x, y := m.Cell()
	if x != 7 || y != 10 {
		t.Errorf("Translate got (%d,%d), want (7,10)", x, y)
	}
}

func TestDistanceNM(t *testing.T) {
	a := Site{0, 0, 0}
	b := Site{1, 0, 0}
	if d := DistanceNM(a, b); math.Abs(d-PitchX) > 1e-12 {
		t.Errorf("distance along row = %v, want %v", d, PitchX)
	}
	c := Site{0, 0, 1}
	if d := DistanceNM(a, c); math.Abs(d-DimerGap) > 1e-12 {
		t.Errorf("dimer distance = %v, want %v", d, DimerGap)
	}
	if DistanceNM(a, b) != DistanceNM(b, a) {
		t.Error("distance must be symmetric")
	}
}

func TestBoxExtendAndArea(t *testing.T) {
	b := EmptyBox()
	if !b.Empty() {
		t.Fatal("EmptyBox must start empty")
	}
	b = b.Extend(FromCell(0, 0))
	b = b.Extend(FromCell(119, 137)) // the xor2 bounding box from Table 1
	if b.Empty() {
		t.Fatal("box must be non-empty after extension")
	}
	// Table 1: xor2 is 2x3 tiles = (60*2-1) x (46*3-1) cells = 2403.98 nm^2.
	if a := b.WidthNM() * b.HeightNM(); math.Abs(a-2403.98) > 0.01 {
		t.Errorf("xor2 bounding box area = %v, want 2403.98", a)
	}
}

func TestBoxSingleSite(t *testing.T) {
	b := EmptyBox().Extend(FromCell(10, 10))
	if b.WidthNM() != 0 || b.HeightNM() != 0 {
		t.Error("single-site box must have zero extent under the (n-1) model")
	}
}

func TestTable1AreaModel(t *testing.T) {
	// Verify the reverse-engineered area model against every Table 1 row.
	rows := []struct {
		w, h int
		area float64
	}{
		{2, 3, 2403.98}, {2, 3, 2403.98}, {3, 4, 4830.22}, {3, 6, 7258.52},
		{4, 7, 11312.68}, {5, 6, 12124.57}, {5, 6, 12124.57}, {5, 8, 16180.79},
		{5, 8, 16180.79}, {5, 8, 16180.79}, {5, 11, 22265.12}, {5, 12, 24293.23},
		{5, 15, 30377.56}, {8, 10, 32419.82},
	}
	for _, r := range rows {
		b := EmptyBox().Extend(FromCell(0, 0)).Extend(FromCell(60*r.w-1, 46*r.h-1))
		if got := b.WidthNM() * b.HeightNM(); math.Abs(got-r.area) > 2.5 {
			t.Errorf("area model for %dx%d: got %.2f, want %.2f", r.w, r.h, got, r.area)
		}
	}
}
