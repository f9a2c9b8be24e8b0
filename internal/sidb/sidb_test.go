package sidb

import (
	"testing"

	"repro/internal/lattice"
)

func TestLayoutAddAndBoundingBox(t *testing.T) {
	l := &Layout{}
	l.AddCell(0, 0, RoleNormal)
	l.AddCell(10, 20, RolePerturber)
	if l.NumDots() != 2 {
		t.Fatal("dot count wrong")
	}
	b := l.BoundingBox()
	if b.MinX != 0 || b.MaxX != 10 || b.MinY != 0 || b.MaxY != 20 {
		t.Errorf("bounding box wrong: %+v", b)
	}
}

func TestValidateSpacing(t *testing.T) {
	l := &Layout{}
	l.AddCell(0, 0, RoleNormal)
	l.AddCell(0, 0, RoleNormal) // duplicate site
	l.AddCell(1, 0, RoleNormal) // 0.384 nm away
	v := l.Validate(0.4)
	if len(v) < 2 {
		t.Errorf("expected duplicate + spacing violations, got %v", v)
	}
	ok := &Layout{}
	ok.AddCell(0, 0, RoleNormal)
	ok.AddCell(10, 0, RoleNormal)
	if v := ok.Validate(0.4); len(v) != 0 {
		t.Errorf("clean layout flagged: %v", v)
	}
}

func TestBDLPairState(t *testing.T) {
	l := &Layout{}
	l.AddCell(0, 0, RoleOutput)
	l.AddCell(1, 2, RoleOutput)
	pair := BDLPair{Bit0: lattice.FromCell(0, 0), Bit1: lattice.FromCell(1, 2)}
	idx := l.SiteIndex()

	if got, err := pair.State(idx, []bool{true, false}); err != nil || got {
		t.Errorf("charge on Bit0 must read 0: %v %v", got, err)
	}
	if got, err := pair.State(idx, []bool{false, true}); err != nil || !got {
		t.Errorf("charge on Bit1 must read 1: %v %v", got, err)
	}
	if _, err := pair.State(idx, []bool{true, true}); err == nil {
		t.Error("two electrons must be an error")
	}
	if _, err := pair.State(idx, []bool{false, false}); err == nil {
		t.Error("zero electrons must be an error")
	}
}

func TestBDLPairStateMissingDots(t *testing.T) {
	pair := BDLPair{Bit0: lattice.FromCell(0, 0), Bit1: lattice.FromCell(1, 2)}
	if _, err := pair.State(map[lattice.Site]int{}, nil); err == nil {
		t.Error("missing dots must error")
	}
}

func TestPairSeparation(t *testing.T) {
	p := BDLPair{Bit0: lattice.FromCell(0, 0), Bit1: lattice.FromCell(1, 2)}
	sep := lattice.DistanceNM(p.Bit0, p.Bit1)
	if sep < 0.85 || sep > 0.87 {
		t.Errorf("separation = %v, want ~0.859", sep)
	}
}

func TestRoleString(t *testing.T) {
	names := map[Role]string{
		RoleNormal: "normal", RolePerturber: "perturber",
		RoleInput: "input", RoleOutput: "output",
	}
	for r, want := range names {
		if r.String() != want {
			t.Errorf("%v.String() = %q", want, r.String())
		}
	}
}
