package sqd

import (
	"strings"
	"testing"

	"repro/internal/lattice"
	"repro/internal/sidb"
)

func sample() *sidb.Layout {
	l := &sidb.Layout{Name: "sample"}
	l.AddCell(0, 0, sidb.RoleNormal)
	l.AddCell(5, 7, sidb.RoleInput)
	l.AddCell(-3, 12, sidb.RolePerturber)
	return l
}

func TestWriteProducesXML(t *testing.T) {
	s, err := WriteString(sample())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<?xml", "<siqad>", "<dbdot>", "latcoord", "physloc"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	orig := sample()
	s, err := WriteString(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumDots() != orig.NumDots() {
		t.Fatalf("dot count changed: %d -> %d", orig.NumDots(), back.NumDots())
	}
	for i, d := range orig.Dots {
		if back.Dots[i].Site != d.Site {
			t.Errorf("dot %d site changed: %v -> %v", i, d.Site, back.Dots[i].Site)
		}
		wantPerturber := d.Role == sidb.RolePerturber
		gotPerturber := back.Dots[i].Role == sidb.RolePerturber
		if wantPerturber != gotPerturber {
			t.Errorf("dot %d perturber flag changed", i)
		}
	}
}

func TestPhyslocAngstroms(t *testing.T) {
	l := &sidb.Layout{}
	l.Add(lattice.Site{N: 1, M: 0, L: 0}, sidb.RoleNormal) // x = 0.384 nm = 3.84 Å
	s, err := WriteString(l)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, `x="3.84"`) {
		t.Errorf("physloc should be in angstroms:\n%s", s)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("this is not xml")); err == nil {
		t.Error("garbage must fail to parse")
	}
}
