package defects

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/lattice"
)

// TestCanonicalOrderIndependence: two surfaces with the same defects
// inserted in different orders must serialize identically (bytes and
// JSON) — the determinism contract behind content-addressed cache keys.
func TestCanonicalOrderIndependence(t *testing.T) {
	a := New()
	a.AddCell(10, 4, DB)
	a.AddCell(-3, 7, Arsenic)
	a.AddCell(10, 5, Siloxane)
	b := New()
	b.AddCell(10, 5, Siloxane)
	b.AddCell(10, 4, DB)
	b.AddCell(-3, 7, Arsenic)
	if !bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
		t.Fatal("insertion order leaked into canonical bytes")
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("insertion order leaked into JSON: %s vs %s", ja, jb)
	}
	c := New()
	c.AddCell(10, 4, DB)
	c.AddCell(-3, 7, Arsenic)
	if bytes.Equal(a.AppendCanonical(nil), c.AppendCanonical(nil)) {
		t.Fatal("different surfaces serialized identically")
	}
	// Conflicting adds at one site resolve the same way in either order.
	d1, d2 := New(), New()
	d1.AddCell(0, 0, EtchedDimer)
	d1.AddCell(0, 0, DB)
	d2.AddCell(0, 0, DB)
	d2.AddCell(0, 0, EtchedDimer)
	if !bytes.Equal(d1.AppendCanonical(nil), d2.AppendCanonical(nil)) {
		t.Fatal("conflicting Add order changed the surface")
	}
}

// TestJSONRoundTrip: marshal → unmarshal reproduces the surface.
func TestJSONRoundTrip(t *testing.T) {
	s := New()
	s.AddCell(1, 2, Vacancy)
	s.AddCell(30, 40, DihydridePair)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Surface
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.AppendCanonical(nil), back.AppendCanonical(nil)) {
		t.Fatalf("round trip changed surface: %s", data)
	}
	if err := json.Unmarshal([]byte(`[{"x":0,"y":0,"type":"nope"}]`), &back); err == nil {
		t.Fatal("unknown type accepted")
	}
}

// TestNilSurface: the nil pointer behaves as a pristine surface.
func TestNilSurface(t *testing.T) {
	var s *Surface
	if !s.Empty() || s.Len() != 0 || s.List() != nil {
		t.Fatal("nil surface not pristine")
	}
	if _, blocked := s.Blocks(lattice.FromCell(0, 0)); blocked {
		t.Fatal("nil surface blocks")
	}
	if s.InfluencesBox(lattice.Box{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}) {
		t.Fatal("nil surface influences")
	}
}

// TestBlocksRadius: exclusion zones block nearby sites only.
func TestBlocksRadius(t *testing.T) {
	s := New()
	s.AddCell(10, 10, DB) // exclusion 0.9 nm ≈ 2 cells in x
	if _, blocked := s.Blocks(lattice.FromCell(10, 10)); !blocked {
		t.Fatal("defect site itself not blocked")
	}
	if _, blocked := s.Blocks(lattice.FromCell(12, 10)); !blocked {
		t.Fatal("site 0.768 nm away not blocked by 0.9 nm exclusion")
	}
	if _, blocked := s.Blocks(lattice.FromCell(20, 10)); blocked {
		t.Fatal("site 3.84 nm away blocked by 0.9 nm exclusion")
	}
}

// TestGenerateDeterminism: same seed → identical surface; different seed
// → (almost surely) different; densities scale counts with area.
func TestGenerateDeterminism(t *testing.T) {
	region := lattice.Box{MinX: 0, MinY: 0, MaxX: 119, MaxY: 91} // two tiles
	d := Densities{DB: 0.5, Siloxane: 1.0}
	a := Generate(42, region, d)
	b := Generate(42, region, d)
	if !bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
		t.Fatal("same seed produced different surfaces")
	}
	if a.Empty() {
		t.Fatal("nonzero densities produced empty surface")
	}
	c := Generate(43, region, d)
	if bytes.Equal(a.AppendCanonical(nil), c.AppendCanonical(nil)) {
		t.Fatal("different seeds produced identical surfaces")
	}
	// Expected counts: area ≈ 120·0.384 × 92·0.384 ≈ 1628 nm².
	// 0.5/100nm² → ~8 DBs, 1.0 → ~16 siloxanes.
	var dbs, sil int
	for _, df := range a.List() {
		switch df.Type {
		case DB:
			dbs++
		case Siloxane:
			sil++
		}
	}
	if dbs < 4 || dbs > 13 || sil < 8 || sil > 25 {
		t.Fatalf("counts off: %d DBs, %d siloxanes", dbs, sil)
	}
}

// TestParseDensities rejects unknown names and negatives.
func TestParseDensities(t *testing.T) {
	d, err := ParseDensities(map[string]float64{"db": 0.1, "arsenic": 0})
	if err != nil || len(d) != 1 || d[DB] != 0.1 {
		t.Fatalf("parse failed: %v %v", d, err)
	}
	if _, err := ParseDensities(map[string]float64{"bogus": 1}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := ParseDensities(map[string]float64{"db": -1}); err == nil {
		t.Fatal("negative density accepted")
	}
}

// TestTypeTable sanity-checks the spec table.
func TestTypeTable(t *testing.T) {
	charges := map[Type]int{DB: -1, Arsenic: 1, Vacancy: -1,
		Siloxane: 0, DihydridePair: 0, SingleDihydride: 0, EtchedDimer: 0}
	for ty, q := range charges {
		if ty.Charge() != q {
			t.Fatalf("%s charge %d, want %d", ty, ty.Charge(), q)
		}
		if ty.Spec().ExclusionNM <= 0 || ty.Spec().InfluenceNM < ty.Spec().ExclusionNM {
			t.Fatalf("%s radii malformed: %+v", ty, ty.Spec())
		}
		back, err := ParseType(ty.String())
		if err != nil || back != ty {
			t.Fatalf("%s does not round-trip: %v %v", ty, back, err)
		}
	}
}
