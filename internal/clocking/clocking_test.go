package clocking

import (
	"math"
	"testing"

	"repro/internal/hexgrid"
)

func TestRowBasedZones(t *testing.T) {
	s := RowBased{}
	for y := 0; y < 12; y++ {
		want := y % 4
		for x := 0; x < 5; x++ {
			if got := s.Zone(hexgrid.Offset{X: x, Y: y}); got != want {
				t.Errorf("zone(%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestSchemesFourPhases(t *testing.T) {
	for _, s := range All() {
		seen := map[int]bool{}
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				z := s.Zone(hexgrid.Offset{X: x, Y: y})
				if z < 0 || z >= NumPhases {
					t.Fatalf("%s: zone %d out of range", s.Name(), z)
				}
				seen[z] = true
			}
		}
		if len(seen) != NumPhases {
			t.Errorf("%s: only %d phases used", s.Name(), len(seen))
		}
	}
}

func TestNegativeCoordinates(t *testing.T) {
	for _, s := range All() {
		z := s.Zone(hexgrid.Offset{X: -3, Y: -7})
		if z < 0 || z >= NumPhases {
			t.Errorf("%s: negative coords give zone %d", s.Name(), z)
		}
	}
}

func TestFeedforwardFlags(t *testing.T) {
	if !(RowBased{}).Feedforward() || !(Columnar{}).Feedforward() || !(TwoDDWave{}).Feedforward() {
		t.Error("linear schemes are feed-forward")
	}
	if (USE{}).Feedforward() {
		t.Error("USE contains loops; not feed-forward")
	}
}

func TestUSEPattern(t *testing.T) {
	// USE repeats with period 4 in both axes.
	s := USE{}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			a := s.Zone(hexgrid.Offset{X: x, Y: y})
			b := s.Zone(hexgrid.Offset{X: x + 4, Y: y + 4})
			if a != b {
				t.Fatalf("USE not periodic at (%d,%d)", x, y)
			}
		}
	}
}

func TestPlanSuperTiles(t *testing.T) {
	st := PlanSuperTiles(MinMetalPitchNM)
	// Tile height is 46*0.384/2*2 = 17.664 nm; 3 rows = 52.99 nm >= 40.
	if st.RowsPerSuperTile != 3 {
		t.Errorf("rows per super-tile = %d, want 3 at 40 nm pitch", st.RowsPerSuperTile)
	}
	if st.PitchNM < MinMetalPitchNM {
		t.Errorf("super-tile pitch %.2f below minimum", st.PitchNM)
	}
	if math.Abs(st.PitchNM-3*TileHeightNM) > 1e-9 {
		t.Errorf("pitch %.3f != 3 rows", st.PitchNM)
	}
}

func TestPlanSuperTilesLargeTile(t *testing.T) {
	// If tiles were already big enough, one row per super-tile suffices.
	st := PlanSuperTiles(TileHeightNM)
	if st.RowsPerSuperTile != 1 {
		t.Errorf("rows = %d, want 1", st.RowsPerSuperTile)
	}
}

func TestExpandedZone(t *testing.T) {
	st := PlanSuperTiles(MinMetalPitchNM) // 3 rows per super-tile
	// Rows 0..2 share zone 0, rows 3..5 zone 1, ...
	for y := 0; y < 12; y++ {
		want := (y / 3) % 4
		if got := st.ExpandedZone(hexgrid.Offset{X: 1, Y: y}); got != want {
			t.Errorf("expanded zone row %d = %d, want %d", y, got, want)
		}
	}
}

func TestValidate(t *testing.T) {
	s := RowBased{}
	good := [][2]hexgrid.Offset{
		{{X: 0, Y: 0}, {X: 0, Y: 1}},
		{{X: 1, Y: 3}, {X: 1, Y: 4}},
	}
	if bad := Validate(s, good); len(bad) != 0 {
		t.Errorf("valid connections flagged: %v", bad)
	}
	mixed := [][2]hexgrid.Offset{
		{{X: 0, Y: 0}, {X: 0, Y: 1}},
		{{X: 0, Y: 1}, {X: 0, Y: 0}}, // backwards
		{{X: 0, Y: 0}, {X: 1, Y: 0}}, // sideways
	}
	if bad := Validate(s, mixed); len(bad) != 2 {
		t.Errorf("expected 2 violations, got %v", bad)
	}
}
