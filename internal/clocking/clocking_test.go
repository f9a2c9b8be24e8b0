package clocking

import (
	"math"
	"testing"

	"repro/internal/hexgrid"
)

func TestRowBasedZones(t *testing.T) {
	for y := 0; y < 12; y++ {
		want := y % 4
		for x := 0; x < 5; x++ {
			if got := Zone(hexgrid.Offset{X: x, Y: y}); got != want {
				t.Errorf("zone(%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestNegativeCoordinates(t *testing.T) {
	if z := Zone(hexgrid.Offset{X: -3, Y: -7}); z != 1 {
		t.Errorf("negative coords give zone %d, want 1", z)
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
