// Package clocking implements the row-based clocking of hexagonal floor
// plans, plus the super-tile grouping the Bestagon paper introduces to
// respect clocking-electrode fabrication limits (§3, Fig. 4).
//
// Clocking stabilizes signals and directs information flow: tiles in clock
// zone z accept inputs from zone (z+3) mod 4 and pass outputs to zone
// (z+1) mod 4 under the standard four-phase regime (Fig. 2). The paper's
// layouts, and every layout this repository places, use the Columnar scheme
// rotated by 90°, i.e. a row-based configuration where tile (x, y) is
// driven by clock zone y mod 4.
package clocking

import (
	"repro/internal/hexgrid"
	"repro/internal/lattice"
)

// NumPhases is the number of clock phases used throughout (four-phase
// clocking, the prevalent FCN strategy adopted by the paper).
const NumPhases = 4

// Zone returns the clock zone (0..NumPhases-1) of a tile under the
// paper's row-based scheme: Columnar [26] rotated by 90°, zone(x, y) =
// y mod 4. Signals flow strictly top to bottom.
func Zone(t hexgrid.Offset) int { return mod(t.Y, NumPhases) }

// mod is the non-negative modulo.
func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// Physical fabrication constants for clocking electrodes (§4.1).
const (
	// MinMetalPitchNM is the minimum metal pitch of a state-of-the-art 7 nm
	// lithography process [54]: clock electrodes cannot be placed closer.
	MinMetalPitchNM = 40.0
	// TileHeightNM is the physical height of one Bestagon tile
	// (46 sub-rows × 0.384 nm).
	TileHeightNM = 46 * (lattice.PitchY / 2)
)

// SuperTile describes the grouping of standard tiles into regions large
// enough to be addressed by one clocking electrode (Fig. 4). Under a
// row-based linear scheme the electrode pitch constrains the number of tile
// rows per super-tile; all tiles in a super-tile share a clock zone and
// switch simultaneously.
type SuperTile struct {
	// RowsPerSuperTile is the number of standard-tile rows grouped per
	// electrode.
	RowsPerSuperTile int
	// PitchNM is the resulting electrode pitch.
	PitchNM float64
}

// PlanSuperTiles computes the minimal super-tile height (in tile rows) that
// satisfies the minimum metal pitch for the row-based scheme.
func PlanSuperTiles(minPitchNM float64) SuperTile {
	rows := 1
	for float64(rows)*TileHeightNM < minPitchNM {
		rows++
	}
	return SuperTile{RowsPerSuperTile: rows, PitchNM: float64(rows) * TileHeightNM}
}

// ExpandedZone returns the clock zone of a tile after super-tile merging:
// tile rows are grouped RowsPerSuperTile at a time, and the groups cycle
// through the four phases. This is flow step (6), "merge adjacent tiles
// into super-tiles by expanding the clock zone dimensions".
func (st SuperTile) ExpandedZone(t hexgrid.Offset) int {
	return mod(t.Y/st.RowsPerSuperTile, NumPhases)
}
