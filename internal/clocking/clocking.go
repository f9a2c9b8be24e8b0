// Package clocking implements FCN clocking schemes for hexagonal (and
// Cartesian) floor plans, plus the super-tile grouping the Bestagon paper
// introduces to respect clocking-electrode fabrication limits (§3, Fig. 4).
//
// Clocking stabilizes signals and directs information flow: tiles in clock
// zone z accept inputs from zone (z+3) mod 4 and pass outputs to zone
// (z+1) mod 4 under the standard four-phase regime (Fig. 2). The paper's
// layouts use the Columnar scheme rotated by 90°, i.e. a row-based
// configuration where tile (x, y) is driven by clock zone y mod 4.
package clocking

import (
	"repro/internal/hexgrid"
	"repro/internal/lattice"
)

// NumPhases is the number of clock phases used throughout (four-phase
// clocking, the prevalent FCN strategy adopted by the paper).
const NumPhases = 4

// Scheme assigns a clock zone to every tile coordinate.
type Scheme interface {
	// Zone returns the clock zone (0..NumPhases-1) of the tile.
	Zone(t hexgrid.Offset) int
	// Name identifies the scheme.
	Name() string
	// Feedforward reports whether information flow under this scheme is
	// acyclic along increasing zones (required for super-tile merging).
	Feedforward() bool
}

// RowBased is the paper's scheme of choice: Columnar [26] rotated by 90°,
// zone(x, y) = y mod 4. Signals flow strictly top to bottom.
type RowBased struct{}

// Zone implements Scheme.
func (RowBased) Zone(t hexgrid.Offset) int { return mod(t.Y, NumPhases) }

// Name implements Scheme.
func (RowBased) Name() string { return "row" }

// Feedforward implements Scheme.
func (RowBased) Feedforward() bool { return true }

// Columnar is the classic columnar scheme [26]: zone(x, y) = x mod 4,
// signals flow left to right.
type Columnar struct{}

// Zone implements Scheme.
func (Columnar) Zone(t hexgrid.Offset) int { return mod(t.X, NumPhases) }

// Name implements Scheme.
func (Columnar) Name() string { return "columnar" }

// Feedforward implements Scheme.
func (Columnar) Feedforward() bool { return true }

// TwoDDWave is the 2DDWave scheme [44]: zone(x, y) = (x + y) mod 4,
// diagonal wavefronts from the north-west corner.
type TwoDDWave struct{}

// Zone implements Scheme.
func (TwoDDWave) Zone(t hexgrid.Offset) int { return mod(t.X+t.Y, NumPhases) }

// Name implements Scheme.
func (TwoDDWave) Name() string { return "2ddwave" }

// Feedforward implements Scheme.
func (TwoDDWave) Feedforward() bool { return true }

// USE is the Universal, Scalable, Efficient scheme [9]. It contains local
// loops, so it is not usable with super-tiles (the paper defers USE support
// to future work); it is provided for comparison studies.
type USE struct{}

// useTable is the 4×4 USE clocking tile pattern.
var useTable = [4][4]int{
	{0, 1, 2, 3},
	{3, 2, 1, 0},
	{2, 3, 0, 1},
	{1, 0, 3, 2},
}

// Zone implements Scheme.
func (USE) Zone(t hexgrid.Offset) int { return useTable[mod(t.Y, 4)][mod(t.X, 4)] }

// Name implements Scheme.
func (USE) Name() string { return "use" }

// Feedforward implements Scheme.
func (USE) Feedforward() bool { return false }

// mod is the non-negative modulo.
func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// All returns every implemented scheme.
func All() []Scheme {
	return []Scheme{RowBased{}, Columnar{}, TwoDDWave{}, USE{}}
}

// Physical fabrication constants for clocking electrodes (§4.1).
const (
	// MinMetalPitchNM is the minimum metal pitch of a state-of-the-art 7 nm
	// lithography process [54]: clock electrodes cannot be placed closer.
	MinMetalPitchNM = 40.0
	// TileWidthNM is the physical width of one Bestagon tile
	// (60 cells × 0.384 nm).
	TileWidthNM = 60 * lattice.PitchX
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

// Validate checks that a set of directed tile-to-tile connections respects
// the clocking scheme: every connection must go from zone z to zone
// (z+1) mod 4. It returns the offending connection indices.
func Validate(s Scheme, conns [][2]hexgrid.Offset) []int {
	var bad []int
	for i, c := range conns {
		from, to := s.Zone(c[0]), s.Zone(c[1])
		if mod(from+1, NumPhases) != to {
			bad = append(bad, i)
		}
	}
	return bad
}
