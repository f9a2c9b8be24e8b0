package gatelib

import (
	"repro/internal/defects"
	"repro/internal/hexgrid"
	"repro/internal/lattice"
)

// Defect-aware tile geometry: the bridge between a global defect surface
// (cell coordinates over the whole die) and the hexagonal tile grid the
// place & route engines reason about. A tile is afflicted when some
// defect's influence circle intersects the tile's cell box — charged
// defects reach several nm past their own site (their screened Coulomb
// tail measurably shifts gates), neutral defects only poison their
// immediate neighbourhood.

// TileBox returns the cell-coordinate bounding box of the tile at offset
// coordinate at.
func TileBox(at hexgrid.Offset) lattice.Box {
	ox, oy := TileOrigin(at)
	return lattice.Box{MinX: ox, MinY: oy, MaxX: ox + TileWidth - 1, MaxY: oy + TileHeight - 1}
}

// TileAfflicted reports whether the tile at the offset coordinate is
// afflicted by the surface: some defect's influence circle intersects the
// tile's cell box. Afflicted tiles are blocked during place & route.
func TileAfflicted(surf *defects.Surface, at hexgrid.Offset) bool {
	if surf.Empty() {
		return false
	}
	return surf.InfluencesBox(TileBox(at))
}

// TileBlocker returns the tile-blocking predicate for the surface, or nil
// for a pristine surface (no blocking — engines treat a nil blocker as
// the fast path).
func TileBlocker(surf *defects.Surface) func(hexgrid.Offset) bool {
	if surf.Empty() {
		return nil
	}
	return func(at hexgrid.Offset) bool { return TileAfflicted(surf, at) }
}
