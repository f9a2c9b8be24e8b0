package gatelib

import (
	"fmt"

	"repro/internal/gatelayout"
	"repro/internal/gates"
	"repro/internal/hexgrid"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/sidb"
)

// Apply maps every tile of a gate-level layout to its dot-accurate design,
// yielding the final SiDB layout — flow step (7): "apply the Bestagon
// library to map each gate to a dot-accurate representation". A nil tracer
// disables telemetry at no cost.
//
// Tiles are placed on the hexagonal grid in odd-r offset coordinates: tile
// (x, y) is instantiated at cell origin (60x + 30·(y mod 2), 46y).
func Apply(lib *Library, l *gatelayout.Layout, tr *obs.Tracer) (*sidb.Layout, error) {
	sp := tr.Start("gatelib/apply")
	defer sp.End()
	out := &sidb.Layout{Name: l.Name}
	// Neighbouring tiles share the dots of their wire stubs; each site is
	// placed once, by the first tile that has it.
	seen := map[lattice.Site]bool{}
	tiles := 0
	for _, at := range l.Tiles() {
		tile, _ := l.At(at)
		if tile.Func == gates.None {
			continue
		}
		d, err := lib.Get(tile.Func, tile.Ins, tile.Outs)
		if err != nil {
			return nil, fmt.Errorf("gatelib: tile %v: %w", at, err)
		}
		ox, oy := TileOrigin(at)
		before := out.NumDots()
		for _, dot := range d.Layout(ox, oy).Dots {
			if !seen[dot.Site] {
				seen[dot.Site] = true
				out.Dots = append(out.Dots, dot)
			}
		}
		tiles++
		tr.Histogram("gatelib/dots_per_tile",
			10, 20, 30, 40, 60, 80).Observe(float64(out.NumDots() - before))
	}
	tr.Counter("gatelib/tiles_applied").Add(int64(tiles))
	sp.SetAttr("tiles", tiles)
	sp.SetAttr("sidbs", out.NumDots())
	return out, nil
}

// TileOrigin returns the cell origin of the tile at offset coordinate at.
func TileOrigin(at hexgrid.Offset) (ox, oy int) {
	ox = at.X*TileWidth + (mod2(at.Y))*TileWidth/2
	oy = at.Y * TileHeight
	return ox, oy
}

// mod2 is the non-negative y parity.
func mod2(y int) int {
	if y%2 != 0 {
		return 1
	}
	return 0
}

// AreaNM2 returns the physical layout area following the paper's Table 1
// model: the bounding box spans the full w×h tile grid, measured as
// ((60·w − 1) · 0.384 nm) × ((46·h − 1) · 0.384 nm).
func AreaNM2(w, h int) float64 {
	b := lattice.Box{MaxX: TileWidth*w - 1, MaxY: TileHeight*h - 1}
	return b.WidthNM() * b.HeightNM()
}
