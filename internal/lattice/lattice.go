// Package lattice models the hydrogen-passivated silicon (100) 2×1 surface
// (H-Si(100)-2×1) on which silicon dangling bonds are fabricated.
//
// Sites follow SiQAD's (n, m, l) convention: n indexes the position along a
// dimer row, m indexes the dimer row, and l ∈ {0, 1} selects the upper or
// lower atom of the dimer pair. The lattice constants are a = 3.84 Å along
// the dimer row, b = 7.68 Å between rows, and 2.25 Å between the two atoms
// of a dimer.
package lattice

import (
	"fmt"
	"math"
)

// Physical lattice constants of H-Si(100)-2×1 in nanometers.
const (
	// PitchX is the site pitch along a dimer row (a = 3.84 Å).
	PitchX = 0.384
	// PitchY is the pitch between dimer rows (b = 7.68 Å).
	PitchY = 0.768
	// DimerGap is the separation of the two atoms within a dimer (2.25 Å).
	DimerGap = 0.225
)

// Site is a lattice site in SiQAD (n, m, l) coordinates.
type Site struct {
	N int // position along the dimer row (x)
	M int // dimer row index (y)
	L int // 0: upper dimer atom, 1: lower dimer atom
}

// String formats the site as "(n,m,l)".
func (s Site) String() string { return fmt.Sprintf("(%d,%d,%d)", s.N, s.M, s.L) }

// Pos returns the physical position of the site in nanometers.
func (s Site) Pos() (x, y float64) {
	return float64(s.N) * PitchX, float64(s.M)*PitchY + float64(s.L)*DimerGap
}

// FromCell converts a flattened cell coordinate (x, y) — where y counts
// dimer sub-rows, i.e. y = 2m + l — into a lattice site. This is the
// coordinate system the gate library uses for tile-local dot placement.
func FromCell(x, y int) Site {
	m, l := y/2, y%2
	if y < 0 && l != 0 {
		// Floor division for negative sub-rows.
		m, l = (y-1)/2, 1
	}
	return Site{N: x, M: m, L: l}
}

// Cell returns the flattened cell coordinate (x, y) with y = 2m + l.
func (s Site) Cell() (x, y int) { return s.N, 2*s.M + s.L }

// Translate returns the site shifted by dx cells horizontally and dy
// sub-rows vertically.
func (s Site) Translate(dx, dy int) Site {
	x, y := s.Cell()
	return FromCell(x+dx, y+dy)
}

// DistanceNM returns the Euclidean distance between two sites in nanometers.
func DistanceNM(a, b Site) float64 {
	ax, ay := a.Pos()
	bx, by := b.Pos()
	dx, dy := ax-bx, ay-by
	return math.Hypot(dx, dy)
}

// Box is an axis-aligned bounding box over lattice sites in cell coordinates.
type Box struct {
	MinX, MinY int
	MaxX, MaxY int // inclusive
}

// EmptyBox returns a box that contains nothing until extended.
func EmptyBox() Box {
	const big = int(^uint(0) >> 1)
	return Box{MinX: big, MinY: big, MaxX: -big - 1, MaxY: -big - 1}
}

// Empty reports whether the box contains no sites.
func (b Box) Empty() bool { return b.MinX > b.MaxX || b.MinY > b.MaxY }

// Extend grows the box to include the given site.
func (b Box) Extend(s Site) Box {
	x, y := s.Cell()
	if x < b.MinX {
		b.MinX = x
	}
	if x > b.MaxX {
		b.MaxX = x
	}
	if y < b.MinY {
		b.MinY = y
	}
	if y > b.MaxY {
		b.MaxY = y
	}
	return b
}

// WidthNM returns the physical width of the box in nanometers. The Table 1
// area model of the Bestagon paper measures extent as (cells − 1)·PitchX.
func (b Box) WidthNM() float64 {
	if b.Empty() {
		return 0
	}
	return float64(b.MaxX-b.MinX) * PitchX
}

// HeightNM returns the physical height of the box in nanometers using the
// same (sub-rows − 1)·PitchX convention the paper's area figures follow
// (sub-row pitch PitchY/2 = PitchX).
func (b Box) HeightNM() float64 {
	if b.Empty() {
		return 0
	}
	return float64(b.MaxY-b.MinY) * (PitchY / 2)
}
