// Package hexgrid implements coordinate algebra for pointy-top hexagonal
// grids in offset ("odd-r"), axial, and cube coordinate systems.
//
// The Bestagon floor plan (Walter et al., DAC 2022) arranges hexagonal
// standard tiles in rows: every tile receives inputs from its north-west and
// north-east neighbors and emits outputs toward its south-west and south-east
// neighbors, so information flows strictly top to bottom. The conventions
// follow Red Blob Games' hexagonal grid reference, which the paper credits.
package hexgrid

import "fmt"

// Direction identifies one of the six neighbors of a pointy-top hexagon.
type Direction uint8

// The six pointy-top neighbor directions. Order matters: the first four are
// the ones used by the row-based Bestagon data flow (inputs NW/NE, outputs
// SW/SE); W and E complete the neighborhood.
const (
	NorthWest Direction = iota
	NorthEast
	SouthWest
	SouthEast
	West
	East
	numDirections
)

// Directions lists all six directions in a stable order.
var Directions = [6]Direction{NorthWest, NorthEast, SouthWest, SouthEast, West, East}

// String returns the compass name of the direction.
func (d Direction) String() string {
	switch d {
	case NorthWest:
		return "NW"
	case NorthEast:
		return "NE"
	case SouthWest:
		return "SW"
	case SouthEast:
		return "SE"
	case West:
		return "W"
	case East:
		return "E"
	default:
		return fmt.Sprintf("Direction(%d)", uint8(d))
	}
}

// Opposite returns the direction pointing the other way.
func (d Direction) Opposite() Direction {
	switch d {
	case NorthWest:
		return SouthEast
	case NorthEast:
		return SouthWest
	case SouthWest:
		return NorthEast
	case SouthEast:
		return NorthWest
	case West:
		return East
	case East:
		return West
	default:
		return d
	}
}

// Incoming reports whether the direction is an input side under the
// row-based Bestagon data-flow convention (signals arrive from the north).
func (d Direction) Incoming() bool { return d == NorthWest || d == NorthEast }

// Outgoing reports whether the direction is an output side under the
// row-based Bestagon data-flow convention (signals leave to the south).
func (d Direction) Outgoing() bool { return d == SouthWest || d == SouthEast }

// Offset is a position in odd-r offset coordinates: X is the column, Y the
// row, and odd rows are displaced half a tile to the right. This is the
// coordinate system used by the gate-level layouts.
type Offset struct {
	X, Y int
}

// String formats the coordinate as "(x,y)".
func (o Offset) String() string { return fmt.Sprintf("(%d,%d)", o.X, o.Y) }

// Cube is a position in cube coordinates with the invariant Q+R+S == 0.
// Cube coordinates make distances trivial.
type Cube struct {
	Q, R, S int
}

// Axial is a position in axial coordinates (cube coordinates with S dropped).
type Axial struct {
	Q, R int
}

// ToCube converts odd-r offset coordinates to cube coordinates.
func (o Offset) ToCube() Cube {
	q := o.X - (o.Y-(o.Y&1))/2
	r := o.Y
	return Cube{Q: q, R: r, S: -q - r}
}

// ToOffset converts cube coordinates to odd-r offset coordinates.
func (c Cube) ToOffset() Offset {
	x := c.Q + (c.R-(c.R&1))/2
	return Offset{X: x, Y: c.R}
}

// ToCube converts axial coordinates to cube coordinates.
func (a Axial) ToCube() Cube { return Cube{Q: a.Q, R: a.R, S: -a.Q - a.R} }

// ToOffset converts axial coordinates to odd-r offset coordinates.
func (a Axial) ToOffset() Offset { return a.ToCube().ToOffset() }

// Sub returns the component-wise difference of two cube coordinates.
func (c Cube) Sub(o Cube) Cube { return Cube{c.Q - o.Q, c.R - o.R, c.S - o.S} }

// Neighbor returns the odd-r offset coordinate of the neighbor in direction d.
func (o Offset) Neighbor(d Direction) Offset {
	odd := o.Y & 1
	switch d {
	case NorthWest:
		return Offset{o.X - 1 + odd, o.Y - 1}
	case NorthEast:
		return Offset{o.X + odd, o.Y - 1}
	case SouthWest:
		return Offset{o.X - 1 + odd, o.Y + 1}
	case SouthEast:
		return Offset{o.X + odd, o.Y + 1}
	case West:
		return Offset{o.X - 1, o.Y}
	case East:
		return Offset{o.X + 1, o.Y}
	default:
		return o
	}
}

// abs returns the absolute value of x.
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Distance returns the hexagonal (cube) distance between two cube coordinates.
func (c Cube) Distance(o Cube) int {
	d := c.Sub(o)
	return (abs(d.Q) + abs(d.R) + abs(d.S)) / 2
}

// Distance returns the hexagonal distance between two offset coordinates.
func (o Offset) Distance(b Offset) int { return o.ToCube().Distance(b.ToCube()) }

// Bounds describes a rectangular region of offset coordinates, inclusive of
// Min and exclusive of Max in both axes.
type Bounds struct {
	MinX, MinY int
	MaxX, MaxY int // exclusive
}

// NewBounds returns bounds covering a w×h grid anchored at the origin.
func NewBounds(w, h int) Bounds { return Bounds{0, 0, w, h} }

// Contains reports whether the coordinate lies within the bounds.
func (b Bounds) Contains(o Offset) bool {
	return o.X >= b.MinX && o.X < b.MaxX && o.Y >= b.MinY && o.Y < b.MaxY
}

// Width returns the horizontal extent in tiles.
func (b Bounds) Width() int { return b.MaxX - b.MinX }

// Height returns the vertical extent in tiles.
func (b Bounds) Height() int { return b.MaxY - b.MinY }

// Area returns the number of tiles covered.
func (b Bounds) Area() int { return b.Width() * b.Height() }
