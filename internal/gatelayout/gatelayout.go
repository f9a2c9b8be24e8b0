// Package gatelayout implements clocked gate-level layouts on hexagonal
// floor plans — the central physical-design data structure of the Bestagon
// flow (§3, §4).
//
// A layout is a w×h arrangement of pointy-top hexagonal tiles in odd-r
// offset coordinates. Every tile hosts one Bestagon tile function (a gate,
// a wire, a crossing, a fan-out, or an I/O pin) with explicit input and
// output ports on its hexagon sides. Under the row-based clocking scheme
// signals enter from the north (NW/NE) and leave to the south (SW/SE), so
// every source-to-sink path crosses each row exactly once — which is what
// gives the paper's layouts their 1/1 throughput.
package gatelayout

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/clocking"
	"repro/internal/gates"
	"repro/internal/hexgrid"
	"repro/internal/logic/network"
)

// Tile is one occupied hexagon of the layout.
type Tile struct {
	Func gates.Func
	// Ins lists the sides signals enter from, in port order (port 0 first).
	// Two-input tiles order ports NW then NE.
	Ins []hexgrid.Direction
	// Outs lists the sides signals leave to, in port order.
	Outs []hexgrid.Direction
	// Name annotates PI/PO tiles with their signal name.
	Name string
}

// Layout is a clocked gate-level layout on a hexagonal grid.
type Layout struct {
	Name   string
	Bounds hexgrid.Bounds
	tiles  map[hexgrid.Offset]Tile
}

// New returns an empty row-clocked layout with the given dimensions.
func New(name string, w, h int) *Layout {
	return &Layout{
		Name:   name,
		Bounds: hexgrid.NewBounds(w, h),
		tiles:  make(map[hexgrid.Offset]Tile),
	}
}

// Set places a tile at the coordinate, replacing any previous contents.
func (l *Layout) Set(at hexgrid.Offset, t Tile) error {
	if !l.Bounds.Contains(at) {
		return fmt.Errorf("gatelayout: %v outside bounds %dx%d", at, l.Bounds.Width(), l.Bounds.Height())
	}
	if len(t.Ins) != t.Func.NumIns() {
		return fmt.Errorf("gatelayout: %v at %v needs %d inputs, got %d", t.Func, at, t.Func.NumIns(), len(t.Ins))
	}
	if len(t.Outs) != t.Func.NumOuts() {
		return fmt.Errorf("gatelayout: %v at %v needs %d outputs, got %d", t.Func, at, t.Func.NumOuts(), len(t.Outs))
	}
	l.tiles[at] = t
	return nil
}

// At returns the tile at the coordinate and whether one exists.
func (l *Layout) At(at hexgrid.Offset) (Tile, bool) {
	t, ok := l.tiles[at]
	return t, ok
}

// Tiles returns all occupied coordinates in row-major order.
func (l *Layout) Tiles() []hexgrid.Offset {
	out := make([]hexgrid.Offset, 0, len(l.tiles))
	for at := range l.tiles {
		out = append(out, at)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Y != out[j].Y {
			return out[i].Y < out[j].Y
		}
		return out[i].X < out[j].X
	})
	return out
}

// NumTiles returns the number of occupied tiles.
func (l *Layout) NumTiles() int { return len(l.tiles) }

// Width returns the layout width in tiles.
func (l *Layout) Width() int { return l.Bounds.Width() }

// Height returns the layout height in tiles.
func (l *Layout) Height() int { return l.Bounds.Height() }

// Area returns w*h in tiles, as reported in Table 1.
func (l *Layout) Area() int { return l.Bounds.Area() }

// GateCounts returns a histogram of tile functions.
func (l *Layout) GateCounts() map[gates.Func]int {
	h := map[gates.Func]int{}
	for _, t := range l.tiles {
		h[t.Func]++
	}
	return h
}

// PIs returns the PI tile coordinates sorted by x (all PIs sit in row 0
// under the row-based flow).
func (l *Layout) PIs() []hexgrid.Offset {
	var out []hexgrid.Offset
	for at, t := range l.tiles {
		if t.Func == gates.PI {
			out = append(out, at)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Y != out[j].Y {
			return out[i].Y < out[j].Y
		}
		return out[i].X < out[j].X
	})
	return out
}

// POs returns the PO tile coordinates sorted by x.
func (l *Layout) POs() []hexgrid.Offset {
	var out []hexgrid.Offset
	for at, t := range l.tiles {
		if t.Func == gates.PO {
			out = append(out, at)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Y != out[j].Y {
			return out[i].Y < out[j].Y
		}
		return out[i].X < out[j].X
	})
	return out
}

// Violation is one design-rule check finding.
type Violation struct {
	At      hexgrid.Offset
	Message string
}

// String formats the violation.
func (v Violation) String() string { return fmt.Sprintf("%v: %s", v.At, v.Message) }

// Check runs the design-rule checks of §4.1 on the layout:
//
//  1. port structure: every tile's ports match its function arity, inputs
//     only on incoming (NW/NE) sides, outputs only on outgoing (SW/SE)
//     sides, wire geometry (straight vs. diagonal) consistent;
//  2. connectivity: every input port faces a neighbor output port and vice
//     versa;
//  3. clocking: every connection goes from zone z to zone (z+1) mod 4 (or
//     stays within a zone when a super-tile plan is given).
func (l *Layout) Check(st *clocking.SuperTile) []Violation {
	var out []Violation
	add := func(at hexgrid.Offset, format string, args ...interface{}) {
		out = append(out, Violation{At: at, Message: fmt.Sprintf(format, args...)})
	}
	zone := clocking.Zone
	if st != nil {
		zone = st.ExpandedZone
	}
	for at, t := range l.tiles {
		for _, d := range t.Ins {
			if !d.Incoming() {
				add(at, "input port on non-incoming side %v", d)
			}
		}
		for _, d := range t.Outs {
			if !d.Outgoing() {
				add(at, "output port on non-outgoing side %v", d)
			}
		}
		// Wire geometry: a straight wire goes NW->SE or NE->SW; a diagonal
		// wire goes NW->SW or NE->SE.
		if t.Func == gates.Wire && len(t.Ins) == 1 && len(t.Outs) == 1 {
			straight := (t.Ins[0] == hexgrid.NorthWest && t.Outs[0] == hexgrid.SouthEast) ||
				(t.Ins[0] == hexgrid.NorthEast && t.Outs[0] == hexgrid.SouthWest)
			if !straight {
				add(at, "wire tile is not straight (%v->%v); use a diagonal wire", t.Ins[0], t.Outs[0])
			}
		}
		if t.Func == gates.DiagWire && len(t.Ins) == 1 && len(t.Outs) == 1 {
			diag := (t.Ins[0] == hexgrid.NorthWest && t.Outs[0] == hexgrid.SouthWest) ||
				(t.Ins[0] == hexgrid.NorthEast && t.Outs[0] == hexgrid.SouthEast)
			if !diag {
				add(at, "diagonal wire tile is straight (%v->%v); use a wire", t.Ins[0], t.Outs[0])
			}
		}
		if t.Func == gates.Crossing {
			if !(len(t.Ins) == 2 && t.Ins[0] == hexgrid.NorthWest && t.Ins[1] == hexgrid.NorthEast &&
				t.Outs[0] == hexgrid.SouthWest && t.Outs[1] == hexgrid.SouthEast) {
				add(at, "crossing must connect NW/NE to SW/SE in order")
			}
		}
		// Connectivity and clocking per input port.
		for _, d := range t.Ins {
			nb := at.Neighbor(d)
			nt, ok := l.tiles[nb]
			if !ok {
				add(at, "input port %v faces empty tile %v", d, nb)
				continue
			}
			if !hasDir(nt.Outs, d.Opposite()) {
				add(at, "input port %v not driven by %v (no matching output)", d, nb)
			}
			zFrom, zTo := zone(nb), zone(at)
			if st != nil {
				// Within a super-tile the zone may be equal; across
				// super-tiles it must advance by one phase.
				if zFrom != zTo && (zFrom+1)%clocking.NumPhases != zTo {
					add(at, "clocking violation: %v zone %d -> %v zone %d", nb, zFrom, at, zTo)
				}
			} else if (zFrom+1)%clocking.NumPhases != zTo {
				add(at, "clocking violation: %v zone %d -> %v zone %d", nb, zFrom, at, zTo)
			}
		}
		for _, d := range t.Outs {
			nb := at.Neighbor(d)
			nt, ok := l.tiles[nb]
			if !ok {
				add(at, "output port %v feeds empty tile %v", d, nb)
				continue
			}
			if !hasDir(nt.Ins, d.Opposite()) {
				add(at, "output port %v not consumed by %v", d, nb)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At.Y != out[j].At.Y {
			return out[i].At.Y < out[j].At.Y
		}
		if out[i].At.X != out[j].At.X {
			return out[i].At.X < out[j].At.X
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// hasDir reports whether the direction list contains d.
func hasDir(ds []hexgrid.Direction, d hexgrid.Direction) bool {
	for _, x := range ds {
		if x == d {
			return true
		}
	}
	return false
}

// portRef identifies a tile output port.
type portRef struct {
	at   hexgrid.Offset
	port int
}

// Simulate evaluates the layout for one input assignment (bit i = PI i in
// PIs() order) and returns the PO values (bit i = PO i in POs() order).
// The layout must be check-clean and acyclic (row-based flow guarantees
// this); unknown values propagate as false.
func (l *Layout) Simulate(input uint32) uint32 {
	vals := map[portRef]bool{}
	pis := l.PIs()
	for i, at := range pis {
		vals[portRef{at, 0}] = input>>i&1 == 1
	}
	// Evaluate row by row (row-based flow: all inputs come from row y-1 or
	// same-row evaluation is impossible since ports are N->S only).
	coords := l.Tiles()
	for _, at := range coords {
		t := l.tiles[at]
		if t.Func == gates.PI || t.Func == gates.None {
			continue
		}
		in := make([]bool, len(t.Ins))
		for i, d := range t.Ins {
			nb := at.Neighbor(d)
			nt, ok := l.tiles[nb]
			if !ok {
				continue
			}
			// Find the neighbor's port index feeding this side.
			for p, od := range nt.Outs {
				if od == d.Opposite() {
					in[i] = vals[portRef{nb, p}]
					break
				}
			}
		}
		outs := t.Func.Eval(in)
		for p, v := range outs {
			vals[portRef{at, p}] = v
		}
		if t.Func == gates.PO {
			vals[portRef{at, 0}] = in[0]
		}
	}
	var out uint32
	for i, at := range l.POs() {
		if vals[portRef{at, 0}] {
			out |= 1 << i
		}
	}
	return out
}

// ExtractNetwork converts the layout back into an XAG for SAT-based
// equivalence checking against the specification (flow step 5). PI/PO
// ordering follows PIs()/POs().
func (l *Layout) ExtractNetwork() (*network.XAG, error) {
	x := network.New()
	x.Name = l.Name + "_extracted"
	sigs := map[portRef]network.Signal{}
	for _, at := range l.PIs() {
		t := l.tiles[at]
		sigs[portRef{at, 0}] = x.NewPI(t.Name)
	}
	var poRefs []struct {
		at   hexgrid.Offset
		name string
		sig  network.Signal
	}
	for _, at := range l.Tiles() {
		t := l.tiles[at]
		if t.Func == gates.PI || t.Func == gates.None {
			continue
		}
		in := make([]network.Signal, len(t.Ins))
		for i, d := range t.Ins {
			nb := at.Neighbor(d)
			nt, ok := l.tiles[nb]
			if !ok {
				return nil, fmt.Errorf("gatelayout: %v input %v dangling", at, d)
			}
			found := false
			for p, od := range nt.Outs {
				if od == d.Opposite() {
					s, have := sigs[portRef{nb, p}]
					if !have {
						return nil, fmt.Errorf("gatelayout: %v not evaluated before %v", nb, at)
					}
					in[i] = s
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("gatelayout: %v input %v unconnected", at, d)
			}
		}
		switch t.Func {
		case gates.Wire, gates.DiagWire:
			sigs[portRef{at, 0}] = in[0]
		case gates.Inv:
			sigs[portRef{at, 0}] = in[0].Not()
		case gates.Fanout:
			sigs[portRef{at, 0}] = in[0]
			sigs[portRef{at, 1}] = in[0]
		case gates.Crossing:
			sigs[portRef{at, 0}] = in[1]
			sigs[portRef{at, 1}] = in[0]
		case gates.And:
			sigs[portRef{at, 0}] = x.And(in[0], in[1])
		case gates.Or:
			sigs[portRef{at, 0}] = x.Or(in[0], in[1])
		case gates.Nand:
			sigs[portRef{at, 0}] = x.Nand(in[0], in[1])
		case gates.Nor:
			sigs[portRef{at, 0}] = x.Nor(in[0], in[1])
		case gates.Xor:
			sigs[portRef{at, 0}] = x.Xor(in[0], in[1])
		case gates.Xnor:
			sigs[portRef{at, 0}] = x.Xnor(in[0], in[1])
		case gates.HalfAdder:
			sigs[portRef{at, 0}] = x.Xor(in[0], in[1])
			sigs[portRef{at, 1}] = x.And(in[0], in[1])
		case gates.PO:
			poRefs = append(poRefs, struct {
				at   hexgrid.Offset
				name string
				sig  network.Signal
			}{at, t.Name, in[0]})
		}
	}
	// POs in POs() order.
	sort.Slice(poRefs, func(i, j int) bool {
		if poRefs[i].at.Y != poRefs[j].at.Y {
			return poRefs[i].at.Y < poRefs[j].at.Y
		}
		return poRefs[i].at.X < poRefs[j].at.X
	})
	for _, po := range poRefs {
		x.NewPO(po.sig, po.name)
	}
	return x, nil
}

// Render draws the layout as ASCII art, one row of hexagons per text row,
// odd rows indented to suggest the offset. Tile glyphs use short function
// names.
func (l *Layout) Render() string {
	var sb strings.Builder
	glyph := map[gates.Func]string{
		gates.None: "  .   ", gates.Wire: " wire ", gates.DiagWire: " diag ",
		gates.Inv: " inv  ", gates.Fanout: " fan  ", gates.Crossing: "  x   ",
		gates.And: " AND  ", gates.Or: "  OR  ", gates.Nand: " NAND ",
		gates.Nor: " NOR  ", gates.Xor: " XOR  ", gates.Xnor: " XNOR ",
		gates.HalfAdder: "  HA  ", gates.PI: " [in] ", gates.PO: " [out]",
	}
	for y := l.Bounds.MinY; y < l.Bounds.MaxY; y++ {
		if y%2 == 1 {
			sb.WriteString("   ")
		}
		for x := l.Bounds.MinX; x < l.Bounds.MaxX; x++ {
			t, ok := l.tiles[hexgrid.Offset{X: x, Y: y}]
			if !ok {
				sb.WriteString(glyph[gates.None])
				continue
			}
			sb.WriteString(glyph[t.Func])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// String summarizes the layout.
func (l *Layout) String() string {
	return fmt.Sprintf("%s: %dx%d = %d tiles, %d occupied (row clocking)",
		l.Name, l.Width(), l.Height(), l.Area(), l.NumTiles())
}
