package gatelib

import (
	"fmt"

	"repro/internal/gates"
	"repro/internal/hexgrid"
	"repro/internal/lattice"
)

// This file holds the concrete Bestagon tile designs. Wire geometry comes
// from the package's pitch-validation sweep; gate cores (the Extra canvas
// dots) came from an earlier seeded stochastic design search and are
// validated by TestLibraryValidation against the Fig. 5 simulation
// parameters. cmd/gatedesigner -gate <variant> -k <k> searches a
// variant's skeleton exhaustively and prints its best canvas as c(x, y)
// literals for the canvas sets below.

// c is shorthand for a cell-coordinate lattice site.
func c(x, y int) lattice.Site { return lattice.FromCell(x, y) }

// Standard chain segments shared by the designs. All steps come from the
// validated pitch set {(0,6),(±1,6),(±2,6),(±3,6),(4,4),(±4,5),(±4,6),
// (±4,7),(±5,5),(±5,6),(±6,5),(±6,6)}.
var (
	// inNW: NW port (15,0) down to the canvas tip (24,13). Steps (4,7) and
	// (5,6) come from the validated pitch family (never shorter than
	// (4,6), which would create cheap domain-wall sites).
	inNW = []Pair{{15, 0, 1}, {19, 7, 1}, {24, 13, 1}}
	// inNE is the mirror: NE port (45,0) to tip (36,13).
	inNE = []Pair{{45, 0, -1}, {41, 7, -1}, {36, 13, -1}}
	// outSE: canvas (32,26) to the SE port pair (41,39); the border step
	// (4,7) lands on the SE neighbor's NW port (45,46).
	outSE = []Pair{{32, 26, 1}, {36, 33, 1}, {41, 39, 1}}
	// outSW is the mirror toward the SW port.
	outSW = []Pair{{28, 26, -1}, {24, 33, -1}, {19, 39, -1}}
)

// twoInDesign assembles a 2-in-1-out gate with the given canvas dots,
// output toward SE.
func twoInDesign(name string, canvas []lattice.Site) *Design {
	d := &Design{Name: name}
	d.Pairs = append(d.Pairs, inNW...)
	d.Pairs = append(d.Pairs, inNE...)
	d.Pairs = append(d.Pairs, outSE...)
	d.Extra = canvas
	d.Ins = []Pair{inNW[0], inNE[0]}
	d.Outs = []Pair{outSE[len(outSE)-1]}
	d.InDirs = []hexgrid.Direction{hexgrid.NorthWest, hexgrid.NorthEast}
	d.OutDirs = []hexgrid.Direction{hexgrid.SouthEast}
	return d
}

// oneInDesign assembles a 1-in-1-out tile (input NW, output SE).
func oneInDesign(name string, canvas []lattice.Site) *Design {
	d := &Design{Name: name}
	d.Pairs = append(d.Pairs, inNW...)
	d.Pairs = append(d.Pairs, outSE...)
	d.Extra = canvas
	d.Ins = []Pair{inNW[0]}
	d.Outs = []Pair{outSE[len(outSE)-1]}
	d.InDirs = []hexgrid.Direction{hexgrid.NorthWest}
	d.OutDirs = []hexgrid.Direction{hexgrid.SouthEast}
	return d
}

// oneInDiagDesign assembles a 1-in-1-out tile with input NW and output SW
// (the paper's "diagonal" inverter orientation).
func oneInDiagDesign(name string, canvas []lattice.Site) *Design {
	d := &Design{Name: name}
	d.Pairs = append(d.Pairs, inNW...)
	d.Pairs = append(d.Pairs, outSW...)
	d.Extra = canvas
	d.Ins = []Pair{inNW[0]}
	d.Outs = []Pair{outSW[len(outSW)-1]}
	d.InDirs = []hexgrid.Direction{hexgrid.NorthWest}
	d.OutDirs = []hexgrid.Direction{hexgrid.SouthWest}
	return d
}

// twoOutDesign assembles a 1-in-2-out or 2-in-2-out tile.
func twoOutDesign(name string, twoIn bool, canvas []lattice.Site) *Design {
	d := &Design{Name: name}
	d.Pairs = append(d.Pairs, inNW...)
	if twoIn {
		d.Pairs = append(d.Pairs, inNE...)
	}
	d.Pairs = append(d.Pairs, outSW...)
	d.Pairs = append(d.Pairs, outSE...)
	d.Extra = canvas
	if twoIn {
		d.Ins = []Pair{inNW[0], inNE[0]}
		d.InDirs = []hexgrid.Direction{hexgrid.NorthWest, hexgrid.NorthEast}
	} else {
		d.Ins = []Pair{inNW[0]}
		d.InDirs = []hexgrid.Direction{hexgrid.NorthWest}
	}
	d.Outs = []Pair{outSW[len(outSW)-1], outSE[len(outSE)-1]}
	d.OutDirs = []hexgrid.Direction{hexgrid.SouthWest, hexgrid.SouthEast}
	return d
}

// wireDesign is the straight NW->SE wire: the standard ray across the
// tile; the border step (4,7) continues seamlessly into the SE neighbor.
func wireDesign() *Design {
	steps := [][2]int{{4, 7}, {5, 6}, {4, 7}, {4, 6}, {4, 7}, {5, 6}}
	ps := chainSteps(15, 0, steps)
	d := &Design{Name: "wire_nw_se", Pairs: ps}
	d.Ins = []Pair{ps[0]}
	d.Outs = []Pair{ps[len(ps)-1]}
	d.InDirs = []hexgrid.Direction{hexgrid.NorthWest}
	d.OutDirs = []hexgrid.Direction{hexgrid.SouthEast}
	return d
}

// diagWireDesign is the diagonal NW->SW wire: entry and exit pairs on the
// west side connected by a relay-dot cloud found by the design search (a
// plain vertical BDL chain has too little directional asymmetry to hold
// both logic states at these parameters).
func diagWireDesign() *Design {
	d := &Design{Name: "diag_nw_sw"}
	first := Pair{PortWest, 0, 1}
	last := Pair{PortWest, 39, -1}
	d.Pairs = []Pair{first, last}
	d.Extra = []lattice.Site{
		c(8, 5), c(24, 9), c(22, 11), c(10, 27), c(20, 27), c(14, 29), c(14, 33),
	}
	d.Ins = []Pair{first}
	d.Outs = []Pair{last}
	d.InDirs = []hexgrid.Direction{hexgrid.NorthWest}
	d.OutDirs = []hexgrid.Direction{hexgrid.SouthWest}
	// Downstream emulation: the SW neighbor's NE stub (first two pairs'
	// back dots); the second site lies outside the tile and is used for
	// standalone validation only.
	d.OutEmu = []lattice.Site{c(PortWest, TileHeight), c(PortWest-4, TileHeight+7)}
	return d
}

// piDesign is the primary-input tile: its first pair is set by an external
// electrode (emulated by a near/far perturber) and wired to the SE port.
func piDesign() *Design {
	steps := [][2]int{{4, 7}, {4, 6}, {4, 7}, {5, 6}}
	ps := chainSteps(24, 13, steps)
	d := &Design{Name: "pi_se", Pairs: ps}
	d.Ins = []Pair{ps[0]} // driven externally
	d.Outs = []Pair{ps[len(ps)-1]}
	d.OutDirs = []hexgrid.Direction{hexgrid.SouthEast}
	return d
}

// poDesign is the primary-output tile: the NW input wire ends at a
// read-out pair guarded by the tile's own output perturber (the
// single-electron-transistor read-out site in a fabricated device).
func poDesign() *Design {
	ps := []Pair{{15, 0, 1}, {19, 7, 1}, {24, 13, 1}, {28, 20, 1}, {32, 26, 1}}
	d := &Design{Name: "po_nw", Pairs: ps}
	d.Ins = []Pair{ps[0]}
	d.Outs = []Pair{ps[len(ps)-1]} // read-out pair
	d.InDirs = []hexgrid.Direction{hexgrid.NorthWest}
	d.Perturbers = []lattice.Site{OutputPerturber(ps[len(ps)-1])}
	return d
}

// Canvas dot sets of the gate cores (see the file comment above); a nil
// set is a tile without canvas dots.
var (
	canvasAND    = []lattice.Site{c(20, 14), c(22, 28), c(24, 28)}
	canvasOR     = []lattice.Site{c(38, 14), c(36, 18), c(20, 22), c(20, 26), c(22, 28)}
	canvasNAND   = []lattice.Site{c(38, 16), c(30, 28)}
	canvasNOR    = []lattice.Site{c(24, 16), c(36, 16)}
	canvasINV    = []lattice.Site{c(34, 16), c(32, 18), c(20, 28)}
	canvasINVD   []lattice.Site
	canvasXOR    = []lattice.Site{c(32, 14), c(32, 16), c(26, 20), c(20, 22), c(26, 26)}
	canvasXNOR   = []lattice.Site{c(20, 14), c(22, 14), c(22, 16), c(18, 30)}
	canvasFANOUT []lattice.Site
	canvasCROSS  []lattice.Site
	canvasHA     []lattice.Site
)

// Variant identifies a concrete tile design for a function with specific
// port sides.
type Variant struct {
	Func    gates.Func
	InDirs  []hexgrid.Direction
	OutDirs []hexgrid.Direction
}

// Library is the Bestagon gate library: all tile designs by variant.
type Library struct {
	designs map[string]*Design
	funcs   map[string]gates.Func
}

// key builds the lookup key of a variant.
func (v Variant) key() string {
	s := v.Func.String()
	for _, d := range v.InDirs {
		s += ":i" + d.String()
	}
	for _, d := range v.OutDirs {
		s += ":o" + d.String()
	}
	return s
}

// NewLibrary assembles the complete library with all orientation variants.
func NewLibrary() *Library {
	lib := &Library{designs: map[string]*Design{}, funcs: map[string]gates.Func{}}
	add := func(f gates.Func, d *Design) {
		v := Variant{Func: f, InDirs: d.InDirs, OutDirs: d.OutDirs}
		lib.designs[v.key()] = d
		lib.funcs[v.key()] = f
	}
	addBoth := func(f gates.Func, d *Design) {
		add(f, d)
		add(f, d.Mirror(d.Name+"_m"))
	}

	addBoth(gates.Wire, wireDesign())
	addBoth(gates.DiagWire, diagWireDesign())
	addBoth(gates.Inv, oneInDesign("inv", canvasINV))
	addBoth(gates.Inv, oneInDiagDesign("invd", canvasINVD))
	addBoth(gates.And, twoInDesign("and", canvasAND))
	addBoth(gates.Or, twoInDesign("or", canvasOR))
	addBoth(gates.Nand, twoInDesign("nand", canvasNAND))
	addBoth(gates.Nor, twoInDesign("nor", canvasNOR))
	addBoth(gates.Xor, twoInDesign("xor", canvasXOR))
	addBoth(gates.Xnor, twoInDesign("xnor", canvasXNOR))
	add(gates.Fanout, twoOutDesign("fanout", false, canvasFANOUT))
	add(gates.Fanout, twoOutDesign("fanout", false, canvasFANOUT).Mirror("fanout_m"))
	add(gates.Crossing, twoOutDesign("crossing", true, canvasCROSS))
	add(gates.HalfAdder, twoOutDesign("ha", true, canvasHA))

	pi := piDesign()
	add(gates.PI, pi)
	add(gates.PI, pi.Mirror("pi_sw"))
	po := poDesign()
	add(gates.PO, po)
	add(gates.PO, po.Mirror("po_ne"))
	return lib
}

// Get returns the design for a variant.
func (lib *Library) Get(f gates.Func, ins, outs []hexgrid.Direction) (*Design, error) {
	v := Variant{Func: f, InDirs: ins, OutDirs: outs}
	d, ok := lib.designs[v.key()]
	if !ok {
		return nil, fmt.Errorf("gatelib: no design for %s", v.key())
	}
	return d, nil
}

// Design looks a variant up by its key string (as listed by Variants),
// returning the tile design and its gate function. Used by callers that
// address gates by name — e.g. the design-service /v1/simulate and
// /v1/gates endpoints — rather than by structured Variant.
func (lib *Library) Design(key string) (*Design, gates.Func, bool) {
	d, ok := lib.designs[key]
	if !ok {
		return nil, 0, false
	}
	return d, lib.funcs[key], true
}

// Variants lists all registered variant keys (sorted order not guaranteed).
func (lib *Library) Variants() []string {
	out := make([]string, 0, len(lib.designs))
	for k := range lib.designs {
		out = append(out, k)
	}
	return out
}
