// Package gates defines the tile functions of the Bestagon standard-tile
// library: the Boolean operation each hexagonal tile implements, its port
// counts, and evaluation semantics. It is shared by technology mapping,
// gate-level layout, physical design, and the dot-accurate gate library.
//
// The paper's library (§4.1) offers templates for 1-in-1-out, 1-in-2-out,
// 2-in-1-out and 2-in-2-out tiles: wires (vertical, diagonal, two parallel
// verticals), wire crossings, fan-outs, single-tile half adders, inverters
// (straight and diagonal), and the 2-in-1-out gates OR, AND, NOR, NAND,
// XOR, and XNOR.
package gates

import "fmt"

// Func identifies the Boolean function of a Bestagon tile.
type Func uint8

// The tile functions of the Bestagon library.
const (
	None      Func = iota // empty tile
	Wire                  // 1-in-1-out straight (NW->SE or NE->SW) wire
	DiagWire              // 1-in-1-out diagonal (NW->SW or NE->SE) wire
	Inv                   // 1-in-1-out inverter
	Fanout                // 1-in-2-out fan-out
	Crossing              // 2-in-2-out wire crossing (NW->SE and NE->SW)
	And                   // 2-in-1-out AND
	Or                    // 2-in-1-out OR
	Nand                  // 2-in-1-out NAND
	Nor                   // 2-in-1-out NOR
	Xor                   // 2-in-1-out XOR
	Xnor                  // 2-in-1-out XNOR
	HalfAdder             // 2-in-2-out half adder (sum = XOR, carry = AND)
	PI                    // primary-input pin tile
	PO                    // primary-output pin tile
	numFuncs
)

// String names the function.
func (f Func) String() string {
	switch f {
	case None:
		return "none"
	case Wire:
		return "wire"
	case DiagWire:
		return "diag"
	case Inv:
		return "inv"
	case Fanout:
		return "fanout"
	case Crossing:
		return "crossing"
	case And:
		return "and"
	case Or:
		return "or"
	case Nand:
		return "nand"
	case Nor:
		return "nor"
	case Xor:
		return "xor"
	case Xnor:
		return "xnor"
	case HalfAdder:
		return "ha"
	case PI:
		return "pi"
	case PO:
		return "po"
	default:
		return fmt.Sprintf("Func(%d)", uint8(f))
	}
}

// NumIns returns the number of input ports of the tile function.
func (f Func) NumIns() int {
	switch f {
	case None, PI:
		return 0
	case Wire, DiagWire, Inv, Fanout, PO:
		return 1
	default:
		return 2
	}
}

// NumOuts returns the number of output ports of the tile function.
func (f Func) NumOuts() int {
	switch f {
	case None, PO:
		return 0
	case Fanout, Crossing, HalfAdder:
		return 2
	default:
		return 1
	}
}

// IsGate reports whether the function computes logic (as opposed to routing
// or I/O).
func (f Func) IsGate() bool {
	switch f {
	case Inv, And, Or, Nand, Nor, Xor, Xnor, HalfAdder:
		return true
	default:
		return false
	}
}

// Eval computes the tile outputs for the given inputs. Inputs and outputs
// are ordered: input 0 arrives at the NW port, input 1 at NE; output 0
// leaves at SW, output 1 at SE (single-port tiles use the port their layout
// variant selects; evaluation order is positional).
func (f Func) Eval(in []bool) []bool {
	switch f {
	case Wire, DiagWire, PO:
		return []bool{in[0]}
	case Inv:
		return []bool{!in[0]}
	case Fanout:
		return []bool{in[0], in[0]}
	case Crossing:
		// NW->SE and NE->SW: output 0 (SW) carries input 1 (NE).
		return []bool{in[1], in[0]}
	case And:
		return []bool{in[0] && in[1]}
	case Or:
		return []bool{in[0] || in[1]}
	case Nand:
		return []bool{!(in[0] && in[1])}
	case Nor:
		return []bool{!(in[0] || in[1])}
	case Xor:
		return []bool{in[0] != in[1]}
	case Xnor:
		return []bool{in[0] == in[1]}
	case HalfAdder:
		return []bool{in[0] != in[1], in[0] && in[1]}
	default:
		return nil
	}
}

// All lists every real tile function (excluding None).
func All() []Func {
	out := make([]Func, 0, int(numFuncs)-1)
	for f := Wire; f < numFuncs; f++ {
		out = append(out, f)
	}
	return out
}
