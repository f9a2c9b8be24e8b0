// Package mapping implements technology mapping of XAGs into the Bestagon
// gate set — flow step (3) of the paper, in the spirit of the versatile
// mapping approach of Calvino et al. [8].
//
// XAG nodes carry complemented edges; the Bestagon library has no explicit
// complement, so mapping absorbs complements into gate selection (AND with
// two complemented fan-ins becomes NOR, XOR with odd fan-in parity becomes
// XNOR, ...), shares inverter tiles between consumers that need the
// opposite polarity, and fuses AND/XOR pairs over identical fan-ins into
// single-tile half adders.
package mapping

import (
	"fmt"

	"repro/internal/gates"
	"repro/internal/logic/network"
)

// Ref addresses one output port of a mapped node.
type Ref struct {
	Node int
	Port int
}

// Node is one element of the mapped netlist.
type Node struct {
	ID   int
	Func gates.Func
	Ins  []Ref
	Name string // PI/PO name, empty otherwise
}

// Net is a technology-mapped netlist over the Bestagon gate set. Nodes are
// stored in topological order.
type Net struct {
	Name  string
	Nodes []Node
	PIs   []int // node IDs in input order
	POs   []int // node IDs in output order
}

// add appends a node and returns its ID.
func (m *Net) add(f gates.Func, name string, ins ...Ref) int {
	id := len(m.Nodes)
	m.Nodes = append(m.Nodes, Node{ID: id, Func: f, Ins: ins, Name: name})
	return id
}

// NumGates counts logic gates (excluding PI/PO and routing).
func (m *Net) NumGates() int {
	n := 0
	for _, nd := range m.Nodes {
		if nd.Func.IsGate() {
			n++
		}
	}
	return n
}

// GateCounts returns a histogram of tile functions.
func (m *Net) GateCounts() map[gates.Func]int {
	h := map[gates.Func]int{}
	for _, nd := range m.Nodes {
		h[nd.Func]++
	}
	return h
}

// Simulate evaluates the mapped net for one input assignment (bit i of
// input = PI i) and returns the PO values as a bit vector.
func (m *Net) Simulate(input uint32) uint32 {
	vals := make([][]bool, len(m.Nodes))
	piIdx := 0
	for _, nd := range m.Nodes {
		switch nd.Func {
		case gates.PI:
			vals[nd.ID] = []bool{input>>piIdx&1 == 1}
			piIdx++
		case gates.None:
			vals[nd.ID] = nil
		default:
			in := make([]bool, len(nd.Ins))
			for i, r := range nd.Ins {
				in[i] = vals[r.Node][r.Port]
			}
			vals[nd.ID] = nd.Func.Eval(in)
			if nd.Func == gates.PO {
				vals[nd.ID] = []bool{in[0]}
			}
		}
	}
	var out uint32
	for i, po := range m.POs {
		if vals[po][0] {
			out |= 1 << i
		}
	}
	return out
}

// Levels returns per-node logic levels (PIs at 0) and the overall depth.
func (m *Net) Levels() ([]int, int) {
	levels := make([]int, len(m.Nodes))
	depth := 0
	for _, nd := range m.Nodes {
		l := 0
		for _, in := range nd.Ins {
			if levels[in.Node]+1 > l {
				l = levels[in.Node] + 1
			}
		}
		levels[nd.ID] = l
		if l > depth {
			depth = l
		}
	}
	return levels, depth
}

// Stats summarizes a mapped network.
type Stats struct {
	PIs, POs, Gates, Inverters, HalfAdders, Depth int
}

// Stats returns summary statistics.
func (m *Net) Stats() Stats {
	h := m.GateCounts()
	_, depth := m.Levels()
	return Stats{
		PIs:        len(m.PIs),
		POs:        len(m.POs),
		Gates:      m.NumGates(),
		Inverters:  h[gates.Inv],
		HalfAdders: h[gates.HalfAdder],
		Depth:      depth,
	}
}

// String renders a short description.
func (m *Net) String() string {
	s := m.Stats()
	return fmt.Sprintf("%s: %d PIs, %d POs, %d mapped gates (%d INV, %d HA), depth %d",
		m.Name, s.PIs, s.POs, s.Gates, s.Inverters, s.HalfAdders, s.Depth)
}

// provider tracks how an XAG node is realized in the mapped net.
type provider struct {
	ref     Ref
	negated bool // ref carries the complement of the XAG node value
	inv     Ref  // cached inverter output, valid if hasInv
	hasInv  bool
}

// Map converts an XAG into a Bestagon-mapped netlist.
func Map(x *network.XAG) (*Net, error) {
	m := &Net{Name: x.Name}
	prov := make([]provider, x.NumNodes())

	// Constant inputs are not supported by the tile library; reject early.
	// (Cleanup-ed, rewritten networks never expose constants to gates.)
	for n := 1; n < x.NumNodes(); n++ {
		if k := x.Kind(n); k == network.KindAnd || k == network.KindXor {
			a, b := x.FanIns(n)
			if a.Node() == 0 || b.Node() == 0 {
				return nil, fmt.Errorf("mapping: node %d has constant fan-in; run Cleanup first", n)
			}
		}
	}
	for i := 0; i < x.NumPOs(); i++ {
		if x.PO(i).Node() == 0 {
			return nil, fmt.Errorf("mapping: PO %d is constant; unsupported by the tile library", i)
		}
	}

	for i := 0; i < x.NumPIs(); i++ {
		name := x.PIName(i)
		if name == "" {
			name = fmt.Sprintf("pi%d", i)
		}
		id := m.add(gates.PI, name)
		m.PIs = append(m.PIs, id)
		prov[x.PI(i).Node()] = provider{ref: Ref{Node: id}}
	}

	// Reachability: only nodes in the transitive fan-in of a PO are mapped;
	// dangling logic would otherwise produce unconsumed tile outputs.
	reach := make([]bool, x.NumNodes())
	var mark func(n int)
	mark = func(n int) {
		if reach[n] {
			return
		}
		reach[n] = true
		if k := x.Kind(n); k == network.KindAnd || k == network.KindXor {
			a, b := x.FanIns(n)
			mark(a.Node())
			mark(b.Node())
		}
	}
	for i := 0; i < x.NumPOs(); i++ {
		mark(x.PO(i).Node())
	}

	// Usage statistics: how often each node is consumed positively and
	// negatively, used for output-polarity selection.
	posUse := make([]int, x.NumNodes())
	negUse := make([]int, x.NumNodes())
	countUse := func(s network.Signal) {
		if s.Neg() {
			negUse[s.Node()]++
		} else {
			posUse[s.Node()]++
		}
	}
	for n := 1; n < x.NumNodes(); n++ {
		if !reach[n] {
			continue
		}
		if k := x.Kind(n); k == network.KindAnd || k == network.KindXor {
			a, b := x.FanIns(n)
			countUse(a)
			countUse(b)
		}
	}
	for i := 0; i < x.NumPOs(); i++ {
		countUse(x.PO(i))
	}

	// Half-adder fusion: find AND/XOR pairs with identical fan-in pairs
	// (identical signals including complements). The XOR drives port 0
	// (sum), the AND port 1 (carry) — only fused when both fan-ins are
	// positive so the single tile template applies directly.
	haPair := make(map[int]int) // node -> its fusion partner (both directions)
	haDone := make(map[int]bool)
	type fiKey struct{ a, b network.Signal }
	xorByFI := map[fiKey]int{}
	for n := 1; n < x.NumNodes(); n++ {
		if reach[n] && x.Kind(n) == network.KindXor {
			a, b := x.FanIns(n)
			if !a.Neg() && !b.Neg() {
				xorByFI[fiKey{a, b}] = n
			}
		}
	}
	for n := 1; n < x.NumNodes(); n++ {
		if reach[n] && x.Kind(n) == network.KindAnd {
			a, b := x.FanIns(n)
			if !a.Neg() && !b.Neg() {
				if xn, ok := xorByFI[fiKey{a, b}]; ok {
					if _, taken := haPair[xn]; !taken {
						haPair[n] = xn
						haPair[xn] = n
					}
				}
			}
		}
	}

	// fetch returns a Ref carrying the requested polarity of XAG node n,
	// inserting (and caching) an inverter tile if needed.
	fetch := func(s network.Signal) Ref {
		p := &prov[s.Node()]
		if p.negated == s.Neg() {
			return p.ref
		}
		if !p.hasInv {
			id := m.add(gates.Inv, "", p.ref)
			p.inv = Ref{Node: id}
			p.hasInv = true
		}
		return p.inv
	}

	for n := 1; n < x.NumNodes(); n++ {
		kind := x.Kind(n)
		if kind != network.KindAnd && kind != network.KindXor {
			continue
		}
		if haDone[n] || !reach[n] {
			continue
		}
		a, b := x.FanIns(n)

		// Half-adder fusion: fuse at whichever partner is visited first
		// (both share the same fan-ins, so the fan-ins are already mapped).
		if pn, ok := haPair[n]; ok && !haDone[pn] {
			andNode, xorNode := n, pn
			if kind == network.KindXor {
				andNode, xorNode = pn, n
			}
			ra, rb := fetch(a), fetch(b)
			id := m.add(gates.HalfAdder, "", ra, rb)
			prov[xorNode] = provider{ref: Ref{Node: id, Port: 0}}
			prov[andNode] = provider{ref: Ref{Node: id, Port: 1}}
			haDone[n], haDone[pn] = true, true
			continue
		}

		// Polarity-aware gate selection.
		emitNeg := negUse[n] > posUse[n]
		switch kind {
		case network.KindXor:
			parity := a.Neg() != b.Neg()
			ra := fetch(a.NotIf(a.Neg())) // positive forms
			rb := fetch(b.NotIf(b.Neg()))
			f := gates.Xor
			if parity != emitNeg {
				f = gates.Xnor
			}
			id := m.add(f, "", ra, rb)
			prov[n] = provider{ref: Ref{Node: id}, negated: emitNeg}
		case network.KindAnd:
			var f gates.Func
			var ra, rb Ref
			switch {
			case !a.Neg() && !b.Neg():
				ra, rb = fetch(a), fetch(b)
				if emitNeg {
					f = gates.Nand
				} else {
					f = gates.And
				}
			case a.Neg() && b.Neg():
				ra, rb = fetch(a.Not()), fetch(b.Not()) // positive forms
				if emitNeg {
					f = gates.Or // !(!a & !b) = a | b
				} else {
					f = gates.Nor
				}
			default:
				// Mixed polarity: fetch exact polarities (one inverter).
				ra, rb = fetch(a), fetch(b)
				if emitNeg {
					f = gates.Nand
				} else {
					f = gates.And
				}
			}
			id := m.add(f, "", ra, rb)
			prov[n] = provider{ref: Ref{Node: id}, negated: emitNeg}
		}
	}

	for i := 0; i < x.NumPOs(); i++ {
		name := x.POName(i)
		if name == "" {
			name = fmt.Sprintf("po%d", i)
		}
		r := fetch(x.PO(i))
		id := m.add(gates.PO, name, r)
		m.POs = append(m.POs, id)
	}
	return m, nil
}
