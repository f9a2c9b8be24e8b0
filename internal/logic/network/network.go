// Package network implements XOR-AND-Inverter Graphs (XAGs), the logic
// representation the Bestagon design flow synthesizes from (flow step 1).
//
// An XAG is a DAG whose internal nodes compute either the AND or the XOR of
// two fan-ins; inverters are encoded as complemented edges (signals). XAGs
// were chosen by the paper because the Bestagon library natively supports
// both AND and XOR tiles, making them more compact than AIGs for
// parity-heavy circuits. The implementation mirrors mockturtle's design:
// structural hashing, constant propagation, and complement normalization.
package network

import (
	"fmt"

	"repro/internal/logic/tt"
)

// NodeKind distinguishes the node types of an XAG.
type NodeKind uint8

// Node kinds. Constant and PI nodes have no fan-ins.
const (
	KindConst NodeKind = iota // the constant-0 node (always node 0)
	KindPI                    // primary input
	KindAnd                   // 2-input AND
	KindXor                   // 2-input XOR
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case KindConst:
		return "const"
	case KindPI:
		return "pi"
	case KindAnd:
		return "and"
	case KindXor:
		return "xor"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Signal is an edge in the XAG: a node index plus a complement flag packed
// into one word. The zero Signal is the constant 0.
type Signal uint32

// MakeSignal builds a signal from a node index and complement flag.
func MakeSignal(node int, neg bool) Signal {
	s := Signal(node) << 1
	if neg {
		s |= 1
	}
	return s
}

// Node returns the node index the signal points at.
func (s Signal) Node() int { return int(s >> 1) }

// Neg reports whether the signal is complemented.
func (s Signal) Neg() bool { return s&1 == 1 }

// Not returns the complemented signal.
func (s Signal) Not() Signal { return s ^ 1 }

// NotIf complements the signal iff c is true.
func (s Signal) NotIf(c bool) Signal {
	if c {
		return s ^ 1
	}
	return s
}

// String formats the signal as "n5" or "!n5".
func (s Signal) String() string {
	if s.Neg() {
		return fmt.Sprintf("!n%d", s.Node())
	}
	return fmt.Sprintf("n%d", s.Node())
}

// node is the internal node record.
type node struct {
	kind NodeKind
	fi   [2]Signal // fan-ins for And/Xor nodes
}

// XAG is a structurally hashed XOR-AND-Inverter graph.
type XAG struct {
	Name    string
	nodes   []node
	pis     []int             // node indices of primary inputs, in creation order
	pos     []Signal          // primary output signals
	poNames []string          // names parallel to pos ("" if unnamed)
	piNames []string          // names parallel to pis ("" if unnamed)
	hash    map[[2]Signal]int // structural hashing: fan-in pair -> node (AND)
	hashX   map[[2]Signal]int // structural hashing for XOR nodes
}

// New returns an empty XAG containing only the constant-0 node.
func New() *XAG {
	x := &XAG{
		nodes: []node{{kind: KindConst}},
		hash:  make(map[[2]Signal]int),
		hashX: make(map[[2]Signal]int),
	}
	return x
}

// Const returns the constant signal with value v.
func (x *XAG) Const(v bool) Signal { return MakeSignal(0, v) }

// NewPI appends a primary input with the given name and returns its signal.
func (x *XAG) NewPI(name string) Signal {
	idx := len(x.nodes)
	x.nodes = append(x.nodes, node{kind: KindPI})
	x.pis = append(x.pis, idx)
	x.piNames = append(x.piNames, name)
	return MakeSignal(idx, false)
}

// NewPO registers s as a primary output with the given name and returns its
// output index.
func (x *XAG) NewPO(s Signal, name string) int {
	x.pos = append(x.pos, s)
	x.poNames = append(x.poNames, name)
	return len(x.pos) - 1
}

// orderPair returns the canonical fan-in ordering (smaller signal first).
func orderPair(a, b Signal) [2]Signal {
	if a > b {
		a, b = b, a
	}
	return [2]Signal{a, b}
}

// And returns a signal computing a AND b, with constant propagation,
// idempotence/annihilation rules, and structural hashing.
func (x *XAG) And(a, b Signal) Signal {
	// Constant and trivial rules.
	if a.Node() == 0 {
		if a.Neg() { // a == 1
			return b
		}
		return x.Const(false)
	}
	if b.Node() == 0 {
		if b.Neg() {
			return a
		}
		return x.Const(false)
	}
	if a == b {
		return a
	}
	if a == b.Not() {
		return x.Const(false)
	}
	key := orderPair(a, b)
	if n, ok := x.hash[key]; ok {
		return MakeSignal(n, false)
	}
	idx := len(x.nodes)
	x.nodes = append(x.nodes, node{kind: KindAnd, fi: key})
	x.hash[key] = idx
	return MakeSignal(idx, false)
}

// Xor returns a signal computing a XOR b. Complements are normalized onto
// the output so the stored node always has non-complemented semantics
// captured by the pair (this keeps hashing canonical).
func (x *XAG) Xor(a, b Signal) Signal {
	// Pull complement out: (!a ^ b) == !(a ^ b).
	neg := a.Neg() != b.Neg()
	a &^= 1
	b &^= 1
	if a.Node() == 0 { // a == const0 now
		return b.NotIf(neg)
	}
	if b.Node() == 0 {
		return a.NotIf(neg)
	}
	if a == b {
		return x.Const(neg)
	}
	key := orderPair(a, b)
	if n, ok := x.hashX[key]; ok {
		return MakeSignal(n, neg)
	}
	idx := len(x.nodes)
	x.nodes = append(x.nodes, node{kind: KindXor, fi: key})
	x.hashX[key] = idx
	return MakeSignal(idx, neg)
}

// Not returns the complement of s.
func (x *XAG) Not(s Signal) Signal { return s.Not() }

// Or returns a OR b via De Morgan.
func (x *XAG) Or(a, b Signal) Signal { return x.And(a.Not(), b.Not()).Not() }

// Nand returns NOT(a AND b).
func (x *XAG) Nand(a, b Signal) Signal { return x.And(a, b).Not() }

// Nor returns NOT(a OR b).
func (x *XAG) Nor(a, b Signal) Signal { return x.Or(a, b).Not() }

// Xnor returns NOT(a XOR b).
func (x *XAG) Xnor(a, b Signal) Signal { return x.Xor(a, b).Not() }

// Mux returns (sel ? t : e).
func (x *XAG) Mux(sel, t, e Signal) Signal {
	return x.Or(x.And(sel, t), x.And(sel.Not(), e))
}

// Maj returns the majority of three signals, decomposed into XAG primitives:
// MAJ(a,b,c) = (a AND b) OR (c AND (a XOR b)).
func (x *XAG) Maj(a, b, c Signal) Signal {
	return x.Or(x.And(a, b), x.And(c, x.Xor(a, b)))
}

// NumNodes returns the total node count including constant and PIs.
func (x *XAG) NumNodes() int { return len(x.nodes) }

// NumGates returns the number of AND/XOR nodes.
func (x *XAG) NumGates() int { return len(x.nodes) - 1 - len(x.pis) }

// NumAnds returns the number of AND nodes.
func (x *XAG) NumAnds() int {
	n := 0
	for _, nd := range x.nodes {
		if nd.kind == KindAnd {
			n++
		}
	}
	return n
}

// NumXors returns the number of XOR nodes.
func (x *XAG) NumXors() int {
	n := 0
	for _, nd := range x.nodes {
		if nd.kind == KindXor {
			n++
		}
	}
	return n
}

// NumPIs returns the number of primary inputs.
func (x *XAG) NumPIs() int { return len(x.pis) }

// NumPOs returns the number of primary outputs.
func (x *XAG) NumPOs() int { return len(x.pos) }

// PI returns the signal of the i-th primary input.
func (x *XAG) PI(i int) Signal { return MakeSignal(x.pis[i], false) }

// PIName returns the name of the i-th primary input.
func (x *XAG) PIName(i int) string { return x.piNames[i] }

// PO returns the signal driving the i-th primary output.
func (x *XAG) PO(i int) Signal { return x.pos[i] }

// POName returns the name of the i-th primary output.
func (x *XAG) POName(i int) string { return x.poNames[i] }

// Kind returns the kind of node n.
func (x *XAG) Kind(n int) NodeKind { return x.nodes[n].kind }

// FanIns returns the two fan-in signals of gate node n.
func (x *XAG) FanIns(n int) (Signal, Signal) {
	nd := x.nodes[n]
	return nd.fi[0], nd.fi[1]
}

// TopoOrder returns all node indices in a topological order (fan-ins before
// fan-outs). Constants and PIs come first. Nodes not in the transitive
// fan-in of any PO are still included.
func (x *XAG) TopoOrder() []int {
	order := make([]int, len(x.nodes))
	for i := range order {
		order[i] = i // nodes are created in topological order by construction
	}
	return order
}

// Levels returns the logic depth of every node (PIs and constants at 0) and
// the overall network depth over the PO cone.
func (x *XAG) Levels() (levels []int, depth int) {
	levels = make([]int, len(x.nodes))
	for n := 1; n < len(x.nodes); n++ {
		nd := x.nodes[n]
		if nd.kind == KindAnd || nd.kind == KindXor {
			l0 := levels[nd.fi[0].Node()]
			l1 := levels[nd.fi[1].Node()]
			if l1 > l0 {
				l0 = l1
			}
			levels[n] = l0 + 1
		}
	}
	for _, po := range x.pos {
		if l := levels[po.Node()]; l > depth {
			depth = l
		}
	}
	return levels, depth
}

// FanoutCounts returns, for every node, the number of gate fan-ins plus PO
// references pointing at it.
func (x *XAG) FanoutCounts() []int {
	fo := make([]int, len(x.nodes))
	for n := 1; n < len(x.nodes); n++ {
		nd := x.nodes[n]
		if nd.kind == KindAnd || nd.kind == KindXor {
			fo[nd.fi[0].Node()]++
			fo[nd.fi[1].Node()]++
		}
	}
	for _, po := range x.pos {
		fo[po.Node()]++
	}
	return fo
}

// Simulate evaluates the network for one input assignment (bit i of input
// = value of PI i) and returns the PO values as a bit vector.
func (x *XAG) Simulate(input uint32) uint32 {
	vals := make([]bool, len(x.nodes))
	for i, p := range x.pis {
		vals[p] = (input>>i)&1 == 1
	}
	for n := 1; n < len(x.nodes); n++ {
		nd := x.nodes[n]
		switch nd.kind {
		case KindAnd:
			a := vals[nd.fi[0].Node()] != nd.fi[0].Neg()
			b := vals[nd.fi[1].Node()] != nd.fi[1].Neg()
			vals[n] = a && b
		case KindXor:
			a := vals[nd.fi[0].Node()] != nd.fi[0].Neg()
			b := vals[nd.fi[1].Node()] != nd.fi[1].Neg()
			vals[n] = a != b
		}
	}
	var out uint32
	for i, po := range x.pos {
		if vals[po.Node()] != po.Neg() {
			out |= 1 << i
		}
	}
	return out
}

// TruthTables computes the truth table of every PO over all PIs. It panics
// if the network has more than tt.MaxVars inputs.
func (x *XAG) TruthTables() []tt.TT {
	n := len(x.pis)
	if n > tt.MaxVars {
		panic(fmt.Sprintf("network: too many PIs (%d) for truth-table simulation", n))
	}
	tabs := make([]tt.TT, len(x.nodes))
	tabs[0] = tt.Const(n, false)
	for i, p := range x.pis {
		tabs[p] = tt.Var(n, i)
	}
	get := func(s Signal) tt.TT {
		t := tabs[s.Node()]
		if s.Neg() {
			return t.Not()
		}
		return t
	}
	for idx := 1; idx < len(x.nodes); idx++ {
		nd := x.nodes[idx]
		switch nd.kind {
		case KindAnd:
			tabs[idx] = get(nd.fi[0]).And(get(nd.fi[1]))
		case KindXor:
			tabs[idx] = get(nd.fi[0]).Xor(get(nd.fi[1]))
		}
	}
	out := make([]tt.TT, len(x.pos))
	for i, po := range x.pos {
		out[i] = get(po)
	}
	return out
}

// Clone returns a deep copy of the network.
func (x *XAG) Clone() *XAG {
	c := &XAG{
		Name:    x.Name,
		nodes:   append([]node(nil), x.nodes...),
		pis:     append([]int(nil), x.pis...),
		pos:     append([]Signal(nil), x.pos...),
		poNames: append([]string(nil), x.poNames...),
		piNames: append([]string(nil), x.piNames...),
		hash:    make(map[[2]Signal]int, len(x.hash)),
		hashX:   make(map[[2]Signal]int, len(x.hashX)),
	}
	for k, v := range x.hash {
		c.hash[k] = v
	}
	for k, v := range x.hashX {
		c.hashX[k] = v
	}
	return c
}

// Cleanup returns a copy of the network containing only nodes reachable from
// the POs, renumbered topologically. Dangling logic is dropped.
func (x *XAG) Cleanup() *XAG {
	c := New()
	c.Name = x.Name
	mapping := make([]Signal, len(x.nodes))
	used := make([]bool, len(x.nodes))
	var mark func(n int)
	mark = func(n int) {
		if used[n] {
			return
		}
		used[n] = true
		nd := x.nodes[n]
		if nd.kind == KindAnd || nd.kind == KindXor {
			mark(nd.fi[0].Node())
			mark(nd.fi[1].Node())
		}
	}
	for _, po := range x.pos {
		mark(po.Node())
	}
	mapping[0] = c.Const(false)
	// PIs are always kept to preserve the interface.
	for i, p := range x.pis {
		mapping[p] = c.NewPI(x.piNames[i])
		used[p] = true
	}
	for n := 1; n < len(x.nodes); n++ {
		if !used[n] {
			continue
		}
		nd := x.nodes[n]
		switch nd.kind {
		case KindAnd:
			a := mapping[nd.fi[0].Node()].NotIf(nd.fi[0].Neg())
			b := mapping[nd.fi[1].Node()].NotIf(nd.fi[1].Neg())
			mapping[n] = c.And(a, b)
		case KindXor:
			a := mapping[nd.fi[0].Node()].NotIf(nd.fi[0].Neg())
			b := mapping[nd.fi[1].Node()].NotIf(nd.fi[1].Neg())
			mapping[n] = c.Xor(a, b)
		}
	}
	for i, po := range x.pos {
		c.NewPO(mapping[po.Node()].NotIf(po.Neg()), x.poNames[i])
	}
	return c
}

// Stats summarizes the network for reporting.
type Stats struct {
	PIs, POs, Gates, Ands, Xors, Depth int
}

// Stats returns summary statistics of the network.
func (x *XAG) Stats() Stats {
	_, depth := x.Levels()
	return Stats{
		PIs:   x.NumPIs(),
		POs:   x.NumPOs(),
		Gates: x.NumGates(),
		Ands:  x.NumAnds(),
		Xors:  x.NumXors(),
		Depth: depth,
	}
}

// String renders a short description.
func (x *XAG) String() string {
	s := x.Stats()
	return fmt.Sprintf("%s: %d PIs, %d POs, %d gates (%d AND, %d XOR), depth %d",
		x.Name, s.PIs, s.POs, s.Gates, s.Ands, s.Xors, s.Depth)
}

// ToAIG returns an AND-Inverter-Graph version of the network: every XOR
// node is decomposed into three AND nodes (x XOR y = NOT(NOT(x AND NOT y)
// AND NOT(NOT x AND y))). The paper picked XAGs over AIGs because the
// Bestagon library natively supports XOR tiles (§4.2, footnote 1); this
// conversion enables quantifying that choice.
func (x *XAG) ToAIG() *XAG {
	c := New()
	c.Name = x.Name + "_aig"
	mapping := make([]Signal, len(x.nodes))
	mapping[0] = c.Const(false)
	for i := 0; i < x.NumPIs(); i++ {
		mapping[x.PI(i).Node()] = c.NewPI(x.PIName(i))
	}
	get := func(s Signal) Signal { return mapping[s.Node()].NotIf(s.Neg()) }
	for n := 1; n < len(x.nodes); n++ {
		switch x.nodes[n].kind {
		case KindAnd:
			a, b := x.FanIns(n)
			mapping[n] = c.And(get(a), get(b))
		case KindXor:
			a, b := x.FanIns(n)
			la, lb := get(a), get(b)
			mapping[n] = c.Or(c.And(la, lb.Not()), c.And(la.Not(), lb))
		}
	}
	for i := 0; i < x.NumPOs(); i++ {
		c.NewPO(get(x.PO(i)), x.POName(i))
	}
	return c
}
