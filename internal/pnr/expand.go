// Package pnr implements placement & routing of technology-mapped netlists
// onto clocked hexagonal floor plans — flow step (4) of the Bestagon paper.
//
// Two engines are provided:
//
//   - Ortho: a scalable greedy router over the row-based fabric (cf. the
//     scalable method of [49], adapted to hexagons), used as a baseline and
//     as a fallback;
//   - Exact: SAT-based minimal-area placement & routing in the spirit of
//     [46] ("via some adjustments ... able to support hexagonal layout
//     topologies and the Bestagon library").
//
// Both operate on the row-based clocking fabric: every tile receives from
// its NW/NE neighbors and emits to its SW/SE neighbors, so signals advance
// exactly one row per clock phase and all paths are balanced by
// construction — yielding the paper's 1/1 throughput.
package pnr

import (
	"fmt"

	"repro/internal/gates"
	"repro/internal/logic/mapping"
)

// RNode is a node of the routing DAG: a mapped gate, I/O pin, or an
// explicit fan-out inserted by expansion.
type RNode struct {
	ID   int
	Func gates.Func
	Name string
	// In lists the driving edges, one per input port.
	In []int
	// Out lists the outgoing edges, one per output port.
	Out []int
}

// REdge is a point-to-point connection between an output port and an input
// port of the routing DAG.
type REdge struct {
	ID      int
	Src     int // node ID
	SrcPort int
	Dst     int // node ID
	DstPort int
}

// RGraph is the routing DAG: after expansion every output port drives
// exactly one input port, with fan-out realized by explicit Fanout nodes.
type RGraph struct {
	Name  string
	Nodes []RNode
	Edges []REdge
	PIs   []int // node IDs, spec order
	POs   []int // node IDs, spec order
}

// addNode appends a node.
func (g *RGraph) addNode(f gates.Func, name string) int {
	id := len(g.Nodes)
	g.Nodes = append(g.Nodes, RNode{
		ID: id, Func: f, Name: name,
		In:  make([]int, f.NumIns()),
		Out: make([]int, f.NumOuts()),
	})
	return id
}

// addEdge connects src:port to dst:inport.
func (g *RGraph) addEdge(src, srcPort, dst, dstPort int) int {
	id := len(g.Edges)
	g.Edges = append(g.Edges, REdge{ID: id, Src: src, SrcPort: srcPort, Dst: dst, DstPort: dstPort})
	g.Nodes[src].Out[srcPort] = id
	g.Nodes[dst].In[dstPort] = id
	return id
}

// Expand converts a mapped netlist into a routing DAG, inserting balanced
// binary fan-out trees so that every output port feeds exactly one input.
func Expand(m *mapping.Net) (*RGraph, error) {
	g := &RGraph{Name: m.Name}

	// First pass: create nodes for every mapped element.
	nodeOf := make(map[int]int, len(m.Nodes)) // mapped node ID -> routing node ID
	for _, nd := range m.Nodes {
		if nd.Func == gates.None {
			continue
		}
		id := g.addNode(nd.Func, nd.Name)
		nodeOf[nd.ID] = id
		switch nd.Func {
		case gates.PI:
			g.PIs = append(g.PIs, id)
		case gates.PO:
			g.POs = append(g.POs, id)
		}
	}

	// Collect consumers per output port.
	cons := map[mapping.Ref][]consumer{}
	for _, nd := range m.Nodes {
		for i, in := range nd.Ins {
			cons[in] = append(cons[in], consumer{node: nodeOf[nd.ID], port: i})
		}
	}

	// Second pass: wire outputs, building fan-out trees for multi-consumer
	// ports.
	for _, nd := range m.Nodes {
		if nd.Func == gates.None {
			continue
		}
		src := nodeOf[nd.ID]
		for p := 0; p < nd.Func.NumOuts(); p++ {
			cs := cons[mapping.Ref{Node: nd.ID, Port: p}]
			if len(cs) == 0 {
				return nil, fmt.Errorf("pnr: output %d of node %d (%v) is dangling", p, nd.ID, nd.Func)
			}
			if err := fanOut(g, src, p, cs); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// consumer identifies an input port of the routing DAG.
type consumer struct {
	node int // routing node ID
	port int
}

// fanOut connects src:port to all consumers, inserting Fanout nodes as a
// balanced binary tree when there is more than one consumer.
func fanOut(g *RGraph, src, port int, cs []consumer) error {
	if len(cs) == 1 {
		g.addEdge(src, port, cs[0].node, cs[0].port)
		return nil
	}
	// Insert one Fanout node, split consumers across its two ports.
	f := g.addNode(gates.Fanout, "")
	g.addEdge(src, port, f, 0)
	half := (len(cs) + 1) / 2
	if err := fanOut(g, f, 0, cs[:half]); err != nil {
		return err
	}
	return fanOut(g, f, 1, cs[half:])
}

// Levels returns ASAP levels per node (PIs at 0).
func (g *RGraph) Levels() []int {
	lv := make([]int, len(g.Nodes))
	// Nodes are in creation order which is topological for the mapped part,
	// but fan-outs were appended later; iterate to fixpoint (DAG, small).
	changed := true
	for changed {
		changed = false
		for _, nd := range g.Nodes {
			l := 0
			for _, e := range nd.In {
				src := g.Edges[e].Src
				if lv[src]+1 > l {
					l = lv[src] + 1
				}
			}
			if l > lv[nd.ID] {
				lv[nd.ID] = l
				changed = true
			}
		}
	}
	return lv
}

// Validate checks structural invariants of the routing DAG.
func (g *RGraph) Validate() error {
	for _, e := range g.Edges {
		if e.Src < 0 || e.Src >= len(g.Nodes) || e.Dst < 0 || e.Dst >= len(g.Nodes) {
			return fmt.Errorf("pnr: edge %d references unknown node", e.ID)
		}
		if g.Nodes[e.Src].Out[e.SrcPort] != e.ID {
			return fmt.Errorf("pnr: edge %d source port inconsistent", e.ID)
		}
		if g.Nodes[e.Dst].In[e.DstPort] != e.ID {
			return fmt.Errorf("pnr: edge %d destination port inconsistent", e.ID)
		}
	}
	for _, nd := range g.Nodes {
		for p, e := range nd.Out {
			if g.Edges[e].Src != nd.ID || g.Edges[e].SrcPort != p {
				return fmt.Errorf("pnr: node %d output %d inconsistent", nd.ID, p)
			}
		}
	}
	return nil
}
