package pnr

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/defects"
	"repro/internal/gatelayout"
	"repro/internal/gates"
	"repro/internal/hexgrid"
	"repro/internal/obs"
	"repro/internal/sat"
)

// ExactOptions tunes the SAT-based exact physical design engine.
type ExactOptions struct {
	// MaxArea bounds the explored grid areas (w*h tiles); 0 uses a default
	// derived from the network size.
	MaxArea int
	// ConflictBudget bounds each SAT call; 0 uses a default. When a call is
	// cut off the size is skipped, so the result may lose minimality but
	// stays correct.
	ConflictBudget int64
	// Blocked marks tiles afflicted by surface defects: when non-nil, no
	// node or wire may occupy a tile for which it returns true (the
	// encoding adds unit clauses negating every placement and wire
	// variable there). Offsets are absolute grid coordinates of the
	// candidate grid, anchored at (0, 0). When the search fails with a
	// blocker set, the error wraps defects.ErrBlocked.
	Blocked func(hexgrid.Offset) bool
	// Tracer receives size-search spans and SAT effort metrics; nil
	// disables telemetry at no cost.
	Tracer *obs.Tracer
}

// withDefaults fills unset fields.
func (o ExactOptions) withDefaults(g *RGraph) ExactOptions {
	if o.MaxArea == 0 {
		n := len(g.Nodes) * 4
		if n < 24 {
			n = 24
		}
		o.MaxArea = n
	}
	if o.ConflictBudget == 0 {
		o.ConflictBudget = 300000
	}
	return o
}

// Exact places and routes the graph with minimal tile area by enumerating
// grid dimensions in order of increasing area (then height) and returning
// the first that a SAT encoding of the row-based hexagonal fabric
// satisfies — the paper's flow step (4) following the exact method of
// [46], adjusted to hexagonal layouts and the Bestagon library.
//
// A layout on w×h is also one on (w+1)×h with the new column left empty
// (the first w columns keep their offsets, neighbours and blocked tiles),
// so one UNSAT at a wide width refutes every narrower width at its
// height. The size search solves such a width ahead of its turn once the
// narrow sizes it may skip have built as many variables as it is
// estimated to (ski rental, in integers, so the walk is deterministic).
// A size it skips is one the in-order walk could not have found
// satisfiable, and each formula is solved on a reset solver, so the
// result is the in-order walk's to the byte: the same size and the
// layout decoded from that size's own formula.
//
// Cancellation or deadline expiry of ctx interrupts the SAT search
// mid-solve and returns the context's error. One solver and one encoder
// serve the whole size search: each size resets them and builds its
// formula in the storage the previous size left. The encoder outlives the
// call in the idle slot, so the next call starts warm.
func Exact(ctx context.Context, g *RGraph, opts ExactOptions) (*gatelayout.Layout, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults(g)
	tr := o.Tracer
	sp := tr.Start("pnr/exact")
	defer sp.End()

	lv := g.Levels()
	cands, err := candidates(g, lv, o.MaxArea)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("candidates", len(cands))
	enc := idle.Swap(nil)
	if enc == nil { // first call, or another call holds the idle encoder
		enc = &exactEncoder{s: sat.New()}
	}
	enc.bind(g, lv, o.Blocked)
	// A panic skips the release, so the idle slot never holds an encoder
	// left in the middle of a formula.
	l, d, err := enc.search(ctx, cands, o)
	enc.g, enc.asap, enc.blocked = nil, nil, nil
	idle.Store(enc)
	switch {
	case err != nil:
		return nil, err
	case l != nil:
		sp.SetAttr("w", d.w)
		sp.SetAttr("h", d.h)
		return l, nil
	case o.Blocked != nil:
		return nil, fmt.Errorf("pnr: no exact layout within area %d for %s avoiding afflicted tiles: %w",
			o.MaxArea, g.Name, defects.ErrBlocked)
	}
	return nil, fmt.Errorf("pnr: no exact layout within area %d for %s", o.MaxArea, g.Name)
}

// candidates lists the grid sizes up to maxArea tiles that can hold the
// graph, given its node levels, in the order Exact tries them: by area,
// then by height. Every PI sits in row 0, every PO in the last row, and
// each edge advances exactly one row, so the height is at least the
// longest node path and the width at least max(#PI, #PO).
func candidates(g *RGraph, lv []int, maxArea int) ([]dims, error) {
	minH := 0
	for _, po := range g.POs {
		minH = max(minH, lv[po]+1)
	}
	minW := max(len(g.PIs), len(g.POs))
	if minW == 0 || minH == 0 {
		return nil, fmt.Errorf("pnr: degenerate graph")
	}
	var cands []dims
	for w := minW; w*minH <= maxArea; w++ {
		for h := minH; w*h <= maxArea; h++ {
			cands = append(cands, dims{w, h})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w*cands[i].h != cands[j].w*cands[j].h {
			return cands[i].w*cands[i].h < cands[j].w*cands[j].h
		}
		return cands[i].h < cands[j].h
	})
	return cands, nil
}

// bind points the encoder at a graph, its node levels and its blocked
// tiles for one size search.
func (e *exactEncoder) bind(g *RGraph, lv []int, blocked func(hexgrid.Offset) bool) {
	e.g, e.asap, e.blocked = g, lv, blocked
	e.alap = slices.Grow(e.alap[:0], len(g.Nodes))[:len(g.Nodes)]
}

// idle keeps the encoder, with its solver, of the last Exact call that
// returned, so the next call builds its formulas in storage that is
// already grown. One slot suffices for the common case of one exact
// search at a time; a concurrent call builds its own encoder, and the
// last to return keeps its encoder. A sync.Pool would be emptied by every
// garbage collection.
var idle atomic.Pointer[exactEncoder]

// search walks the candidates in order and returns the first satisfiable
// one with its layout. A nil layout with a nil error means no candidate
// fits.
//
// An UNSAT at (W, h) decides every narrower width at h, an Unknown decides
// nothing, and a pruned height is pruned at every width (see Exact for
// why this keeps the in-order walk's answer). The first try at a height
// solves the current candidate. On a later try there, the walk solves
// the widest undecided width at that height that precedes the best SAT
// so far in place of the current candidate once the variables already
// built at that height reach its estimate: the last variable count there
// × its width / the last width. A SAT there becomes the new bound, and
// the walk goes on from the current candidate.
func (e *exactEncoder) search(ctx context.Context, cands []dims, o ExactOptions) (*gatelayout.Layout, dims, error) {
	if len(cands) == 0 {
		return nil, dims{}, nil
	}
	// Heights run from the first candidate's up; the scratch is indexed
	// from there.
	minH, nH := cands[0].h, 0
	for _, d := range cands {
		nH = max(nH, d.h-minH+1)
	}
	e.heights = slices.Grow(e.heights[:0], nH)[:nH]
	clear(e.heights)
	e.tried = slices.Grow(e.tried[:0], len(cands))[:len(cands)]
	clear(e.tried)

	var found *gatelayout.Layout
	best := len(cands) // the first SAT candidate so far
	for i := 0; i < best; {
		d := cands[i]
		r := &e.heights[d.h-minH]
		if e.tried[i] || r.pruned || d.w <= r.refuted {
			i++
			continue
		}
		j := i
		if r.lastW > 0 {
			if k := e.widest(cands, i, best); r.built >= r.lastVars*cands[k].w/r.lastW {
				j = k
			}
		}
		l, status, vars, err := e.solveSize(ctx, cands[j].w, cands[j].h, o)
		if err != nil {
			return nil, cands[j], fmt.Errorf("pnr: exact %dx%d for %s: %w", cands[j].w, cands[j].h, e.g.Name, err)
		}
		e.tried[j] = true
		switch {
		case vars == 0:
			r.pruned = true
		case status == sat.Sat:
			found, best = l, j
		case status == sat.Unsat:
			r.refuted = max(r.refuted, cands[j].w)
		}
		r.built += vars
		r.lastVars, r.lastW = vars, cands[j].w
		if status != sat.Sat {
			if err := ctx.Err(); err != nil {
				return nil, cands[j], fmt.Errorf("pnr: exact search canceled: %w", err)
			}
		}
		if j == i {
			i++
		}
	}
	if found == nil {
		return nil, dims{}, nil
	}
	return found, cands[best], nil
}

// widest returns the index of the widest untried candidate at the height
// of cands[i] that precedes cands[best], or i when there is none. At one
// height the candidates run in order of width.
func (e *exactEncoder) widest(cands []dims, i, best int) int {
	for k := best - 1; k > i; k-- {
		if cands[k].h == cands[i].h && !e.tried[k] {
			return k
		}
	}
	return i
}

// heightState is the size search's record of one grid height.
type heightState struct {
	refuted int  // widest width proved UNSAT; every narrower one is too
	pruned  bool // some node has no row at this height
	built   int  // variables of every formula built at this height
	// lastVars and lastW are the variable count and width of the last
	// formula built at this height; lastW is 0 before the first.
	lastVars, lastW int
}

// dims is a candidate grid size.
type dims struct{ w, h int }

// exitSides are the two sides a tile emits through; the index is the
// out table's side and, for a two-output source, the output port.
var exitSides = [2]hexgrid.Direction{hexgrid.SouthWest, hexgrid.SouthEast}

// exactEncoder carries the SAT encoding state of the current grid size.
// The variable tables are dense, indexed id*nT + tile, where id is a node
// for x and an edge for the others; lFalse marks a tile outside the
// variable's window. Clauses are emitted in id × tile order, so one graph
// and one grid size always give the solver the same formula. The solver,
// the tables and the scratch slices are reused from size to size.
type exactEncoder struct {
	g       *RGraph
	w, h    int
	nT      int // w*h tiles
	s       *sat.Solver
	asap    []int
	alap    []int
	x       []sat.Lit    // node placed on the tile
	we      []sat.Lit    // edge wired through the tile
	out     [2][]sat.Lit // edge leaves the tile by exitSides[side]
	lFalse  sat.Lit
	blocked func(hexgrid.Offset) bool // defect-afflicted tiles; may be nil

	// Scratch for one node's placement window or one tile's node, wire or
	// side literals, and the at-most-two counter.
	lits, cnt []sat.Lit

	// The size search's record of each height (indexed from the lowest)
	// and of each candidate size that has been solved.
	heights []heightState
	tried   []bool
}

// tileIdx flattens offset coordinates.
func (e *exactEncoder) tileIdx(at hexgrid.Offset) int { return at.Y*e.w + at.X }

// tileAt reverses tileIdx.
func (e *exactEncoder) tileAt(idx int) hexgrid.Offset {
	return hexgrid.Offset{X: idx % e.w, Y: idx / e.w}
}

// inGrid reports whether the coordinate is on the grid.
func (e *exactEncoder) inGrid(at hexgrid.Offset) bool {
	return at.X >= 0 && at.X < e.w && at.Y >= 0 && at.Y < e.h
}

// nodeTiles returns the tile range [lo, hi) of a node's row window.
func (e *exactEncoder) nodeTiles(n int) (int, int) {
	lo, hi := max(e.asap[n], 1), min(e.alap[n], e.h-2)
	switch e.g.Nodes[n].Func {
	case gates.PI:
		lo, hi = 0, 0
	case gates.PO:
		lo, hi = e.h-1, e.h-1
	}
	return lo * e.w, (hi + 1) * e.w
}

// edgeTiles returns the tile range [lo, hi) of an edge's wire rows: strictly
// between its source's earliest and its destination's latest row, which
// keeps wires off the PI and PO rows.
func (e *exactEncoder) edgeTiles(eid int) (int, int) {
	ed := e.g.Edges[eid]
	return (e.asap[ed.Src] + 1) * e.w, e.alap[ed.Dst] * e.w
}

// table resizes t to ids × tiles with every entry lFalse, reusing its
// storage.
func (e *exactEncoder) table(t []sat.Lit, ids int) []sat.Lit {
	t = slices.Grow(t[:0], ids*e.nT)[:ids*e.nT]
	for i := range t {
		t[i] = e.lFalse
	}
	return t
}

// enter returns the literal "edge eid enters tile t from its parent in
// direction d" (NorthWest or NorthEast): the parent's exit by the side
// facing t. It is lFalse off the grid or where the parent cannot emit it.
func (e *exactEncoder) enter(eid, t int, d hexgrid.Direction) sat.Lit {
	p := e.tileAt(t).Neighbor(d)
	if !e.inGrid(p) {
		return e.lFalse
	}
	side := 1 // the NW parent reaches t through its SE side
	if d == hexgrid.NorthEast {
		side = 0
	}
	return e.out[side][eid*e.nT+e.tileIdx(p)]
}

// solveSize attempts one grid size, recording the (w, h) attempt and its
// SAT outcome as a size-search span, and returns the formula's variable
// count (0 for a pruned size, which builds nothing). A model that does not
// decode into a legal layout is an encoding bug and comes back as the
// error.
func (e *exactEncoder) solveSize(ctx context.Context, w, h int, o ExactOptions) (layout *gatelayout.Layout, status sat.Status, vars int, err error) {
	s, tr := e.s, o.Tracer
	sp := tr.Start("pnr/exact/size")
	defer func() {
		sp.SetAttr("status", status.String())
		sp.End()
	}()
	sp.SetAttr("w", w)
	sp.SetAttr("h", h)
	tr.Counter("pnr/exact/sizes_tried").Inc()

	if !e.encode(w, h) {
		tr.Counter("pnr/exact/sizes_pruned").Inc()
		sp.SetAttr("pruned", true)
		return nil, sat.Unsat, 0, nil
	}
	s.MaxConflicts = o.ConflictBudget
	solveStart := time.Now()
	status = s.SolveContext(ctx)
	solveSecs := time.Since(solveStart).Seconds()
	m, vars := s.Metrics(), s.NumVars()
	sp.SetAttr("vars", vars)
	sp.SetAttr("clauses", s.NumClauses())
	sp.SetAttr("conflicts", m.Conflicts)
	sp.SetAttr("decisions", m.Decisions)
	sp.SetAttr("propagations", m.Propagations)
	sp.SetAttr("restarts", m.Restarts)
	sp.SetAttr("solve_seconds", solveSecs)
	tr.Counter("sat/conflicts").Add(m.Conflicts)
	tr.Counter("sat/decisions").Add(m.Decisions)
	tr.Counter("sat/propagations").Add(m.Propagations)
	tr.Counter("sat/restarts").Add(m.Restarts)
	tr.Counter("sat/learned").Add(m.Learned)
	tr.Histogram("pnr/exact/conflicts_per_size",
		0, 10, 100, 1e3, 1e4, 1e5, 1e6).Observe(float64(m.Conflicts))
	// The per-aspect-ratio solve-time curve, split by outcome so the cost
	// of the UNSAT ramp below the first feasible area is visible apart
	// from the single SAT call that ends a search.
	tr.Histogram(obs.Labeled("pnr/exact/size_solve_seconds", "status", status.String()),
		obs.DefBuckets...).Observe(solveSecs)
	if status != sat.Sat {
		return nil, status, vars, nil
	}
	l, err := e.decode(s.Value)
	if err != nil {
		return nil, sat.Unknown, vars, err
	}
	return l, sat.Sat, vars, nil
}

// encode resets the solver and builds the formula of the w×h grid. It
// reports false, building nothing, when some node has no row left at this
// height.
func (e *exactEncoder) encode(w, h int) bool {
	// ALAP levels for this height; the ASAP levels are the graph's.
	asap, alap := e.asap, e.alap
	for i := range alap {
		alap[i] = h - 1
	}
	// Iterate ALAP to fixpoint (reverse edges).
	for changed := true; changed; {
		changed = false
		for _, ed := range e.g.Edges {
			if alap[ed.Dst]-1 < alap[ed.Src] {
				alap[ed.Src] = alap[ed.Dst] - 1
				changed = true
			}
		}
	}
	for n := range e.g.Nodes {
		if asap[n] > alap[n] {
			return false
		}
	}
	e.w, e.h, e.nT = w, h, w*h
	e.s.Reset()
	e.lFalse = e.s.NewVar()
	e.s.AddClause(e.lFalse.Neg())
	e.build()
	return true
}

// build emits the whole encoding. Every edge runs from its source to its
// destination through a chain of tiles, one row per step: each carrier
// (the source, then the edge's wires) leaves by exactly one side into the
// next tile, which absorbs the edge as a wire or as the destination.
func (e *exactEncoder) build() {
	g, s, nT := e.g, e.s, e.nT
	nE := len(g.Edges)
	e.x, e.we = e.table(e.x, len(g.Nodes)), e.table(e.we, nE)
	e.out[0], e.out[1] = e.table(e.out[0], nE), e.table(e.out[1], nE)

	// Placement variables within row windows: exactly one tile per node.
	for n := range g.Nodes {
		lo, hi := e.nodeTiles(n)
		lits := e.lits[:0]
		for t := lo; t < hi; t++ {
			v := s.NewVar()
			e.x[n*nT+t] = v
			lits = append(lits, v)
		}
		e.lits = lits
		s.AddClause(lits...)
		e.atMostOne(lits)
	}

	// Wire variables within edge windows.
	for eid := range g.Edges {
		lo, hi := e.edgeTiles(eid)
		for t := lo; t < hi; t++ {
			e.we[eid*nT+t] = s.NewVar()
		}
	}

	// Exit variables where the tile can carry the edge and the tile behind
	// the side can absorb it.
	for eid, ed := range g.Edges {
		for t := 0; t < nT; t++ {
			i := eid*nT + t
			if e.we[i] == e.lFalse && e.x[ed.Src*nT+t] == e.lFalse {
				continue
			}
			at := e.tileAt(t)
			for side, d := range exitSides {
				c := at.Neighbor(d)
				if !e.inGrid(c) {
					continue
				}
				ct := e.tileIdx(c)
				if e.we[eid*nT+ct] != e.lFalse || e.x[ed.Dst*nT+ct] != e.lFalse {
					e.out[side][i] = s.NewVar()
				}
			}
		}
	}

	for eid := range g.Edges {
		for t := 0; t < nT; t++ {
			e.exits(eid, t)
		}
	}

	// A wire arrives from one of its parents.
	for eid := range g.Edges {
		lo, hi := e.edgeTiles(eid)
		for t := lo; t < hi; t++ {
			s.AddClause(e.we[eid*nT+t].Neg(),
				e.enter(eid, t, hexgrid.NorthWest), e.enter(eid, t, hexgrid.NorthEast))
		}
	}

	// Each consumer port arrives from one parent, the two ports of a
	// two-input node from different parents.
	for n, nd := range g.Nodes {
		if nd.Func.NumIns() == 0 {
			continue
		}
		var sw sat.Lit
		if nd.Func.NumIns() == 2 {
			sw = s.NewVar()
		}
		lo, hi := e.nodeTiles(n)
		for t := lo; t < hi; t++ {
			xL := e.x[n*nT+t]
			if nd.Func.NumIns() == 1 {
				in := nd.In[0]
				s.AddClause(xL.Neg(), e.enter(in, t, hexgrid.NorthWest), e.enter(in, t, hexgrid.NorthEast))
				continue
			}
			in0, in1 := nd.In[0], nd.In[1]
			// !sw: e0 via NW, e1 via NE; sw: e0 via NE, e1 via NW.
			s.AddClause(xL.Neg(), sw, e.enter(in0, t, hexgrid.NorthWest))
			s.AddClause(xL.Neg(), sw, e.enter(in1, t, hexgrid.NorthEast))
			s.AddClause(xL.Neg(), sw.Neg(), e.enter(in0, t, hexgrid.NorthEast))
			s.AddClause(xL.Neg(), sw.Neg(), e.enter(in1, t, hexgrid.NorthWest))
		}
	}

	for t := 0; t < nT; t++ {
		e.capacity(t)
	}

	// PI and PO ordering along their rows (for positional EC).
	e.orderRow(g.PIs, 0)
	e.orderRow(g.POs, e.h-1)
}

// exits encodes how edge eid leaves tile t. A carrier (the edge's wire or
// its source) leaves by exactly one side, a two-output source by its
// port's side (0 -> SW, 1 -> SE); an exit needs the carrier here and an
// absorber (the edge's wire or its destination) behind that side, so no
// output port dangles.
func (e *exactEncoder) exits(eid, t int) {
	s, ed, i := e.s, e.g.Edges[eid], eid*e.nT+t
	weL, xL := e.we[i], e.x[ed.Src*e.nT+t]
	if weL == e.lFalse && xL == e.lFalse {
		return
	}
	o := [2]sat.Lit{e.out[0][i], e.out[1][i]}
	if weL != e.lFalse {
		s.AddClause(weL.Neg(), o[0], o[1])
	}
	if xL != e.lFalse {
		if e.g.Nodes[ed.Src].Func.NumOuts() == 2 {
			s.AddClause(xL.Neg(), o[ed.SrcPort])
		} else {
			s.AddClause(xL.Neg(), o[0], o[1])
		}
	}
	if o[0] != e.lFalse && o[1] != e.lFalse {
		s.AddClause(o[0].Neg(), o[1].Neg())
	}
	at := e.tileAt(t)
	for side, oL := range o {
		if oL == e.lFalse {
			continue
		}
		c := e.tileIdx(at.Neighbor(exitSides[side]))
		s.AddClause(oL.Neg(), weL, xL)
		s.AddClause(oL.Neg(), e.we[eid*e.nT+c], e.x[ed.Dst*e.nT+c])
	}
}

// capacity encodes what tile t may hold: at most one node, wires only
// when it hosts no node, at most two wires, and two co-located wires
// cross straight. Each side of the tile carries at most one edge, so two
// wires also enter from different sides. On an afflicted tile unit
// clauses forbid every node and wire, so propagation kills them before
// any search.
func (e *exactEncoder) capacity(t int) {
	s, nT := e.s, e.nT
	xs := e.lits[:0]
	for n := range e.g.Nodes {
		if xL := e.x[n*nT+t]; xL != e.lFalse {
			xs = append(xs, xL)
		}
	}
	e.lits = xs
	nodeAt := e.atMostOne(xs)
	blocked := e.blocked != nil && e.blocked(e.tileAt(t))
	if blocked {
		for _, l := range xs {
			s.AddClause(l.Neg())
		}
	}
	wLits := e.lits[:0]
	for eid := range e.g.Edges {
		if weL := e.we[eid*nT+t]; weL != e.lFalse {
			if nodeAt != e.lFalse {
				s.AddClause(weL.Neg(), nodeAt.Neg())
			}
			wLits = append(wLits, weL)
		}
	}
	e.lits = wLits
	// A crossing: a wire from NW leaves SE, one from NE leaves SW.
	if two := e.atMostTwo(wLits); two != e.lFalse {
		for eid := range e.g.Edges {
			i := eid*nT + t
			weL := e.we[i]
			if weL == e.lFalse {
				continue
			}
			if inNW, o := e.enter(eid, t, hexgrid.NorthWest), e.out[0][i]; inNW != e.lFalse && o != e.lFalse {
				s.AddClause(two.Neg(), weL.Neg(), inNW.Neg(), o.Neg())
			}
			if inNE, o := e.enter(eid, t, hexgrid.NorthEast), e.out[1][i]; inNE != e.lFalse && o != e.lFalse {
				s.AddClause(two.Neg(), weL.Neg(), inNE.Neg(), o.Neg())
			}
		}
	}
	if blocked {
		for _, l := range wLits {
			s.AddClause(l.Neg())
		}
	}
	for side := range exitSides {
		sides := e.lits[:0]
		for eid := range e.g.Edges {
			if oL := e.out[side][eid*nT+t]; oL != e.lFalse {
				sides = append(sides, oL)
			}
		}
		e.lits = sides
		e.atMostOne(sides)
	}
}

// atMostOne emits a sequential-counter encoding of sum(lits) <= 1 and
// returns a literal every true member implies ("some literal holds"):
// lFalse for no literals, the literal itself for one.
func (e *exactEncoder) atMostOne(lits []sat.Lit) sat.Lit {
	if len(lits) == 0 {
		return e.lFalse
	}
	s := e.s
	// some: at least one of lits[0..i].
	some := lits[0]
	for _, l := range lits[1:] {
		next := s.NewVar()
		s.AddClause(some.Neg(), next)
		s.AddClause(l.Neg(), next)
		s.AddClause(l.Neg(), some.Neg())
		some = next
	}
	return some
}

// atMostTwo emits a sequential-counter encoding of sum(lits) <= 2 and
// returns a literal implied by any two true members ("two literals
// hold"): lFalse for fewer than two literals.
func (e *exactEncoder) atMostTwo(lits []sat.Lit) sat.Lit {
	s, n := e.s, len(lits)
	switch {
	case n < 2:
		return e.lFalse
	case n == 2:
		two := s.NewVar()
		s.AddClause(lits[0].Neg(), lits[1].Neg(), two)
		return two
	}
	// s1[i]: at least one of lits[0..i]; s2[i]: at least two.
	e.cnt = slices.Grow(e.cnt[:0], 2*n)[:2*n]
	s1, s2 := e.cnt[:n], e.cnt[n:]
	for i := 0; i < n; i++ {
		s1[i] = s.NewVar()
		s2[i] = s.NewVar()
	}
	s.AddClause(lits[0].Neg(), s1[0])
	s.AddClause(s2[0].Neg())
	for i := 1; i < n; i++ {
		s.AddClause(s1[i-1].Neg(), s1[i])
		s.AddClause(lits[i].Neg(), s1[i])
		s.AddClause(s2[i-1].Neg(), s2[i])
		s.AddClause(lits[i].Neg(), s1[i-1].Neg(), s2[i])
		// Forbid a third: lits[i] with s2[i-1] already true.
		s.AddClause(lits[i].Neg(), s2[i-1].Neg())
	}
	return s2[n-1]
}

// orderRow keeps the nodes ids strictly left to right along the row.
func (e *exactEncoder) orderRow(ids []int, row int) {
	base := row * e.w
	for a := 0; a+1 < len(ids); a++ {
		e.leftOf(e.x[ids[a]*e.nT+base:][:e.w], e.x[ids[a+1]*e.nT+base:][:e.w])
	}
}

// leftOf emits "the column of a is strictly left of the column of b" for
// two one-hot column vectors of equal length, as a ladder: r_c means "a
// sits in column c or right of it", a_c implies r_c, r_c implies r_{c-1},
// and b_c forbids r_c. Column 0 is closed to b, and r_{w-1} is a_{w-1}.
func (e *exactEncoder) leftOf(a, b []sat.Lit) {
	s, w := e.s, len(a)
	s.AddClause(b[0].Neg())
	if w < 2 {
		return
	}
	r := a[w-1]
	s.AddClause(b[w-1].Neg(), r.Neg())
	for c := w - 2; c >= 1; c-- {
		next := s.NewVar()
		s.AddClause(a[c].Neg(), next)
		s.AddClause(r.Neg(), next)
		s.AddClause(b[c].Neg(), next.Neg())
		r = next
	}
}

// decode reads a model, given as the value of each literal, into a
// layout. Absent variables are lFalse, which every model sets false. It
// rejects a model that breaks a tile rule the encoding promises: one node
// or up to two wires per tile, every carrier leaving by exactly one side
// and every absorber entered from exactly one, two-input ports from
// different sides, two-output ports by their own sides, and two wires
// only as a straight NW→SE / NE→SW crossing.
func (e *exactEncoder) decode(val func(sat.Lit) bool) (*gatelayout.Layout, error) {
	g, nT := e.g, e.nT
	l := gatelayout.New(g.Name, e.w, e.h)

	// oneOf names the side whose literal alone is true.
	oneOf := func(what string, eid, t int, d0, d1 hexgrid.Direction, l0, l1 sat.Lit) (hexgrid.Direction, error) {
		v0, v1 := val(l0), val(l1)
		if v0 == v1 {
			n := 0
			if v0 {
				n = 2
			}
			return 0, fmt.Errorf("edge %d %s tile %v by %d sides", eid, what, e.tileAt(t), n)
		}
		if v0 {
			return d0, nil
		}
		return d1, nil
	}
	entry := func(eid, t int) (hexgrid.Direction, error) {
		return oneOf("enters", eid, t, hexgrid.NorthWest, hexgrid.NorthEast,
			e.enter(eid, t, hexgrid.NorthWest), e.enter(eid, t, hexgrid.NorthEast))
	}
	exit := func(eid, t int) (hexgrid.Direction, error) {
		i := eid*nT + t
		return oneOf("leaves", eid, t, exitSides[0], exitSides[1], e.out[0][i], e.out[1][i])
	}

	for t := 0; t < nT; t++ {
		at := e.tileAt(t)
		node := -1
		for n := range g.Nodes {
			if val(e.x[n*nT+t]) {
				if node != -1 {
					return nil, fmt.Errorf("two nodes on tile %v", at)
				}
				node = n
			}
		}
		var wires []int // edges wired through t
		for eid := range g.Edges {
			if val(e.we[eid*nT+t]) {
				wires = append(wires, eid)
			}
		}
		var tile gatelayout.Tile
		switch {
		case node >= 0 && len(wires) > 0:
			return nil, fmt.Errorf("node and wire on tile %v", at)
		case node >= 0:
			nd := g.Nodes[node]
			tile = gatelayout.Tile{Func: nd.Func, Name: nd.Name}
			for _, eid := range nd.In {
				d, err := entry(eid, t)
				if err != nil {
					return nil, err
				}
				tile.Ins = append(tile.Ins, d)
			}
			if len(tile.Ins) == 2 {
				if tile.Ins[0] == tile.Ins[1] {
					return nil, fmt.Errorf("both inputs of tile %v enter from %v", at, tile.Ins[0])
				}
				tile.Ins = []hexgrid.Direction{hexgrid.NorthWest, hexgrid.NorthEast}
			}
			for port, eid := range nd.Out {
				d, err := exit(eid, t)
				if err != nil {
					return nil, err
				}
				if len(nd.Out) == 2 && d != exitSides[port] {
					return nil, fmt.Errorf("output port %d of tile %v leaves by %v", port, at, d)
				}
				tile.Outs = append(tile.Outs, d)
			}
		case len(wires) == 0:
			continue
		case len(wires) <= 2:
			var ins, outs [2]hexgrid.Direction
			for k, eid := range wires {
				var err error
				if ins[k], err = entry(eid, t); err != nil {
					return nil, err
				}
				if outs[k], err = exit(eid, t); err != nil {
					return nil, err
				}
			}
			straight := func(k int) bool {
				return (ins[k] == hexgrid.NorthWest && outs[k] == hexgrid.SouthEast) ||
					(ins[k] == hexgrid.NorthEast && outs[k] == hexgrid.SouthWest)
			}
			if len(wires) == 1 {
				fn := gates.Wire
				if !straight(0) {
					fn = gates.DiagWire
				}
				tile = gatelayout.Tile{
					Func: fn,
					Ins:  []hexgrid.Direction{ins[0]},
					Outs: []hexgrid.Direction{outs[0]},
				}
				break
			}
			if !straight(0) || !straight(1) || ins[0] == ins[1] {
				return nil, fmt.Errorf("wires on tile %v do not cross straight: %v->%v and %v->%v",
					at, ins[0], outs[0], ins[1], outs[1])
			}
			tile = gatelayout.Tile{
				Func: gates.Crossing,
				Ins:  []hexgrid.Direction{hexgrid.NorthWest, hexgrid.NorthEast},
				Outs: []hexgrid.Direction{hexgrid.SouthWest, hexgrid.SouthEast},
			}
		default:
			return nil, fmt.Errorf("tile %v with %d wires", at, len(wires))
		}
		if err := l.Set(at, tile); err != nil {
			return nil, err
		}
	}
	return l, nil
}
