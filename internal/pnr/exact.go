package pnr

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/clocking"
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
	// MaxWidth/MaxHeight bound the aspect ratios; 0 means unbounded (up to
	// MaxArea).
	MaxWidth, MaxHeight int
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
// grid dimensions in order of increasing area and solving each with a SAT
// encoding of the row-based hexagonal fabric — the paper's flow step (4)
// following the exact method of [46], adjusted to hexagonal layouts and
// the Bestagon library. Cancellation or deadline expiry of ctx interrupts
// the SAT search mid-solve and returns the context's error. One solver
// and one encoder serve the whole size search: each size resets them and
// builds its formula in the storage the previous size left.
func Exact(ctx context.Context, g *RGraph, opts ExactOptions) (*gatelayout.Layout, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults(g)
	tr := o.Tracer
	sp := tr.Start("pnr/exact")
	defer sp.End()

	// Lower bounds: every PI sits in row 0, every PO in the last row, and
	// each edge advances exactly one row, so the height is the longest
	// node path and the width at least max(#PI, #PO).
	lv := g.Levels()
	minH := 0
	for _, po := range g.POs {
		if lv[po]+1 > minH {
			minH = lv[po] + 1
		}
	}
	minW := len(g.PIs)
	if len(g.POs) > minW {
		minW = len(g.POs)
	}
	if minW == 0 || minH == 0 {
		return nil, fmt.Errorf("pnr: degenerate graph")
	}

	type dims struct{ w, h int }
	var cands []dims
	maxW, maxH := o.MaxWidth, o.MaxHeight
	if maxW == 0 {
		maxW = o.MaxArea
	}
	if maxH == 0 {
		maxH = o.MaxArea
	}
	for w := minW; w <= maxW; w++ {
		for h := minH; h <= maxH; h++ {
			if w*h <= o.MaxArea {
				cands = append(cands, dims{w, h})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w*cands[i].h != cands[j].w*cands[j].h {
			return cands[i].w*cands[i].h < cands[j].w*cands[j].h
		}
		return cands[i].h < cands[j].h
	})
	sp.SetAttr("candidates", len(cands))
	enc := &exactEncoder{
		g: g, s: sat.New(),
		asap: lv, alap: make([]int, len(g.Nodes)),
		blocked: o.Blocked,
	}
	for _, d := range cands {
		l, status := enc.solveSize(ctx, d.w, d.h, o)
		if status == sat.Sat {
			sp.SetAttr("w", d.w)
			sp.SetAttr("h", d.h)
			return l, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pnr: exact search canceled: %w", err)
		}
	}
	if o.Blocked != nil {
		return nil, fmt.Errorf("pnr: no exact layout within area %d for %s avoiding afflicted tiles: %w",
			o.MaxArea, g.Name, defects.ErrBlocked)
	}
	return nil, fmt.Errorf("pnr: no exact layout within area %d for %s", o.MaxArea, g.Name)
}

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
	x       []sat.Lit // node placed on the tile
	we      []sat.Lit // edge wired through the tile
	emit    []sat.Lit // tile emits the edge (as its wire or its source)
	outSW   []sat.Lit // the emission leaves via SW (else SE)
	arrNW   []sat.Lit // edge arrives from the NW neighbor
	arrNE   []sat.Lit // edge arrives from the NE neighbor
	lFalse  sat.Lit
	blocked func(hexgrid.Offset) bool // defect-afflicted tiles; may be nil

	// Scratch for one node's placement window, one tile's node and wire
	// literals and wire table indices, and the at-most-two counter.
	all, xs, wLits, cnt []sat.Lit
	ws                  []int
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

// solveSize attempts one grid size, recording the (w, h) attempt and its
// SAT outcome as a size-search span.
func (e *exactEncoder) solveSize(ctx context.Context, w, h int, o ExactOptions) (layout *gatelayout.Layout, status sat.Status) {
	g, s, tr := e.g, e.s, o.Tracer
	sp := tr.Start("pnr/exact/size")
	defer func() {
		sp.SetAttr("status", status.String())
		sp.End()
	}()
	sp.SetAttr("w", w)
	sp.SetAttr("h", h)
	tr.Counter("pnr/exact/sizes_tried").Inc()

	// ALAP levels for this height; the ASAP levels are the graph's.
	asap, alap := e.asap, e.alap
	for i := range alap {
		alap[i] = h - 1
	}
	// Iterate ALAP to fixpoint (reverse edges).
	for changed := true; changed; {
		changed = false
		for _, ed := range g.Edges {
			if alap[ed.Dst]-1 < alap[ed.Src] {
				alap[ed.Src] = alap[ed.Dst] - 1
				changed = true
			}
		}
	}
	for n := range g.Nodes {
		if asap[n] > alap[n] {
			tr.Counter("pnr/exact/sizes_pruned").Inc()
			sp.SetAttr("pruned", true)
			return nil, sat.Unsat
		}
	}

	e.w, e.h, e.nT = w, h, w*h
	s.Reset()
	s.MaxConflicts = o.ConflictBudget
	e.lFalse = s.NewVar()
	s.AddClause(e.lFalse.Neg())
	e.build()
	solveStart := time.Now()
	status = s.SolveContext(ctx)
	solveSecs := time.Since(solveStart).Seconds()
	m := s.Metrics()
	sp.SetAttr("vars", s.NumVars())
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
		return nil, status
	}
	l, err := e.decode()
	if err != nil {
		// An encoding bug would surface here; treat as failure.
		return nil, sat.Unknown
	}
	return l, sat.Sat
}

// build emits the whole encoding.
func (e *exactEncoder) build() {
	g, s, nT := e.g, e.s, e.nT
	nE := len(g.Edges)
	e.x = e.table(e.x, len(g.Nodes))
	e.we, e.emit, e.outSW = e.table(e.we, nE), e.table(e.emit, nE), e.table(e.outSW, nE)
	e.arrNW, e.arrNE = e.table(e.arrNW, nE), e.table(e.arrNE, nE)

	// Placement variables within row windows: exactly one tile per node.
	for n := range g.Nodes {
		lo, hi := e.nodeTiles(n)
		all := e.all[:0]
		for t := lo; t < hi; t++ {
			v := s.NewVar()
			e.x[n*nT+t] = v
			all = append(all, v)
		}
		e.all = all
		s.AddClause(all...) // at least one
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				s.AddClause(all[i].Neg(), all[j].Neg())
			}
		}
	}

	// Wire variables within edge windows.
	for eid := range g.Edges {
		lo, hi := e.edgeTiles(eid)
		for t := lo; t < hi; t++ {
			e.we[eid*nT+t] = s.NewVar()
		}
	}

	// Emission sites (the edge's wire tiles and its source's placement
	// tiles) get emit/outSW; arrival sites (wire tiles and the
	// destination's placement tiles) get arrNW/arrNE.
	for eid, ed := range g.Edges {
		for t := 0; t < nT; t++ {
			i := eid*nT + t
			if e.we[i] != e.lFalse || e.x[ed.Src*nT+t] != e.lFalse {
				e.emit[i] = s.NewVar()
				e.outSW[i] = s.NewVar()
			}
			if e.we[i] != e.lFalse || e.x[ed.Dst*nT+t] != e.lFalse {
				e.arrNW[i] = s.NewVar()
				e.arrNE[i] = s.NewVar()
			}
		}
	}

	for eid := range g.Edges {
		for t := 0; t < nT; t++ {
			if e.emit[eid*nT+t] != e.lFalse {
				e.emission(eid, t)
			}
			if e.arrNW[eid*nT+t] != e.lFalse {
				e.arrival(eid, t)
			}
		}
	}

	// Consumer arrival with port-side assignment.
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
				i := nd.In[0]*nT + t
				s.AddClause(xL.Neg(), e.arrNW[i], e.arrNE[i])
				continue
			}
			i0, i1 := nd.In[0]*nT+t, nd.In[1]*nT+t
			// !sw: e0 via NW, e1 via NE; sw: e0 via NE, e1 via NW.
			s.AddClause(xL.Neg(), sw, e.arrNW[i0])
			s.AddClause(xL.Neg(), sw, e.arrNE[i1])
			s.AddClause(xL.Neg(), sw.Neg(), e.arrNE[i0])
			s.AddClause(xL.Neg(), sw.Neg(), e.arrNW[i1])
		}
	}

	for t := 0; t < nT; t++ {
		e.capacity(t)
	}

	// PI and PO ordering along their rows (for positional EC).
	orderRow := func(ids []int, row int) {
		for a := 0; a < len(ids); a++ {
			for b := a + 1; b < len(ids); b++ {
				// id[a] must be strictly left of id[b].
				for xa := 0; xa < e.w; xa++ {
					for xb := 0; xb <= xa; xb++ {
						la := e.x[ids[a]*nT+row*e.w+xa]
						lb := e.x[ids[b]*nT+row*e.w+xb]
						s.AddClause(la.Neg(), lb.Neg())
					}
				}
			}
		}
	}
	orderRow(g.PIs, 0)
	orderRow(g.POs, e.h-1)
}

// emission encodes edge eid leaving tile t. The tile emits the edge
// exactly when it carries the edge's wire or hosts its source; a
// two-output source fixes the side by port (0 -> SW, 1 -> SE); and the
// tile the emission points at must absorb it as a wire or as the
// destination node, otherwise the layout would contain dangling output
// ports.
func (e *exactEncoder) emission(eid, t int) {
	s, ed, i := e.s, e.g.Edges[eid], eid*e.nT+t
	em, outSW := e.emit[i], e.outSW[i]
	weL, xL := e.we[i], e.x[ed.Src*e.nT+t]
	s.AddClause(em.Neg(), weL, xL)
	if weL != e.lFalse {
		s.AddClause(weL.Neg(), em)
	}
	if xL != e.lFalse {
		s.AddClause(xL.Neg(), em)
		if e.g.Nodes[ed.Src].Func.NumOuts() == 2 {
			if ed.SrcPort == 0 {
				s.AddClause(xL.Neg(), outSW)
			} else {
				s.AddClause(xL.Neg(), outSW.Neg())
			}
		}
	}
	at := e.tileAt(t)
	swC := e.consume(eid, at.Neighbor(hexgrid.SouthWest))
	seC := e.consume(eid, at.Neighbor(hexgrid.SouthEast))
	// emit & outSW -> swC ; emit & !outSW -> seC.
	s.AddClause(em.Neg(), outSW.Neg(), swC)
	s.AddClause(em.Neg(), outSW, seC)
}

// consume returns an auxiliary literal implying that the child tile
// absorbs edge eid, or lFalse when it cannot.
func (e *exactEncoder) consume(eid int, child hexgrid.Offset) sat.Lit {
	if !e.inGrid(child) {
		return e.lFalse
	}
	ct := e.tileIdx(child)
	weL, xL := e.we[eid*e.nT+ct], e.x[e.g.Edges[eid].Dst*e.nT+ct]
	if weL == e.lFalse && xL == e.lFalse {
		return e.lFalse
	}
	aux := e.s.NewVar()
	e.s.AddClause(aux.Neg(), weL, xL)
	return aux
}

// arrival encodes edge eid entering tile t: arrNW needs the NW parent to
// emit the edge via SE, arrNE the NE parent via SW, and a wire continues
// from one of the two.
func (e *exactEncoder) arrival(eid, t int) {
	s, i, at := e.s, eid*e.nT+t, e.tileAt(t)
	from := func(arr sat.Lit, d hexgrid.Direction, viaSW bool) {
		p := at.Neighbor(d)
		if !e.inGrid(p) {
			s.AddClause(arr.Neg())
			return
		}
		pi := eid*e.nT + e.tileIdx(p)
		s.AddClause(arr.Neg(), e.emit[pi])
		if e.emit[pi] == e.lFalse {
			return
		}
		if viaSW {
			s.AddClause(arr.Neg(), e.outSW[pi])
		} else {
			s.AddClause(arr.Neg(), e.outSW[pi].Neg())
		}
	}
	from(e.arrNW[i], hexgrid.NorthWest, false)
	from(e.arrNE[i], hexgrid.NorthEast, true)
	if weL := e.we[i]; weL != e.lFalse {
		s.AddClause(weL.Neg(), e.arrNW[i], e.arrNE[i])
	}
}

// capacity encodes what tile t may hold: at most one node, wires only
// when it hosts no node, at most two wires (sequential counter), and two
// co-located wires enter from different sides and cross straight. On an
// afflicted tile unit clauses forbid every node and wire, so propagation
// kills them before any search.
func (e *exactEncoder) capacity(t int) {
	s, nT := e.s, e.nT
	nodeAt := s.NewVar()
	xs := e.xs[:0]
	for n := range e.g.Nodes {
		if xL := e.x[n*nT+t]; xL != e.lFalse {
			s.AddClause(xL.Neg(), nodeAt)
			xs = append(xs, xL)
		}
	}
	for i := 0; i < len(xs); i++ {
		for j := i + 1; j < len(xs); j++ {
			s.AddClause(xs[i].Neg(), xs[j].Neg())
		}
	}
	ws := e.ws[:0] // table indices of the edges with a wire variable here
	wLits := e.wLits[:0]
	for eid := range e.g.Edges {
		if weL := e.we[eid*nT+t]; weL != e.lFalse {
			s.AddClause(weL.Neg(), nodeAt.Neg())
			ws = append(ws, eid*nT+t)
			wLits = append(wLits, weL)
		}
	}
	e.xs, e.ws, e.wLits = xs, ws, wLits
	e.atMostTwo(wLits)
	for i := 0; i < len(ws); i++ {
		for j := i + 1; j < len(ws); j++ {
			a, b := ws[i], ws[j]
			w1, w2 := e.we[a], e.we[b]
			// Input sides must differ.
			s.AddClause(w1.Neg(), w2.Neg(), e.arrNW[a].Neg(), e.arrNW[b].Neg())
			s.AddClause(w1.Neg(), w2.Neg(), e.arrNE[a].Neg(), e.arrNE[b].Neg())
			// Straight crossing: NW in -> SE out; NE in -> SW out.
			for _, k := range [2]int{a, b} {
				s.AddClause(w1.Neg(), w2.Neg(), e.arrNW[k].Neg(), e.outSW[k].Neg())
				s.AddClause(w1.Neg(), w2.Neg(), e.arrNE[k].Neg(), e.outSW[k])
			}
		}
	}
	if e.blocked != nil && e.blocked(e.tileAt(t)) {
		for _, l := range xs {
			s.AddClause(l.Neg())
		}
		for _, l := range wLits {
			s.AddClause(l.Neg())
		}
	}
}

// atMostTwo emits a sequential-counter encoding of sum(lits) <= 2.
func (e *exactEncoder) atMostTwo(lits []sat.Lit) {
	s, n := e.s, len(lits)
	if n <= 2 {
		return
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
}

// decode reads the model into a layout. Absent variables are lFalse,
// which every model sets false.
func (e *exactEncoder) decode() (*gatelayout.Layout, error) {
	g, s, nT := e.g, e.s, e.nT
	l := gatelayout.New(g.Name, e.w, e.h, clocking.RowBased{})

	inDirOf := func(i int) hexgrid.Direction {
		if s.Value(e.arrNW[i]) {
			return hexgrid.NorthWest
		}
		return hexgrid.NorthEast
	}
	outDirOf := func(i int) hexgrid.Direction {
		if s.Value(e.outSW[i]) {
			return hexgrid.SouthWest
		}
		return hexgrid.SouthEast
	}

	for t := 0; t < nT; t++ {
		node := -1
		for n := range g.Nodes {
			if s.Value(e.x[n*nT+t]) {
				if node != -1 {
					return nil, fmt.Errorf("two nodes on one tile")
				}
				node = n
			}
		}
		var wires []int // table indices of the edges wired through t
		for eid := range g.Edges {
			if s.Value(e.we[eid*nT+t]) {
				wires = append(wires, eid*nT+t)
			}
		}
		var tile gatelayout.Tile
		switch {
		case node >= 0:
			nd := g.Nodes[node]
			tile = gatelayout.Tile{Func: nd.Func, Name: nd.Name}
			switch nd.Func.NumIns() {
			case 1:
				tile.Ins = []hexgrid.Direction{inDirOf(nd.In[0]*nT + t)}
			case 2:
				tile.Ins = []hexgrid.Direction{hexgrid.NorthWest, hexgrid.NorthEast}
			}
			switch nd.Func.NumOuts() {
			case 1:
				tile.Outs = []hexgrid.Direction{outDirOf(nd.Out[0]*nT + t)}
			case 2:
				tile.Outs = []hexgrid.Direction{hexgrid.SouthWest, hexgrid.SouthEast}
			}
		case len(wires) == 0:
			continue
		case len(wires) == 1:
			in, out := inDirOf(wires[0]), outDirOf(wires[0])
			fn := gates.Wire
			if (in == hexgrid.NorthWest && out == hexgrid.SouthWest) ||
				(in == hexgrid.NorthEast && out == hexgrid.SouthEast) {
				fn = gates.DiagWire
			}
			tile = gatelayout.Tile{
				Func: fn,
				Ins:  []hexgrid.Direction{in},
				Outs: []hexgrid.Direction{out},
			}
		case len(wires) == 2:
			tile = gatelayout.Tile{
				Func: gates.Crossing,
				Ins:  []hexgrid.Direction{hexgrid.NorthWest, hexgrid.NorthEast},
				Outs: []hexgrid.Direction{hexgrid.SouthWest, hexgrid.SouthEast},
			}
		default:
			return nil, fmt.Errorf("tile with %d wires", len(wires))
		}
		if err := l.Set(e.tileAt(t), tile); err != nil {
			return nil, err
		}
	}
	return l, nil
}
