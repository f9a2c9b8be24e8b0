package pnr

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/defects"
	"repro/internal/gatelayout"
	"repro/internal/gates"
	"repro/internal/hexgrid"
	"repro/internal/obs"
)

// side encodes the output side a signal leaves its tile by.
type side int8

const (
	sideFree side = iota // router's choice
	sideSW               // forced south-west (lands at q-1)
	sideSE               // forced south-east (lands at q)
)

// track is a signal in flight between two rows of the fabric.
type track struct {
	edge   int    // REdge ID being routed
	srcQ   int    // axial q of the emitting tile in the previous row
	forced side   // emission side constraint from 2-output parents
	parent *ptile // emitting tile (for out-side backpatching); nil for 2-output parents
}

// ptile is a tile being assembled.
type ptile struct {
	q    int // axial column
	row  int
	fn   gates.Func
	ins  []hexgrid.Direction
	outs []hexgrid.Direction
	name string
}

// maxOrthoShift bounds how far Ortho slides a layout right to clear
// afflicted tiles.
const maxOrthoShift = 64

// Ortho places and routes the graph with the greedy row-based fabric
// router. The result uses the row-based clocking scheme; width and height
// are whatever the greedy process needs. Cancellation of ctx is checked
// between fabric rows. A nil tracer disables telemetry at no cost.
//
// On a defective surface, blocked reports the afflicted tiles (nil on a
// pristine one). Ortho then legalizes the routed layout by sliding it
// right until no used tile is afflicted: the router assigns absolute
// positions only at materialization, so a uniform x-shift preserves every
// neighbor relation and the row-based clocking. When no shift up to
// maxOrthoShift tiles clears the defects, the error wraps
// defects.ErrBlocked.
func Ortho(ctx context.Context, g *RGraph, tr *obs.Tracer, blocked func(hexgrid.Offset) bool) (*gatelayout.Layout, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	sp := tr.Start("pnr/ortho")
	r := &orthoRouter{g: g, placed: make([]bool, len(g.Nodes)), tr: tr, ctx: ctx}
	l, err := r.run()
	if err == nil {
		sp.SetAttr("rows", len(r.rows))
		sp.SetAttr("w", l.Width())
		sp.SetAttr("h", l.Height())
		sp.SetAttr("peak_tracks", r.peakTracks)
	}
	sp.End()
	if err != nil || blocked == nil {
		return l, err
	}
	tiles := l.Tiles()
	for dx := 0; dx <= maxOrthoShift; dx++ {
		clear := true
		for _, at := range tiles {
			if blocked(hexgrid.Offset{X: at.X + dx, Y: at.Y}) {
				clear = false
				break
			}
		}
		if !clear {
			continue
		}
		if dx == 0 {
			return l, nil
		}
		shifted := gatelayout.New(l.Name, l.Width()+dx, l.Height())
		for _, at := range tiles {
			tile, _ := l.At(at)
			if err := shifted.Set(hexgrid.Offset{X: at.X + dx, Y: at.Y}, tile); err != nil {
				return nil, err
			}
		}
		tr.Counter("pnr/ortho/defect_shifts").Inc()
		return shifted, nil
	}
	return nil, fmt.Errorf("pnr: ortho layout for %s cannot escape afflicted tiles within %d shifts: %w",
		g.Name, maxOrthoShift, defects.ErrBlocked)
}

type orthoRouter struct {
	g          *RGraph
	placed     []bool
	rows       [][]*ptile
	tracks     []track
	tr         *obs.Tracer
	ctx        context.Context
	peakTracks int
}

// run drives the row loop.
func (r *orthoRouter) run() (*gatelayout.Layout, error) {
	g := r.g
	// Row 0: PI tiles in spec order at q = 0..n-1.
	var row0 []*ptile
	for i, pi := range g.PIs {
		t := &ptile{q: i, row: 0, fn: gates.PI, name: g.Nodes[pi].Name}
		row0 = append(row0, t)
		r.placed[pi] = true
		r.tracks = append(r.tracks, track{edge: g.Nodes[pi].Out[0], srcQ: i, parent: t})
	}
	r.rows = append(r.rows, row0)

	maxRows := 30 + 12*len(g.Nodes)
	for rowIdx := 1; ; rowIdx++ {
		if rowIdx > maxRows {
			return nil, fmt.Errorf("pnr: ortho router exceeded %d rows on %s (livelock?)", maxRows, g.Name)
		}
		if err := r.ctx.Err(); err != nil {
			return nil, fmt.Errorf("pnr: ortho router canceled: %w", err)
		}
		if len(r.tracks) > r.peakTracks {
			r.peakTracks = len(r.tracks)
		}
		r.tr.Counter("pnr/ortho/rows").Inc()
		done, err := r.buildRow(rowIdx)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	return r.materialize()
}

// actKind enumerates row actions.
type actKind int8

const (
	actWire  actKind = iota
	actGate1         // 1-in node (Inv)
	actGate2         // 2-in node (And/Or/.../HalfAdder)
	actFanout
	actCrossing
	actPO
)

// action is one planned tile of the row being built.
type action struct {
	kind   actKind
	tracks []int // indices into r.tracks, left to right
	node   int   // routing node for placements (-1 otherwise)
	pos    int   // assigned axial q (fixed for gate2/crossing, else set later)
	posSet bool
	prefSW bool // wire landing preference
}

// twoOut reports whether the action's tile has two output ports.
func (a action) twoOut(g *RGraph) bool {
	switch a.kind {
	case actCrossing, actFanout:
		return true
	case actGate2:
		return g.Nodes[a.node].Func.NumOuts() == 2
	default:
		return false
	}
}

// buildRow plans and materializes one fabric row. It returns done=true once
// the final PO row has been emitted.
func (r *orthoRouter) buildRow(rowIdx int) (bool, error) {
	g := r.g

	// Edge -> track index.
	trackOf := map[int]int{}
	for i, t := range r.tracks {
		trackOf[t.edge] = i
	}

	// Ready nodes: unplaced, all inputs live.
	ready := map[int]bool{}
	allGatesPlaced := true
	for _, nd := range g.Nodes {
		if r.placed[nd.ID] || nd.Func == gates.PO {
			if !r.placed[nd.ID] && nd.Func != gates.PO {
				allGatesPlaced = false
			}
			continue
		}
		allGatesPlaced = false
		ok := true
		for _, e := range nd.In {
			if _, live := trackOf[e]; !live {
				ok = false
				break
			}
		}
		if ok {
			ready[nd.ID] = true
		}
	}

	// Final phase: all non-PO nodes placed and every remaining track feeds a
	// PO. Bring tracks into PO spec order, then emit the PO row.
	if allGatesPlaced {
		inOrder := true
		poRank := make(map[int]int, len(g.POs))
		for i, po := range g.POs {
			poRank[po] = i
		}
		for i := 1; i < len(r.tracks); i++ {
			if poRank[g.Edges[r.tracks[i-1].edge].Dst] > poRank[g.Edges[r.tracks[i].edge].Dst] {
				inOrder = false
				break
			}
		}
		if inOrder {
			return true, r.emitPORow(rowIdx)
		}
	}

	// Desired ordering for bubbling: group the two input tracks of each
	// ready 2-input gate into one item so that intervening tracks see an
	// inversion and bubble out of the way.
	rank := r.desiredRank(ready, trackOf, allGatesPlaced)

	// Plan actions left to right. minNext tracks the smallest feasible tile
	// position for the next action (assuming everyone packs leftmost), so
	// fixed-position actions that cannot coexist with their left context
	// are rejected up front.
	used := make([]bool, len(r.tracks))
	var plan []action
	twoOutPositions := map[int]bool{} // fixed positions of 2-output tiles
	minNext := -1 << 30

	// Forced tracks always occupy exactly their landing position (whether
	// wired down or consumed by a gate), so fixed-position actions must not
	// collide with any other track's forced landing.
	forcedLanding := map[int][]int{} // landing pos -> track indices
	for i, t := range r.tracks {
		switch t.forced {
		case sideSW:
			forcedLanding[t.srcQ-1] = append(forcedLanding[t.srcQ-1], i)
		case sideSE:
			forcedLanding[t.srcQ] = append(forcedLanding[t.srcQ], i)
		}
	}
	clashesForced := func(p int, own []int) bool {
		for _, ti := range forcedLanding[p] {
			mine := false
			for _, o := range own {
				if o == ti {
					mine = true
					break
				}
			}
			if !mine {
				return true
			}
		}
		return false
	}

	// Child-row capacity: between two 2-output tiles at p1 < p2 there are
	// only p2-p1-2 free child slots, so at most that many tiles may sit
	// between them; otherwise the next row cannot be assigned.
	lastTwoOutPos := -1 << 29
	actionsSinceTwoOut := 0

	reserveTwoOut := func(p int, own []int) bool {
		if p < minNext {
			return false
		}
		if twoOutPositions[p-1] || twoOutPositions[p] || twoOutPositions[p+1] {
			return false
		}
		if clashesForced(p, own) {
			return false
		}
		if p-lastTwoOutPos-2 < actionsSinceTwoOut {
			return false
		}
		twoOutPositions[p] = true
		lastTwoOutPos = p
		actionsSinceTwoOut = 0
		return true
	}
	// advanceFlexible accounts for a flexible tile's leftmost landing.
	advanceFlexible := func(t track) {
		low := t.srcQ - 1
		if t.forced == sideSE {
			low = t.srcQ
		}
		if low < minNext {
			low = minNext
		}
		minNext = low + 1
	}

	for i := 0; i < len(r.tracks); i++ {
		if used[i] {
			continue
		}
		t := r.tracks[i]
		e := g.Edges[t.edge]
		dst := g.Nodes[e.Dst]

		// Two-input gate placement: partner must be the next track.
		if dst.Func.NumIns() == 2 && ready[dst.ID] && i+1 < len(r.tracks) && !used[i+1] {
			t2 := r.tracks[i+1]
			if g.Edges[t2.edge].Dst == e.Dst &&
				t2.srcQ == t.srcQ+1 &&
				t.forced != sideSW && t2.forced != sideSE &&
				t.srcQ >= minNext &&
				!clashesForced(t.srcQ, []int{i, i + 1}) {
				a := action{kind: actGate2, tracks: []int{i, i + 1}, node: dst.ID, pos: t.srcQ, posSet: true}
				if !a.twoOut(g) || reserveTwoOut(t.srcQ, []int{i, i + 1}) {
					if !a.twoOut(g) {
						actionsSinceTwoOut++
					}
					plan = append(plan, a)
					used[i], used[i+1] = true, true
					minNext = t.srcQ + 1
					continue
				}
			}
		}
		// One-input placements.
		if dst.Func.NumIns() == 1 && ready[dst.ID] && dst.Func != gates.PO {
			switch dst.Func {
			case gates.Fanout:
				// Needs a reserved fixed position; use srcQ (arrive via NW).
				if t.forced != sideSW && reserveTwoOut(t.srcQ, []int{i}) {
					plan = append(plan, action{kind: actFanout, tracks: []int{i}, node: dst.ID, pos: t.srcQ, posSet: true})
					used[i] = true
					minNext = t.srcQ + 1
					continue
				}
				if t.forced != sideSE && reserveTwoOut(t.srcQ-1, []int{i}) {
					plan = append(plan, action{kind: actFanout, tracks: []int{i}, node: dst.ID, pos: t.srcQ - 1, posSet: true})
					used[i] = true
					minNext = t.srcQ
					continue
				}
			default: // Inv
				plan = append(plan, action{kind: actGate1, tracks: []int{i}, node: dst.ID})
				used[i] = true
				advanceFlexible(t)
				actionsSinceTwoOut++
				continue
			}
		}
		// Crossing for bubbling: adjacent out-of-order pair.
		if i+1 < len(r.tracks) && !used[i+1] {
			t2 := r.tracks[i+1]
			if rank[i] > rank[i+1] &&
				t2.srcQ == t.srcQ+1 &&
				t.forced != sideSW && t2.forced != sideSE &&
				t.srcQ >= minNext &&
				reserveTwoOut(t.srcQ, []int{i, i + 1}) {
				plan = append(plan, action{kind: actCrossing, tracks: []int{i, i + 1}, pos: t.srcQ, posSet: true})
				used[i], used[i+1] = true, true
				minNext = t.srcQ + 1
				continue
			}
		}
		// Plain wire. Prefer drifting SW when this track should move left:
		// either it must bubble left (rank smaller than a left neighbor's)
		// or it needs to close a q-gap with its left-side pairing partner.
		pref := false
		if i+1 < len(r.tracks) && rank[i] > rank[i+1] {
			// Out-of-order with right neighbor: the right one will prefer
			// SW next rows; keep left stable.
			pref = false
		}
		if i > 0 && rank[i] < rank[i-1] {
			pref = true // needs to move left past the left neighbor
		}
		if i > 0 && rank[i-1] < rank[i] && r.tracks[i].srcQ-r.tracks[i-1].srcQ > 1 &&
			sameDst(g, r.tracks[i-1].edge, t.edge) {
			pref = true // close the gap to the partner on the left
		}
		// Also close gaps for bubble pairs.
		if i > 0 && rank[i] < rank[i-1] && t.srcQ-r.tracks[i-1].srcQ > 1 {
			pref = true
		}
		plan = append(plan, action{kind: actWire, tracks: []int{i}, prefSW: pref})
		used[i] = true
		advanceFlexible(t)
		actionsSinceTwoOut++
	}

	if err := r.assignPositions(plan); err != nil {
		return false, err
	}
	r.materializeRow(rowIdx, plan)
	return false, nil
}

// sameDst reports whether two edges feed the same node.
func sameDst(g *RGraph, e1, e2 int) bool { return g.Edges[e1].Dst == g.Edges[e2].Dst }

// desiredRank computes the target ordering of tracks. Input tracks of a
// ready 2-input gate form one item (they must become neighbors); in the
// final phase tracks sort by PO index.
func (r *orthoRouter) desiredRank(ready map[int]bool, trackOf map[int]int, allGatesPlaced bool) []int {
	g := r.g
	n := len(r.tracks)
	rank := make([]int, n)
	if allGatesPlaced {
		poRank := make(map[int]int, len(g.POs))
		for i, po := range g.POs {
			poRank[po] = i
		}
		keys := make([]float64, n)
		for i, t := range r.tracks {
			keys[i] = float64(poRank[g.Edges[t.edge].Dst])
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		for pos, i := range idx {
			rank[i] = pos
		}
		return rank
	}
	type item struct {
		tracks []int
		key    float64
	}
	var items []item
	grouped := make([]bool, n)
	for id := range ready {
		nd := g.Nodes[id]
		if len(nd.In) != 2 {
			continue
		}
		i0, i1 := trackOf[nd.In[0]], trackOf[nd.In[1]]
		if i0 > i1 {
			i0, i1 = i1, i0
		}
		items = append(items, item{tracks: []int{i0, i1}, key: (float64(i0) + float64(i1)) / 2})
		grouped[i0], grouped[i1] = true, true
	}
	for i := 0; i < n; i++ {
		if !grouped[i] {
			items = append(items, item{tracks: []int{i}, key: float64(i)})
		}
	}
	sort.SliceStable(items, func(a, b int) bool {
		if items[a].key != items[b].key {
			return items[a].key < items[b].key
		}
		return items[a].tracks[0] < items[b].tracks[0]
	})
	pos := 0
	for _, it := range items {
		for _, tr := range it.tracks {
			rank[tr] = pos
			pos++
		}
	}
	return rank
}

// assignPositions gives every action a tile position, keeping positions
// strictly increasing left to right. Fixed positions (gate2, crossing,
// fanout) are respected; flexible tiles use a right-to-left rightmost fit
// with optional SW preference. Preferences can break rightmost-fit
// optimality, so a failed pass is retried without them.
func (r *orthoRouter) assignPositions(plan []action) error {
	if r.tryAssign(plan, true) {
		return nil
	}
	// Reset flexible assignments and retry with pure rightmost fit, which
	// succeeds whenever any assignment exists.
	for j := range plan {
		if plan[j].kind == actWire || plan[j].kind == actGate1 || plan[j].kind == actPO {
			plan[j].posSet = false
		}
	}
	if r.tryAssign(plan, false) {
		return nil
	}
	var desc []string
	for _, a := range plan {
		t := r.tracks[a.tracks[0]]
		desc = append(desc, fmt.Sprintf("{kind=%d q=%d forced=%d fixed=%v pos=%d}", a.kind, t.srcQ, t.forced, a.posSet, a.pos))
	}
	return fmt.Errorf("pnr: no feasible position assignment for row: %v", desc)
}

// tryAssign attempts a right-to-left assignment; honorPrefs enables the SW
// drift preference for flexible tiles.
func (r *orthoRouter) tryAssign(plan []action, honorPrefs bool) bool {
	const inf = int(^uint(0) >> 1)
	limit := inf
	for j := len(plan) - 1; j >= 0; j-- {
		a := &plan[j]
		if a.posSet {
			if a.pos >= limit {
				return false
			}
			limit = a.pos
			continue
		}
		t := r.tracks[a.tracks[0]]
		var options []int
		sw, se := t.srcQ-1, t.srcQ
		switch {
		case t.forced == sideSW:
			options = []int{sw}
		case t.forced == sideSE:
			options = []int{se}
		case honorPrefs && a.prefSW:
			options = []int{sw, se}
		default:
			options = []int{se, sw}
		}
		assigned := false
		for _, p := range options {
			if p < limit {
				a.pos, a.posSet = p, true
				limit = p
				assigned = true
				break
			}
		}
		if !assigned {
			return false
		}
	}
	return true
}

// backpatch records the emission side on the parent tile of a consumed
// track. Two-output parents have their sides pre-assigned.
func backpatch(t track, landing int) {
	if t.parent == nil {
		return
	}
	if landing == t.srcQ {
		t.parent.outs = append(t.parent.outs, hexgrid.SouthEast)
	} else {
		t.parent.outs = append(t.parent.outs, hexgrid.SouthWest)
	}
}

// arrivalDir returns the input side for a track landing at pos.
func arrivalDir(t track, pos int) hexgrid.Direction {
	if pos == t.srcQ {
		return hexgrid.NorthWest // parent is the NW neighbor
	}
	return hexgrid.NorthEast
}

// materializeRow creates tiles for the planned actions and computes the new
// track state.
func (r *orthoRouter) materializeRow(rowIdx int, plan []action) {
	g := r.g
	var row []*ptile
	var newTracks []track
	for _, a := range plan {
		switch a.kind {
		case actWire:
			t := r.tracks[a.tracks[0]]
			in := arrivalDir(t, a.pos)
			backpatch(t, a.pos)
			p := &ptile{q: a.pos, row: rowIdx, ins: []hexgrid.Direction{in}}
			// Function (straight vs diagonal) is fixed when the out side is
			// backpatched by the next row; temporarily mark as Wire.
			p.fn = gates.Wire
			row = append(row, p)
			newTracks = append(newTracks, track{edge: t.edge, srcQ: a.pos, parent: p})
		case actGate1:
			t := r.tracks[a.tracks[0]]
			in := arrivalDir(t, a.pos)
			backpatch(t, a.pos)
			nd := g.Nodes[a.node]
			p := &ptile{q: a.pos, row: rowIdx, fn: nd.Func, ins: []hexgrid.Direction{in}, name: nd.Name}
			row = append(row, p)
			r.placed[a.node] = true
			newTracks = append(newTracks, track{edge: nd.Out[0], srcQ: a.pos, parent: p})
		case actGate2:
			tl, tr := r.tracks[a.tracks[0]], r.tracks[a.tracks[1]]
			backpatch(tl, a.pos) // lands via NW: parent emits SE
			backpatch(tr, a.pos) // lands via NE: parent emits SW
			nd := g.Nodes[a.node]
			p := &ptile{q: a.pos, row: rowIdx, fn: nd.Func,
				ins: []hexgrid.Direction{hexgrid.NorthWest, hexgrid.NorthEast}, name: nd.Name}
			r.placed[a.node] = true
			if nd.Func.NumOuts() == 2 {
				p.outs = []hexgrid.Direction{hexgrid.SouthWest, hexgrid.SouthEast}
				newTracks = append(newTracks,
					track{edge: nd.Out[0], srcQ: a.pos, forced: sideSW},
					track{edge: nd.Out[1], srcQ: a.pos, forced: sideSE})
			} else {
				newTracks = append(newTracks, track{edge: nd.Out[0], srcQ: a.pos, parent: p})
			}
			row = append(row, p)
		case actFanout:
			t := r.tracks[a.tracks[0]]
			in := arrivalDir(t, a.pos)
			backpatch(t, a.pos)
			nd := g.Nodes[a.node]
			p := &ptile{q: a.pos, row: rowIdx, fn: gates.Fanout,
				ins:  []hexgrid.Direction{in},
				outs: []hexgrid.Direction{hexgrid.SouthWest, hexgrid.SouthEast}}
			r.placed[a.node] = true
			row = append(row, p)
			newTracks = append(newTracks,
				track{edge: nd.Out[0], srcQ: a.pos, forced: sideSW},
				track{edge: nd.Out[1], srcQ: a.pos, forced: sideSE})
		case actCrossing:
			tl, tr := r.tracks[a.tracks[0]], r.tracks[a.tracks[1]]
			backpatch(tl, a.pos)
			backpatch(tr, a.pos)
			p := &ptile{q: a.pos, row: rowIdx, fn: gates.Crossing,
				ins:  []hexgrid.Direction{hexgrid.NorthWest, hexgrid.NorthEast},
				outs: []hexgrid.Direction{hexgrid.SouthWest, hexgrid.SouthEast}}
			row = append(row, p)
			// SW output carries the NE (right) input; SE carries NW (left).
			newTracks = append(newTracks,
				track{edge: tr.edge, srcQ: a.pos, forced: sideSW},
				track{edge: tl.edge, srcQ: a.pos, forced: sideSE})
		}
	}
	r.rows = append(r.rows, row)
	r.tracks = newTracks
}

// emitPORow places all PO tiles on the final row.
func (r *orthoRouter) emitPORow(rowIdx int) error {
	g := r.g
	plan := make([]action, len(r.tracks))
	for i := range r.tracks {
		plan[i] = action{kind: actPO, tracks: []int{i}}
	}
	if err := r.assignPositions(plan); err != nil {
		return err
	}
	var row []*ptile
	for _, a := range plan {
		t := r.tracks[a.tracks[0]]
		in := arrivalDir(t, a.pos)
		backpatch(t, a.pos)
		dst := g.Nodes[g.Edges[t.edge].Dst]
		p := &ptile{q: a.pos, row: rowIdx, fn: gates.PO, ins: []hexgrid.Direction{in}, name: dst.Name}
		row = append(row, p)
		r.placed[dst.ID] = true
	}
	r.rows = append(r.rows, row)
	r.tracks = nil
	return nil
}

// materialize converts the assembled rows into a gatelayout.Layout.
func (r *orthoRouter) materialize() (*gatelayout.Layout, error) {
	// Fix wire tile functions now that their out sides are known, and
	// compute offset coordinates.
	minX, maxX := int(^uint(0)>>1), -1<<31
	type placed struct {
		at hexgrid.Offset
		t  *ptile
	}
	var all []placed
	for _, row := range r.rows {
		for _, p := range row {
			if p.fn == gates.Wire && len(p.ins) == 1 && len(p.outs) == 1 {
				straight := (p.ins[0] == hexgrid.NorthWest && p.outs[0] == hexgrid.SouthEast) ||
					(p.ins[0] == hexgrid.NorthEast && p.outs[0] == hexgrid.SouthWest)
				if !straight {
					p.fn = gates.DiagWire
				}
			}
			at := hexgrid.Axial{Q: p.q, R: p.row}.ToOffset()
			if at.X < minX {
				minX = at.X
			}
			if at.X > maxX {
				maxX = at.X
			}
			all = append(all, placed{at: at, t: p})
		}
	}
	w := maxX - minX + 1
	h := len(r.rows)
	l := gatelayout.New(r.g.Name, w, h)
	for _, pl := range all {
		at := hexgrid.Offset{X: pl.at.X - minX, Y: pl.at.Y}
		tile := gatelayout.Tile{Func: pl.t.fn, Ins: pl.t.ins, Outs: pl.t.outs, Name: pl.t.name}
		if err := l.Set(at, tile); err != nil {
			return nil, err
		}
	}
	return l, nil
}
