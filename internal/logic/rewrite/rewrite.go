// Package rewrite implements cut-based logic rewriting of XAGs with an
// exact NPN database — flow step (2) of the Bestagon paper, following the
// DAG-aware rewriting approach of Riener et al. [38].
//
// For every gate, 4-feasible cuts are enumerated; each cut's local function
// is canonized and looked up in the exact-synthesis database; replacements
// whose gate cost beats the size of the node's maximal fanout-free cone are
// applied greedily until a fixpoint (or iteration cap) is reached.
package rewrite

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/logic/network"
	"repro/internal/logic/npn"
	"repro/internal/logic/tt"
)

// The cut parameters match the exact NPN database, which covers every
// function of up to four inputs.
const (
	cutSize       = 4  // maximum number of cut leaves
	cutsPerNode   = 8  // cuts kept per node
	maxIterations = 50 // bound on the greedy replacement loop
)

// Options tunes the rewriting loop.
type Options struct {
	// DB is the exact NPN database; nil allocates one over the generated
	// table (a database only tracks which classes it has served).
	DB *npn.Database
}

// RewriteContext returns a functionally equivalent network with equal or
// smaller gate count, produced by exact-NPN cut rewriting. Cancellation or
// deadline expiry interrupts the greedy loop, which polls the context at
// every node, and returns the context's error. A nil context behaves like
// context.Background.
func RewriteContext(ctx context.Context, x *network.XAG, opts Options) (*network.XAG, error) {
	db := opts.DB
	if db == nil {
		db = npn.NewDatabase(nil)
	}
	cur := x.Cleanup()
	for iter := 0; iter < maxIterations; iter++ {
		improved, next, err := rewriteOnce(ctx, cur, db)
		if err != nil {
			return cur, err
		}
		if !improved {
			return cur, nil
		}
		cur = next
	}
	return cur, nil
}

// cut is a set of leaf node indices, sorted ascending.
type cut []int

// mergeCuts unions two cuts if the result stays within k leaves.
func mergeCuts(a, b cut, k int) (cut, bool) {
	out := make(cut, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
		if len(out) > k {
			return nil, false
		}
	}
	return out, true
}

// dominates reports whether cut a is a subset of cut b (a dominates b).
func dominates(a, b cut) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j == len(b) || b[j] != v {
			return false
		}
	}
	return true
}

// enumerateCuts computes up to cutsPerNode cutSize-feasible cuts per node.
func enumerateCuts(x *network.XAG) [][]cut {
	cuts := make([][]cut, x.NumNodes())
	cuts[0] = []cut{{0}}
	for n := 1; n < x.NumNodes(); n++ {
		switch x.Kind(n) {
		case network.KindPI:
			cuts[n] = []cut{{n}}
		case network.KindAnd, network.KindXor:
			a, b := x.FanIns(n)
			var set []cut
			for _, ca := range cuts[a.Node()] {
				for _, cb := range cuts[b.Node()] {
					m, ok := mergeCuts(ca, cb, cutSize)
					if !ok {
						continue
					}
					set = append(set, m)
				}
			}
			// Always include the trivial cut.
			set = append(set, cut{n})
			set = filterCuts(set, cutsPerNode)
			cuts[n] = set
		}
	}
	return cuts
}

// filterCuts removes duplicate and dominated cuts and truncates to limit,
// preferring smaller cuts.
func filterCuts(set []cut, limit int) []cut {
	sort.Slice(set, func(i, j int) bool {
		if len(set[i]) != len(set[j]) {
			return len(set[i]) < len(set[j])
		}
		for k := range set[i] {
			if set[i][k] != set[j][k] {
				return set[i][k] < set[j][k]
			}
		}
		return false
	})
	var out []cut
	for _, c := range set {
		dup := false
		for _, kept := range out {
			if dominates(kept, c) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
		if len(out) >= limit {
			break
		}
	}
	return out
}

// cutFunction computes the local function of node root over the cut leaves.
// It returns ok=false if the cone depends on nodes outside the cut (which
// cannot happen for proper cuts, but is guarded against).
func cutFunction(x *network.XAG, root int, c cut) (tt.TT, bool) {
	k := len(c)
	tabs := map[int]tt.TT{}
	for i, leaf := range c {
		tabs[leaf] = tt.Var(k, i)
	}
	if _, isLeaf := tabs[0]; !isLeaf {
		tabs[0] = tt.Const(k, false)
	}
	var eval func(n int) (tt.TT, bool)
	eval = func(n int) (tt.TT, bool) {
		if t, ok := tabs[n]; ok {
			return t, true
		}
		kind := x.Kind(n)
		if kind != network.KindAnd && kind != network.KindXor {
			return tt.TT{}, false // PI outside the cut
		}
		a, b := x.FanIns(n)
		ta, ok := eval(a.Node())
		if !ok {
			return tt.TT{}, false
		}
		tb, ok := eval(b.Node())
		if !ok {
			return tt.TT{}, false
		}
		if a.Neg() {
			ta = ta.Not()
		}
		if b.Neg() {
			tb = tb.Not()
		}
		var t tt.TT
		if kind == network.KindAnd {
			t = ta.And(tb)
		} else {
			t = ta.Xor(tb)
		}
		tabs[n] = t
		return t, true
	}
	return eval(root)
}

// mffcSize returns the number of gates freed if root were removed: the size
// of its maximal fanout-free cone bounded by the cut leaves.
func mffcSize(x *network.XAG, root int, c cut, fanout []int) int {
	leaves := map[int]bool{}
	for _, l := range c {
		leaves[l] = true
	}
	refs := append([]int(nil), fanout...)
	count := 0
	var deref func(n int)
	deref = func(n int) {
		if leaves[n] {
			return
		}
		kind := x.Kind(n)
		if kind != network.KindAnd && kind != network.KindXor {
			return
		}
		count++
		a, b := x.FanIns(n)
		for _, f := range []int{a.Node(), b.Node()} {
			refs[f]--
			if refs[f] == 0 {
				deref(f)
			}
		}
	}
	deref(root)
	return count
}

// candidate is one profitable replacement.
type candidate struct {
	node int
	cut  cut
	st   npn.Structure
	gain int
}

// rewriteOnce finds the best replacement candidate and applies it by
// reconstruction. It reports whether the network shrank.
func rewriteOnce(ctx context.Context, x *network.XAG, db *npn.Database) (bool, *network.XAG, error) {
	cuts := enumerateCuts(x)
	fanout := x.FanoutCounts()
	poll := ctx != nil && ctx.Done() != nil
	var best *candidate
	for n := 1; n < x.NumNodes(); n++ {
		if poll && ctx.Err() != nil {
			return false, x, fmt.Errorf("rewrite: canceled: %w", ctx.Err())
		}
		kind := x.Kind(n)
		if kind != network.KindAnd && kind != network.KindXor {
			continue
		}
		for _, c := range cuts[n] {
			if len(c) == 1 && c[0] == n {
				continue // trivial cut
			}
			f, ok := cutFunction(x, n, c)
			if !ok {
				continue
			}
			st, ok := db.Lookup(f)
			if !ok {
				continue
			}
			gain := mffcSize(x, n, c, fanout) - st.Cost()
			if gain <= 0 {
				continue
			}
			if best == nil || gain > best.gain {
				cc := append(cut(nil), c...)
				best = &candidate{node: n, cut: cc, st: st, gain: gain}
			}
		}
	}
	if best == nil {
		return false, x, nil
	}
	next := applyReplacement(x, best)
	if next.NumGates() < x.NumGates() {
		return true, next, nil
	}
	return false, x, nil
}

// applyReplacement rebuilds the network, instantiating the candidate
// structure at the target node. Structural hashing in the new network
// captures DAG-aware sharing automatically.
func applyReplacement(x *network.XAG, cand *candidate) *network.XAG {
	nw := network.New()
	nw.Name = x.Name
	mapping := make([]network.Signal, x.NumNodes())
	mapping[0] = nw.Const(false)
	for i := 0; i < x.NumPIs(); i++ {
		mapping[x.PI(i).Node()] = nw.NewPI(x.PIName(i))
	}
	mapSig := func(s network.Signal) network.Signal {
		return mapping[s.Node()].NotIf(s.Neg())
	}
	for n := 1; n < x.NumNodes(); n++ {
		kind := x.Kind(n)
		if kind != network.KindAnd && kind != network.KindXor {
			continue
		}
		if n == cand.node {
			// Instantiate the replacement over the mapped cut leaves.
			leafSigs := make([]network.Signal, len(cand.cut))
			for i, l := range cand.cut {
				leafSigs[i] = mapping[l]
			}
			mapping[n] = buildStructure(nw, cand.st, leafSigs)
			continue
		}
		a, b := x.FanIns(n)
		if kind == network.KindAnd {
			mapping[n] = nw.And(mapSig(a), mapSig(b))
		} else {
			mapping[n] = nw.Xor(mapSig(a), mapSig(b))
		}
	}
	for i := 0; i < x.NumPOs(); i++ {
		nw.NewPO(mapSig(x.PO(i)), x.POName(i))
	}
	return nw.Cleanup()
}

// buildStructure instantiates a synthesized structure over leaf signals.
func buildStructure(nw *network.XAG, st npn.Structure, leaves []network.Signal) network.Signal {
	sigs := make([]network.Signal, st.NumInputs+len(st.Gates))
	copy(sigs, leaves)
	for i, g := range st.Gates {
		a := sigs[g.In0].NotIf(g.Neg0)
		b := sigs[g.In1].NotIf(g.Neg1)
		if g.IsXor {
			sigs[st.NumInputs+i] = nw.Xor(a, b)
		} else {
			sigs[st.NumInputs+i] = nw.And(a, b)
		}
	}
	if st.OutVar < 0 {
		return nw.Const(st.OutNeg)
	}
	return sigs[st.OutVar].NotIf(st.OutNeg)
}
