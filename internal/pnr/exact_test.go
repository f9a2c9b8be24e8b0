package pnr

import (
	"context"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/gates"
	"repro/internal/hexgrid"
	"repro/internal/sat"
)

// newTestEncoder returns an encoder with a fresh solver and its constant
// false literal, ready for the cardinality helpers.
func newTestEncoder() *exactEncoder {
	e := &exactEncoder{s: sat.New()}
	e.lFalse = e.s.NewVar()
	e.s.AddClause(e.lFalse.Neg())
	return e
}

// newVars returns n fresh solver variables.
func newVars(s *sat.Solver, n int) []sat.Lit {
	lits := make([]sat.Lit, n)
	for i := range lits {
		lits[i] = s.NewVar()
	}
	return lits
}

// TestCardinalityEncodings checks the counters on every assignment of up
// to 8 literals: atMostOne admits at most one true literal, atMostTwo at
// most two, and the literal each returns is forced exactly when the count
// reaches the bound. The row-order ladder admits exactly the strictly
// increasing column placements.
func TestCardinalityEncodings(t *testing.T) {
	helpers := []struct {
		name  string
		bound int
		emit  func(*exactEncoder, []sat.Lit) sat.Lit
	}{
		{"atMostOne", 1, (*exactEncoder).atMostOne},
		{"atMostTwo", 2, (*exactEncoder).atMostTwo},
	}
	for _, h := range helpers {
		for n := 0; n <= 8; n++ {
			e := newTestEncoder()
			lits := newVars(e.s, n)
			flag := h.emit(e, lits)
			assume := make([]sat.Lit, n, n+1)
			for v := 0; v < 1<<n; v++ {
				for i, l := range lits {
					assume[i] = l.Neg()
					if v>>i&1 == 1 {
						assume[i] = l
					}
				}
				count := bits.OnesCount(uint(v))
				want := sat.Unsat
				if count <= h.bound {
					want = sat.Sat
				}
				if got := e.s.Solve(assume...); got != want {
					t.Errorf("%s n=%d vector %0*b: %v, want %v", h.name, n, n, v, got, want)
				}
				if count > h.bound {
					continue
				}
				// The flag may be false below the bound and must be true at it.
				want = sat.Sat
				if count == h.bound {
					want = sat.Unsat
				}
				if got := e.s.Solve(append(assume, flag.Neg())...); got != want {
					t.Errorf("%s n=%d vector %0*b with the flag false: %v, want %v", h.name, n, n, v, got, want)
				}
			}
		}
	}

	for k := 1; k <= 3; k++ {
		for w := 1; w <= 4; w++ {
			e := newTestEncoder()
			cols := make([][]sat.Lit, k)
			for a := range cols {
				cols[a] = newVars(e.s, w)
				e.s.AddClause(cols[a]...)
				e.atMostOne(cols[a])
			}
			for a := 0; a+1 < k; a++ {
				e.leftOf(cols[a], cols[a+1])
			}
			place := make([]int, k)
			for {
				assume := make([]sat.Lit, k)
				increasing := true
				for a, c := range place {
					assume[a] = cols[a][c]
					if a > 0 && place[a-1] >= c {
						increasing = false
					}
				}
				want := sat.Unsat
				if increasing {
					want = sat.Sat
				}
				if got := e.s.Solve(assume...); got != want {
					t.Errorf("ladder k=%d w=%d columns %v: %v, want %v", k, w, place, got, want)
				}
				// Next placement, odometer style.
				a := 0
				for a < k && place[a] == w-1 {
					place[a] = 0
					a++
				}
				if a == k {
					break
				}
				place[a]++
			}
		}
	}
}

// swapGraph returns two PIs whose signals swap sides on the way to two
// POs, so every layout has to cross them.
func swapGraph() *RGraph {
	g := &RGraph{Name: "swap"}
	a, b := g.addNode(gates.PI, "a"), g.addNode(gates.PI, "b")
	x, y := g.addNode(gates.PO, "x"), g.addNode(gates.PO, "y")
	g.addEdge(a, 0, y, 0)
	g.addEdge(b, 0, x, 0)
	g.PIs, g.POs = []int{a, b}, []int{x, y}
	return g
}

// TestDecodeRejectsBrokenTiles solves the swap graph on its 2×3 grid,
// whose only layout crosses both signals on tile (0, 1), then hands
// decode that model with the crossing bent and with a double exit. Both
// break a tile rule, so decode must fail rather than build a layout.
func TestDecodeRejectsBrokenTiles(t *testing.T) {
	g := swapGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	e := &exactEncoder{g: g, s: sat.New(), asap: g.Levels(), alap: make([]int, len(g.Nodes))}
	if !e.encode(2, 3) {
		t.Fatal("2x3 pruned")
	}
	if st := e.s.SolveContext(context.Background()); st != sat.Sat {
		t.Fatalf("2x3: %v, want SAT", st)
	}
	l, err := e.decode(e.s.Value)
	if err != nil {
		t.Fatalf("decode of the solver's model: %v", err)
	}
	cross := hexgrid.Offset{X: 0, Y: 1}
	if tile, _ := l.At(cross); tile.Func != gates.Crossing {
		t.Fatalf("tile %v is %v, want a crossing\n%s", cross, tile.Func, l.Render())
	}

	// Edge 0 (a -> y) crosses from NW to SE.
	i := 0*e.nT + e.tileIdx(cross)
	sw, se := e.out[0][i], e.out[1][i]
	for _, c := range []struct {
		name string
		set  map[sat.Lit]bool
		want string
	}{
		{"bent crossing", map[sat.Lit]bool{sw: true, se: false}, "do not cross straight"},
		{"double exit", map[sat.Lit]bool{sw: true, se: true}, "by 2 sides"},
	} {
		val := func(l sat.Lit) bool {
			if v, ok := c.set[l]; ok {
				return v
			}
			if v, ok := c.set[l.Neg()]; ok {
				return !v
			}
			return e.s.Value(l)
		}
		if _, err := e.decode(val); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decode error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
