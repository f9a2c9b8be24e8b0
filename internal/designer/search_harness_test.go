package designer

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/gatelib"
	"repro/internal/lattice"
	"repro/internal/sim"
)

// TestSearchOne searches a single target selected by GATE_SEARCH env var.
// Short-model targets (AND, XOR5, ...) search a gatelib.ShortModel;
// FULL_* targets refine the library design's canvas in its full tile
// (under annealing, or QuickExact when GATE_EXACT is set); DIAG searches
// the diagonal wire's relay dots.
func TestSearchOne(t *testing.T) {
	target := os.Getenv("GATE_SEARCH")
	if target == "" {
		t.Skip("set GATE_SEARCH")
	}
	byName := map[string]shortTarget{}
	for _, st := range shortTargets {
		byName[st.name] = st
	}
	short := func(name string) (*gatelib.Design, func(uint32) uint32) {
		st := byName[name]
		return st.design(), st.truth
	}
	params := sim.ParamsFig5
	opts := DefaultOptions()
	var d *gatelib.Design
	var truth func(uint32) uint32
	switch target {
	case "AND", "OR", "NAND", "NOR":
		d, truth = short(target)
	case "XOR5":
		d, truth = short("XOR")
		opts.Seed = 5
		opts.Restarts = 30
		opts.Iterations = 400
		opts.MaxDots = 6
		opts.MinDots = 2
	case "XOR", "XNOR", "FANOUT":
		d, truth = short(target)
		opts.Restarts = 16
		opts.Iterations = 300
		opts.MaxDots = 4
	case "XNOR2":
		d, truth = short("XNOR")
		opts.Seed = 7
		opts.Restarts = 30
		opts.Iterations = 400
		opts.MaxDots = 6
		opts.MinDots = 2
	case "FANOUT2":
		d, truth = short("FANOUT")
		opts.Seed = 7
		opts.Restarts = 30
		opts.Iterations = 400
		opts.MaxDots = 6
		opts.MinDots = 1
	case "OR28":
		d, truth = short("OR")
		params = sim.ParamsFig1c
		opts.Restarts = 16
		opts.Iterations = 300
		opts.MaxDots = 5
	case "INV":
		d, truth = short("INV")
		opts.Restarts = 20
		opts.Iterations = 500
		opts.MaxDots = 5
	case "INVD":
		// Diagonal inverter: NW input, SW output.
		d, truth = gatelib.ShortModel(1, true, false), func(i uint32) uint32 { return i ^ 1 }
		opts.Restarts = 24
		opts.Iterations = 500
		opts.MaxDots = 5
	case "WIRED":
		// Diagonal buffer core: NW input, SW output (replaces the vertical
		// diag wire if the pure chain cannot be made operational).
		d, truth = gatelib.ShortModel(1, true, false), identity
		opts.Restarts = 24
		opts.Iterations = 500
		opts.MaxDots = 5
	case "CROSS", "HA":
		d, truth = short(target)
		opts.Restarts = 10
		opts.Iterations = 150
		opts.MaxDots = 3
	case "DIAG":
		// Diagonal (NW -> SW) wire: fixed first and last pairs on the west
		// side; the search places the connecting dots freely. The
		// downstream emulation is the SW neighbor's NE stub.
		first := gatelib.Pair{X: 15, Y: 0, DX: 1}
		last := gatelib.Pair{X: 15, Y: 39, DX: -1}
		d = &gatelib.Design{
			Name:   "diag",
			Pairs:  []gatelib.Pair{first, last},
			Ins:    []gatelib.Pair{first},
			Outs:   []gatelib.Pair{last},
			OutEmu: []lattice.Site{lattice.FromCell(15, 46), lattice.FromCell(11, 53)},
		}
		truth = identity
		opts.Restarts = 24
		opts.Iterations = 400
		opts.MinDots = 4
		opts.MaxDots = 8
		cands := Grid(8, 5, 26, 36, 2, d.Layout(0, 0).Dots, 0.6)
		best, err := Search(d, truth, params, cands, opts)
		fmt.Printf("RESULT %s err=%v correct=%d/%d gap=%.4f canvas=%v\n",
			target, err, best.Correct, best.Patterns, best.MinGap, best.Canvas)
		return
	case "FULL_AND", "FULL_OR", "FULL_NAND", "FULL_NOR", "FULL_XOR", "FULL_XNOR":
		keys := map[string]string{
			"FULL_AND": "and", "FULL_OR": "or", "FULL_NAND": "nand",
			"FULL_NOR": "nor", "FULL_XOR": "xor", "FULL_XNOR": "xnor",
		}
		lib, f, ok := gatelib.NewLibrary().Design(keys[target] + ":iNW:iNE:oSE")
		if !ok {
			t.Fatalf("no library design for %s", target)
		}
		// Seed the search with the library canvas; the candidate grid
		// avoids only the tile's stubs.
		d, truth = lib, gatelib.TruthOf(f)
		opts.Initial = lib.Extra
		opts.Solver = "anneal"
		opts.Restarts = 10
		opts.Iterations = 250
		opts.MinDots = 2
		opts.MaxDots = 5
		if os.Getenv("GATE_EXACT") != "" {
			// Exact evaluation (slow): seeded local refinement only.
			opts.Solver = "quickexact"
			opts.Restarts = 2
			opts.Iterations = 70
			opts.MaxDots = 4
		}
	default:
		t.Fatalf("unknown target %q", target)
	}
	stubs := *d
	stubs.Extra = nil
	cands := Grid(18, 12, 42, 30, 2, stubs.Layout(0, 0).Dots, 0.6)
	best, err := Search(d, truth, params, cands, opts)
	fmt.Printf("RESULT %s err=%v correct=%d/%d gap=%.4f canvas=%v\n",
		target, err, best.Correct, best.Patterns, best.MinGap, best.Canvas)
}
