// Command gatedesigner regenerates the Bestagon gate cores: it runs the
// simulation-driven design search (the paper's RL-agent substitute, see
// DESIGN.md §4) for a chosen tile function and prints the resulting canvas
// dot placements as Go literals for internal/gatelib/designs.go.
//
// Usage:
//
//	gatedesigner -gate XOR -seed 1 -restarts 16 -iterations 300
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/designer"
	"repro/internal/gatelib"
	"repro/internal/sim"
)

func main() {
	var (
		gate       = flag.String("gate", "", "target: AND, OR, NAND, NOR, XOR, XNOR, INV, FANOUT, CROSS, HA")
		seed       = flag.Int64("seed", 1, "search seed")
		restarts   = flag.Int("restarts", 16, "search restarts")
		iterations = flag.Int("iterations", 300, "local moves per restart")
		maxDots    = flag.Int("max-dots", 4, "maximum canvas dots")
		mu         = flag.Float64("mu", sim.ParamsFig5.MuMinus, "transition level mu_ in eV")
		solver     = flag.String("solver", "", "ground-state solver for candidate evaluation: "+strings.Join(sim.SolverNames(), ", ")+" (default auto)")
	)
	flag.Parse()

	params := sim.ParamsFig5
	params.MuMinus = *mu

	d, truth, err := target(*gate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatedesigner:", err)
		os.Exit(2)
	}
	if _, err := sim.Lookup(*solver); err != nil {
		fmt.Fprintln(os.Stderr, "gatedesigner:", err)
		os.Exit(2)
	}
	cands := designer.Grid(20, 12, 40, 32, 2, d.Layout(0, 0).Dots, 0.6)
	opts := designer.Options{
		Seed: *seed, Restarts: *restarts, Iterations: *iterations,
		MaxDots: *maxDots, Solver: *solver,
	}
	fmt.Printf("searching %s over %d candidate sites (seed %d) ...\n", *gate, len(cands), *seed)
	best, err := designer.Search(d, truth, params, cands, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gatedesigner: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("found placement: %d/%d patterns, min gap %.4f eV\n", best.Correct, best.Patterns, best.MinGap)
	fmt.Printf("canvas%s = []lattice.Site{", *gate)
	for i, s := range best.Canvas {
		if i > 0 {
			fmt.Print(", ")
		}
		x, y := s.Cell()
		fmt.Printf("c(%d, %d)", x, y)
	}
	fmt.Println("}")
}

// target returns the short model and truth table of a target gate.
func target(gate string) (*gatelib.Design, func(uint32) uint32, error) {
	mk := func(nIn int, outSW, outSE bool, truth func(uint32) uint32) (*gatelib.Design, func(uint32) uint32, error) {
		return gatelib.ShortModel(nIn, outSW, outSE), truth, nil
	}
	switch gate {
	case "AND":
		return mk(2, false, true, func(i uint32) uint32 { return i & (i >> 1) & 1 })
	case "OR":
		return mk(2, false, true, func(i uint32) uint32 {
			if i != 0 {
				return 1
			}
			return 0
		})
	case "NAND":
		return mk(2, false, true, func(i uint32) uint32 { return (i & (i >> 1) & 1) ^ 1 })
	case "NOR":
		return mk(2, false, true, func(i uint32) uint32 {
			if i == 0 {
				return 1
			}
			return 0
		})
	case "XOR":
		return mk(2, false, true, func(i uint32) uint32 { return (i ^ i>>1) & 1 })
	case "XNOR":
		return mk(2, false, true, func(i uint32) uint32 { return ((i ^ i>>1) & 1) ^ 1 })
	case "INV":
		return mk(1, false, true, func(i uint32) uint32 { return i ^ 1 })
	case "FANOUT":
		return mk(1, true, true, func(i uint32) uint32 { return i * 3 })
	case "CROSS":
		return mk(2, true, true, func(i uint32) uint32 { return (i>>1)&1 | (i&1)<<1 })
	case "HA":
		return mk(2, true, true, func(i uint32) uint32 {
			return (i^i>>1)&1 | (i&(i>>1)&1)<<1
		})
	default:
		return nil, nil, fmt.Errorf("unknown gate %q", gate)
	}
}
