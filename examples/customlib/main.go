// Customlib: derive a new gate core with the simulation-driven design
// search (the paper's RL-agent substitute) and validate it — the workflow
// for extending the Bestagon library with additional Boolean functions,
// which the paper names as a possibility ("it is also possible to create a
// variety of gate libraries following the provided specifications").
package main

import (
	"fmt"
	"log"

	"repro/internal/designer"
	"repro/internal/gatelib"
	"repro/internal/sim"
)

func main() {
	// Target: a 2-input "A AND NOT B" (inhibition) tile — a function the
	// standard library does not provide.
	inhibition := func(in uint32) uint32 {
		a, b := in&1, in>>1&1
		return a &^ b
	}

	d := gatelib.ShortModel(2, false, true)
	cands := designer.Grid(20, 12, 40, 32, 2, d.Layout(0, 0).Dots, 0.6)
	fmt.Printf("searching %d candidate canvas sites...\n", len(cands))

	// The search is seeded and deterministic; some seeds settle on a
	// partial placement, so try a few in order and report each failure.
	opts := designer.DefaultOptions()
	opts.Restarts = 8
	opts.Iterations = 250
	var best designer.Candidate
	found := false
	for seed := int64(1); seed <= 8 && !found; seed++ {
		opts.Seed = seed
		cand, err := designer.Search(d, inhibition, sim.ParamsFig5, cands, opts)
		if err != nil {
			fmt.Printf("seed %d: %v\n", seed, err)
			continue
		}
		best, found = cand, true
	}
	if !found {
		log.Fatal("no design found with seeds 1..8")
	}

	fmt.Printf("seed %d found a placement with %d canvas dots (output gap %.4f eV):\n",
		opts.Seed, len(best.Canvas), best.MinGap)
	for _, s := range best.Canvas {
		x, y := s.Cell()
		fmt.Printf("  dot at cell (%d, %d)\n", x, y)
	}

	// Re-validate the candidate from scratch.
	check, err := designer.Evaluate(d, inhibition, sim.ParamsFig5, best.Canvas, opts.Solver)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-validation: %d/%d input patterns correct\n", check.Correct, check.Patterns)
	if !check.Works() {
		log.Fatal("validation failed")
	}
	fmt.Println("the core can now be embedded in a tile design (see internal/gatelib/designs.go)")
}
