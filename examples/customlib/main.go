// Customlib: derive a new gate core with the exhaustive design search (the
// paper's RL-agent substitute) and validate it — the workflow for
// extending the Bestagon library with additional Boolean functions, which
// the paper names as a possibility ("it is also possible to create a
// variety of gate libraries following the provided specifications").
package main

import (
	"context"
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

	// The truncated short model: the full AND skeleton has no working
	// canvas of at most 2 dots for inhibition.
	d := gatelib.ShortModel(2, false, true)
	sites := designer.Grid(20, 12, 40, 32, 2, d.Layout(0, 0).Dots, 0.6)
	fmt.Printf("searching every canvas of at most 2 of %d sites...\n", len(sites))
	found, err := designer.Exhaustive(context.Background(), d, inhibition, sim.ParamsFig5, sites, 2)
	if err != nil {
		log.Fatal(err)
	}
	if len(found) == 0 {
		log.Fatal("no working canvas")
	}
	best := found[0]
	fmt.Printf("%d working canvases; the best has %d dots (output gap %.4f eV):\n",
		len(found), len(best.Canvas), best.MinGap)
	for _, s := range best.Canvas {
		x, y := s.Cell()
		fmt.Printf("  dot at cell (%d, %d)\n", x, y)
	}

	// Re-validate the candidate from scratch.
	check := designer.Evaluate(d, inhibition, sim.ParamsFig5, best.Canvas)
	fmt.Printf("re-validation: %d/%d input patterns correct\n", check.Correct, check.Patterns)
	if !check.Works() {
		log.Fatal("validation failed")
	}
	fmt.Println("the core can now be embedded in a tile design (see internal/gatelib/designs.go)")
}
