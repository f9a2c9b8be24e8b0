// Gatesim: simulate a single Bestagon gate tile standalone, the way the
// paper's Fig. 5 validates the library — toggle through the input
// combinations with position-modulated perturbers and find the charge
// ground state for each.
package main

import (
	"fmt"
	"log"

	"repro/internal/gatelib"
	"repro/internal/gates"
	"repro/internal/hexgrid"
	"repro/internal/sim"
)

func main() {
	lib := gatelib.NewLibrary()
	design, err := lib.Get(gates.And,
		[]hexgrid.Direction{hexgrid.NorthWest, hexgrid.NorthEast},
		[]hexgrid.Direction{hexgrid.SouthEast})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AND tile: %d dots (%d BDL pairs, %d canvas dots)\n\n",
		design.NumDots(), len(design.Pairs), len(design.Extra))

	for pattern := 0; pattern < 4; pattern++ {
		// The standalone validation layout: the tile plus I/O perturbers
		// encoding the input pattern (near = 1, far = 0).
		l := gatelib.PatternLayout(design, pattern)

		eng := sim.NewEngine(l, sim.ParamsFig5)
		gs, energy := eng.GroundState()

		idx := l.SiteIndex()
		state, err := design.Outs[0].BDL().State(idx, gs)
		if err != nil {
			log.Fatalf("pattern %02b: %v", pattern, err)
		}
		fmt.Printf("a=%d b=%d  ->  out=%v   (E = %.4f eV, population stable: %v)\n",
			pattern&1, pattern>>1&1, b2i(state), energy, eng.PopulationStable(gs))
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
