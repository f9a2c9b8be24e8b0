// Command gatedesigner searches a Bestagon gate core for a library tile:
// it strips the variant's canvas dots, enumerates every canvas of at most
// k dots on the tile's candidate grid (designer.Exhaustive, the paper's
// RL-agent substitute, see DESIGN.md §4), validates each against the
// variant's truth table and prints the best canvas as Go literals for
// internal/gatelib/designs.go.
//
// Usage:
//
//	gatedesigner -gate nand:iNW:iNE:oSE -k 2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/designer"
	"repro/internal/gatelib"
	"repro/internal/sim"
)

func main() {
	var (
		gate = flag.String("gate", "", "library variant key, e.g. nand:iNW:iNE:oSE")
		k    = flag.Int("k", 2, "most canvas dots to place")
		mu   = flag.Float64("mu", sim.ParamsFig5.MuMinus, "transition level mu_ in eV")
	)
	flag.Parse()

	params := sim.ParamsFig5
	params.MuMinus = *mu

	lib := gatelib.NewLibrary()
	d, f, ok := lib.Design(*gate)
	if !ok {
		keys := lib.Variants()
		slices.Sort(keys)
		fmt.Fprintf(os.Stderr, "gatedesigner: unknown gate %q; variants:\n  %s\n", *gate, strings.Join(keys, "\n  "))
		os.Exit(2)
	}
	skeleton := *d
	skeleton.Extra = nil
	sites := designer.Grid(18, 12, 42, 30, 2, skeleton.Layout(0, 0).Dots, 0.6)
	fmt.Printf("searching %s: canvases of at most %d of %d sites ...\n", *gate, *k, len(sites))
	start := time.Now()
	found, err := designer.Exhaustive(context.Background(), &skeleton, gatelib.TruthOf(f), params, sites, *k)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatedesigner:", err)
		os.Exit(1)
	}
	fmt.Printf("%d working canvases in %.2f s\n", len(found), time.Since(start).Seconds())
	if len(found) == 0 {
		fmt.Fprintln(os.Stderr, "gatedesigner: no working canvas")
		os.Exit(1)
	}
	best := found[0]
	cells := make([]string, len(best.Canvas))
	for i, s := range best.Canvas {
		x, y := s.Cell()
		cells[i] = fmt.Sprintf("c(%d, %d)", x, y)
	}
	fmt.Printf("best: min gap %.4f meV\n", best.MinGap*1e3)
	fmt.Printf("[]lattice.Site{%s}\n", strings.Join(cells, ", "))
}
