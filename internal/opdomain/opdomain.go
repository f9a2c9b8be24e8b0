// Package opdomain implements operational domain analysis for Bestagon
// tile designs: for a grid of physical parameter points (μ_, ε_r, λ_TF)
// it simulates a gate over all input patterns and records where the design
// operates correctly.
//
// The paper's conclusions name this as the natural follow-up study: "the
// advancement of a streamlined operational domain evaluation framework
// will also be of interest since the existing work is computationally
// heavy and not trivially quantifiable [30]" (§6). This package provides
// that framework for the reproduced library.
package opdomain

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/gatelib"
	"repro/internal/pool"
	"repro/internal/sim"
)

// Sweep defines the parameter grid to explore.
type Sweep struct {
	// MuMin/MuMax/MuSteps sweep the (-/0) transition level in eV.
	MuMin, MuMax float64
	MuSteps      int
	// EpsMin/EpsMax/EpsSteps sweep the relative permittivity.
	EpsMin, EpsMax float64
	EpsSteps       int
	// LambdaTF is held fixed (nm); the paper's studies fix it at 5 nm.
	LambdaTF float64
}

// DefaultSweep covers the neighborhood of the paper's two calibrations
// (μ_ = -0.28 and -0.32 eV, ε_r = 5.6).
func DefaultSweep() Sweep {
	return Sweep{
		MuMin: -0.36, MuMax: -0.24, MuSteps: 7,
		EpsMin: 5.0, EpsMax: 6.2, EpsSteps: 5,
		LambdaTF: 5,
	}
}

// Point is one sampled parameter combination and its outcome.
type Point struct {
	Params      sim.Params
	Operational bool
	// Correct counts input patterns with valid, correct outputs.
	Correct, Patterns int
}

// Domain is the outcome of a sweep for one design.
type Domain struct {
	Design string
	Points []Point
}

// OperationalFraction returns the fraction of sampled points at which the
// design operates.
func (d *Domain) OperationalFraction() float64 {
	if len(d.Points) == 0 {
		return 0
	}
	ok := 0
	for _, p := range d.Points {
		if p.Operational {
			ok++
		}
	}
	return float64(ok) / float64(len(d.Points))
}

// Analyze sweeps the parameter grid for a tile design against its truth
// function under automatic solver dispatch. Parameter points are
// evaluated concurrently by a bounded worker pool, but the result
// ordering is deterministic: points appear in row-major grid order (μ_
// outer, ε_r inner) regardless of scheduling.
func Analyze(d *gatelib.Design, truth func(uint32) uint32, sweep Sweep) *Domain {
	grid := make([]sim.Params, 0, sweep.MuSteps*sweep.EpsSteps)
	for i := 0; i < sweep.MuSteps; i++ {
		mu := interp(sweep.MuMin, sweep.MuMax, i, sweep.MuSteps)
		for j := 0; j < sweep.EpsSteps; j++ {
			eps := interp(sweep.EpsMin, sweep.EpsMax, j, sweep.EpsSteps)
			grid = append(grid, sim.Params{MuMinus: mu, EpsR: eps, LambdaTF: sweep.LambdaTF})
		}
	}
	dom := &Domain{Design: d.Name, Points: make([]Point, len(grid))}
	// Background is never done, so Run returns nil. A point's panic is
	// re-raised here, on the caller's goroutine.
	_ = pool.Run(context.Background(), len(grid), 0, "opdomain.point.panic", func(_, i int) {
		dom.Points[i] = evaluatePoint(d, truth, grid[i])
	})
	return dom
}

// evaluatePoint validates the design at one parameter point. The
// automatic solver always resolves, the only way ValidateWith fails.
func evaluatePoint(d *gatelib.Design, truth func(uint32) uint32, params sim.Params) Point {
	v, _ := gatelib.ValidateWith(d, truth, params, gatelib.ValidateOptions{})
	correct := 0
	for p, out := range v.Outputs {
		if out >= 0 && uint32(out) == truth(uint32(p)) {
			correct++
		}
	}
	return Point{
		Params:      params,
		Operational: v.OK,
		Correct:     correct,
		Patterns:    len(v.Outputs),
	}
}

// interp linearly interpolates step i of n between lo and hi.
func interp(lo, hi float64, i, n int) float64 {
	if n <= 1 {
		return lo
	}
	return lo + (hi-lo)*float64(i)/float64(n-1)
}

// Render draws the domain as an ASCII map: rows are μ_ values, columns
// ε_r values; '#' marks operational points, '.' non-operational ones.
func (d *Domain) Render(w io.Writer) {
	// Collect the axes.
	muSet := map[float64]bool{}
	epsSet := map[float64]bool{}
	for _, p := range d.Points {
		muSet[p.Params.MuMinus] = true
		epsSet[p.Params.EpsR] = true
	}
	mus := keysSorted(muSet)
	eps := keysSorted(epsSet)
	byKey := map[[2]float64]Point{}
	for _, p := range d.Points {
		byKey[[2]float64{p.Params.MuMinus, p.Params.EpsR}] = p
	}
	fmt.Fprintf(w, "operational domain of %s (lambda_TF fixed, rows mu_, cols eps_r)\n", d.Design)
	fmt.Fprintf(w, "%8s ", "")
	for _, e := range eps {
		fmt.Fprintf(w, "%5.2f ", e)
	}
	fmt.Fprintln(w)
	for _, m := range mus {
		fmt.Fprintf(w, "%8.3f ", m)
		for _, e := range eps {
			p := byKey[[2]float64{m, e}]
			mark := "  .  "
			if p.Operational {
				mark = "  #  "
			}
			fmt.Fprintf(w, "%s ", mark)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "operational fraction: %.0f%%\n", 100*d.OperationalFraction())
}

// keysSorted returns the sorted keys of a float set.
func keysSorted(set map[float64]bool) []float64 {
	out := make([]float64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Float64s(out)
	return out
}
