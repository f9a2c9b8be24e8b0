// Package designer searches for dot-accurate SiDB gate implementations:
// given a tile design with fixed I/O structures and a target truth table,
// it places additional SiDBs in the logic design canvas and scores
// candidates with the library's own check, gatelib.ValidateWith.
//
// The Bestagon paper designed its tiles "with the assistance of a
// reinforcement learning agent [28] which is allowed to place SiDBs within
// the logic design canvas and toggle through input combinations to check
// for logic correctness", followed by manual review. This package
// substitutes the RL agent with exhaustive enumeration of small canvas dot
// sets, after fiction's design_sidb_gates: the same search space, the same
// validation loop, and every working canvas ranked by its ground-state
// isolation (see DESIGN.md §4).
package designer

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/gatelib"
	"repro/internal/lattice"
	"repro/internal/pool"
	"repro/internal/sidb"
	"repro/internal/sim"
)

// Candidate is a scored canvas placement.
type Candidate struct {
	Canvas []lattice.Site
	// Correct counts input patterns with valid, correct outputs.
	Correct int
	// Patterns is the total number of input patterns.
	Patterns int
	// MinGap is the validation's MinGapEV when every pattern is correct
	// (0 when the gap was not measured), else 0.
	MinGap float64
}

// Works reports whether the candidate implements the target exactly.
func (c Candidate) Works() bool { return c.Correct == c.Patterns }

// Evaluate scores a canvas placement: it validates d with the canvas as
// its Extra dots through gatelib.ValidateWith under QuickExact, the
// library's own tile check, and counts the input patterns whose outputs
// are valid and match truth.
func Evaluate(d *gatelib.Design, truth func(uint32) uint32, params sim.Params, canvas []lattice.Site) Candidate {
	tile := *d
	tile.Extra = canvas
	// quickexact always resolves and a nil Ctx never ends: no error.
	v, _ := gatelib.ValidateWith(&tile, truth, params, gatelib.ValidateOptions{Solver: "quickexact"})
	cand := Candidate{Canvas: canvas, Patterns: len(v.Outputs)}
	for p, out := range v.Outputs {
		if out >= 0 && uint32(out) == truth(uint32(p)) {
			cand.Correct++
		}
	}
	if cand.Works() {
		cand.MinGap = v.MinGapEV
	}
	return cand
}

// Exhaustive evaluates every subset of at most k of sites as d's canvas
// and returns the working candidates, largest MinGap first. Subsets are
// enumerated by size, then in index order of sites; candidates with equal
// gaps keep that order, so the result does not depend on the worker
// count. The evaluations run on internal/pool. Once ctx is done no
// further evaluation starts and Exhaustive returns ctx.Err().
func Exhaustive(ctx context.Context, d *gatelib.Design, truth func(uint32) uint32, params sim.Params, sites []lattice.Site, k int) ([]Candidate, error) {
	canvases := subsets(sites, min(k, len(sites)))
	scored := make([]Candidate, len(canvases))
	if err := pool.Run(ctx, len(canvases), 0, "", func(_, i int) {
		scored[i] = Evaluate(d, truth, params, canvases[i])
	}); err != nil {
		return nil, err
	}
	var working []Candidate
	for _, c := range scored {
		if c.Works() {
			working = append(working, c)
		}
	}
	slices.SortStableFunc(working, func(a, b Candidate) int { return cmp.Compare(b.MinGap, a.MinGap) })
	return working, nil
}

// subsets lists every subset of at most k sites: by size, each size's
// subsets in lexicographic order of their indices into sites.
func subsets(sites []lattice.Site, k int) [][]lattice.Site {
	var out [][]lattice.Site
	for size := 0; size <= k; size++ {
		idx := make([]int, size)
		for i := range idx {
			idx[i] = i
		}
		for {
			canvas := make([]lattice.Site, size)
			for j, i := range idx {
				canvas[j] = sites[i]
			}
			out = append(out, canvas)
			// Advance the rightmost index that can still move.
			j := size - 1
			for j >= 0 && idx[j] == len(sites)-size+j {
				j--
			}
			if j < 0 {
				break
			}
			idx[j]++
			for i := j + 1; i < size; i++ {
				idx[i] = idx[i-1] + 1
			}
		}
	}
	return out
}

// Grid returns candidate sites on a rectangular cell region with the given
// stride, excluding sites too close (< minNM) to any fixed dot.
func Grid(x0, y0, x1, y1, stride int, fixed []sidb.Dot, minNM float64) []lattice.Site {
	var out []lattice.Site
	for y := y0; y <= y1; y += stride {
		for x := x0; x <= x1; x += stride {
			s := lattice.FromCell(x, y)
			ok := true
			for _, d := range fixed {
				if lattice.DistanceNM(s, d.Site) < minNM {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, s)
			}
		}
	}
	return out
}
