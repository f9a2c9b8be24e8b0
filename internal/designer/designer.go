// Package designer searches for dot-accurate SiDB gate implementations:
// given a tile design with fixed I/O structures and a target truth table,
// it places additional SiDBs in the logic design canvas and scores
// candidates with the library's own check, gatelib.ValidateWith.
//
// The Bestagon paper designed its tiles "with the assistance of a
// reinforcement learning agent [28] which is allowed to place SiDBs within
// the logic design canvas and toggle through input combinations to check
// for logic correctness", followed by manual review. This package
// substitutes the RL agent with a deterministic seeded stochastic search
// (random restarts + local moves) over canvas dot placements — the same
// search space, the same validation loop (see DESIGN.md §4).
package designer

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/gatelib"
	"repro/internal/lattice"
	"repro/internal/obs"
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

// Options tunes the search.
type Options struct {
	Seed       int64
	Restarts   int
	Iterations int // local-move iterations per restart
	MinDots    int // canvas dots to place (lower bound)
	MaxDots    int
	// Solver names the sim ground-state solver that scores candidates
	// ("" = automatic dispatch; see sim.SolverNames).
	Solver string
	// Initial seeds the first restart with a known starting placement
	// (e.g. a solution from a reduced model being refined).
	Initial []lattice.Site
	// Tracer receives search telemetry (restart/evaluation counts, best
	// candidate quality); nil disables it at no cost.
	Tracer *obs.Tracer
}

// DefaultOptions returns settings that explore a Bestagon canvas in a few
// seconds per gate.
func DefaultOptions() Options {
	return Options{Seed: 1, Restarts: 12, Iterations: 400, MinDots: 0, MaxDots: 4}
}

// Evaluate scores a canvas placement: it validates d with the canvas as
// its Extra dots through gatelib.ValidateWith, the library's own tile
// check, and counts the input patterns whose outputs are valid and match
// truth. It fails only on an unknown solver name.
func Evaluate(d *gatelib.Design, truth func(uint32) uint32, params sim.Params, canvas []lattice.Site, solver string) (Candidate, error) {
	tile := *d
	tile.Extra = canvas
	v, err := gatelib.ValidateWith(&tile, truth, params, gatelib.ValidateOptions{Solver: solver})
	if err != nil {
		return Candidate{}, err
	}
	cand := Candidate{Canvas: canvas, Patterns: len(v.Outputs)}
	for p, out := range v.Outputs {
		if out >= 0 && uint32(out) == truth(uint32(p)) {
			cand.Correct++
		}
	}
	if cand.Works() {
		cand.MinGap = v.MinGapEV
	}
	return cand, nil
}

// better orders candidates: more correct patterns first, then larger gap.
func better(a, b Candidate) bool {
	if a.Correct != b.Correct {
		return a.Correct > b.Correct
	}
	return a.MinGap > b.MinGap
}

// Search looks for a canvas placement with which d implements truth.
// Candidates are drawn from the given candidate sites; the search is
// deterministic for fixed options.
func Search(d *gatelib.Design, truth func(uint32) uint32, params sim.Params, candidates []lattice.Site, opts Options) (Candidate, error) {
	if _, err := sim.Lookup(opts.Solver); err != nil {
		return Candidate{}, err
	}
	tr := opts.Tracer
	sp := tr.Start("designer/search")
	defer sp.End()
	evals := int64(0)
	evaluate := func(canvas []lattice.Site) Candidate {
		evals++
		cand, _ := Evaluate(d, truth, params, canvas, opts.Solver) // solver checked above
		return cand
	}
	if len(candidates) == 0 {
		return evaluate(nil), nil
	}
	restartsUsed := 0
	best := Candidate{MinGap: -1}
	for restart := 0; restart < opts.Restarts; restart++ {
		restartsUsed = restart + 1
		rng := rand.New(rand.NewSource(opts.Seed + int64(restart)*104729))
		k := opts.MinDots
		if opts.MaxDots > opts.MinDots {
			k += rng.Intn(opts.MaxDots - opts.MinDots + 1)
		}
		var cur []lattice.Site
		if restart == 0 && len(opts.Initial) > 0 {
			cur = append([]lattice.Site(nil), opts.Initial...)
			sortSites(cur)
		} else {
			cur = randomSubset(rng, candidates, k)
		}
		curScore := evaluate(cur)
		if best.MinGap < 0 || better(curScore, best) {
			best = curScore
		}
		for it := 0; it < opts.Iterations; it++ {
			next := mutate(rng, cur, candidates, opts)
			nextScore := evaluate(next)
			if better(nextScore, curScore) || (!better(curScore, nextScore) && rng.Intn(4) == 0) {
				cur, curScore = next, nextScore
				if better(curScore, best) {
					best = curScore
				}
			}
			if best.Works() && best.MinGap > 0.01 && it > 40 {
				break
			}
		}
		if best.Works() && best.MinGap > 0.01 {
			break
		}
	}
	sp.SetAttr("restarts", restartsUsed)
	sp.SetAttr("evaluations", evals)
	sp.SetAttr("correct", best.Correct)
	sp.SetAttr("patterns", best.Patterns)
	sp.SetAttr("min_gap", best.MinGap)
	tr.Counter("designer/evaluations").Add(evals)
	tr.Counter("designer/restarts").Add(int64(restartsUsed))
	if !best.Works() {
		return best, fmt.Errorf("designer: no working placement found (best %d/%d patterns)", best.Correct, best.Patterns)
	}
	return best, nil
}

// randomSubset picks k distinct sites.
func randomSubset(rng *rand.Rand, cands []lattice.Site, k int) []lattice.Site {
	perm := rng.Perm(len(cands))
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]lattice.Site, k)
	for i := 0; i < k; i++ {
		out[i] = cands[perm[i]]
	}
	sortSites(out)
	return out
}

// mutate applies one local move: add, remove, or replace a dot.
func mutate(rng *rand.Rand, cur []lattice.Site, cands []lattice.Site, opts Options) []lattice.Site {
	out := append([]lattice.Site(nil), cur...)
	in := map[lattice.Site]bool{}
	for _, s := range out {
		in[s] = true
	}
	pick := func() (lattice.Site, bool) {
		for tries := 0; tries < 20; tries++ {
			s := cands[rng.Intn(len(cands))]
			if !in[s] {
				return s, true
			}
		}
		return lattice.Site{}, false
	}
	switch op := rng.Intn(3); {
	case op == 0 && len(out) < opts.MaxDots:
		if s, ok := pick(); ok {
			out = append(out, s)
		}
	case op == 1 && len(out) > opts.MinDots && len(out) > 0:
		i := rng.Intn(len(out))
		out = append(out[:i], out[i+1:]...)
	default:
		if len(out) > 0 {
			if s, ok := pick(); ok {
				out[rng.Intn(len(out))] = s
			}
		}
	}
	sortSites(out)
	return out
}

// sortSites orders sites deterministically.
func sortSites(ss []lattice.Site) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].M != ss[j].M {
			return ss[i].M < ss[j].M
		}
		if ss[i].N != ss[j].N {
			return ss[i].N < ss[j].N
		}
		return ss[i].L < ss[j].L
	})
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
