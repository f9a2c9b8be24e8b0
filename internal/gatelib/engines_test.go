package gatelib

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/defects"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/sidb"
	"repro/internal/sim"
)

// freeDots counts the non-perturber dots of a layout.
func freeDots(l *sidb.Layout) int {
	n := 0
	for _, d := range l.Dots {
		if d.Role != sidb.RolePerturber {
			n++
		}
	}
	return n
}

// TestEnginesAgreeOnLibraryTiles is the golden cross-check of the three
// ground-state engines: for every tile design of the Bestagon library, the
// pruned exact search must reproduce the blind-enumeration energy exactly
// (where enumeration is feasible), and annealing must never find anything
// below the proven minimum.
func TestEnginesAgreeOnLibraryTiles(t *testing.T) {
	lib := NewLibrary()
	for key, d := range lib.designs {
		l := d.Layout(0, 0)
		eng := sim.NewEngine(l, sim.ParamsFig5)
		free := freeDots(l)

		gs, qe, st, err := eng.QuickExact(sim.QuickExactOptions{})
		if err != nil {
			t.Errorf("%s: quickexact failed: %v", key, err)
			continue
		}
		if !eng.PopulationStable(gs) {
			t.Errorf("%s: quickexact ground state not population stable", key)
		}
		if free <= sim.ExactLimit {
			_, ex, err := eng.Exhaustive(context.Background())
			if err != nil {
				t.Errorf("%s: exhaustive failed on %d free dots: %v", key, free, err)
				continue
			}
			if math.Abs(qe-ex) > 1e-9 {
				t.Errorf("%s: quickexact %v != exhaustive %v (stats %+v)", key, qe, ex, st)
			}
		}
		_, an := eng.Anneal(sim.DefaultAnnealConfig())
		if an < qe-1e-9 {
			t.Errorf("%s: anneal %v beats quickexact %v — exact search missed the minimum", key, an, qe)
		}
	}
}

// TestValidateSolversAgree cross-checks full tile validation (with I/O
// emulation perturbers, all input patterns) between the enumerating and the
// pruned exact solver: identical outputs and verdicts everywhere ExGS is
// feasible.
func TestValidateSolversAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("full-library solver cross-validation is slow")
	}
	lib := NewLibrary()
	for _, key := range validatedVariants {
		d, ok := lib.designs[key]
		if !ok {
			t.Errorf("%s: design missing from library", key)
			continue
		}
		if freeDots(d.Layout(0, 0)) > sim.ExactLimit {
			continue
		}
		truth := TruthOf(lib.funcs[key])
		ex, err := ValidateWith(d, truth, sim.ParamsFig5, ValidateOptions{Solver: "exgs"})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		qe, err := ValidateWith(d, truth, sim.ParamsFig5, ValidateOptions{Solver: "quickexact"})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if ex.OK != qe.OK {
			t.Errorf("%s: verdicts disagree: exgs ok=%v, quickexact ok=%v", key, ex.OK, qe.OK)
		}
		for p := range ex.Outputs {
			if ex.Outputs[p] != qe.Outputs[p] {
				t.Errorf("%s: pattern %d: exgs output %d != quickexact output %d",
					key, p, ex.Outputs[p], qe.Outputs[p])
			}
		}
		if ex.Method != "exgs" || qe.Method != "quickexact" {
			t.Errorf("%s: methods %q/%q, want exgs/quickexact", key, ex.Method, qe.Method)
		}
	}
}

// TestUnknownSolverRejected ensures explicit solver selection fails loudly.
func TestUnknownSolverRejected(t *testing.T) {
	lib := NewLibrary()
	var d *Design
	for _, dd := range lib.designs {
		d = dd
		break
	}
	_, err := ValidateWith(d, func(uint32) uint32 { return 0 }, sim.ParamsFig5,
		ValidateOptions{Solver: "no-such-solver"})
	if err == nil {
		t.Fatal("unknown solver name must be rejected")
	}
}

// enumeratedGap is the degeneracy gap by blind enumeration: one Gray-code
// walk over the free dots keeps the ground state and, per key of the
// interest dots, the lowest energy seen; the gap is the lowest energy of
// any other key minus the ground energy.
func enumeratedGap(e *sim.Engine, interest []int) float64 {
	freeIdx := e.FreeIndices()
	cur := make([]bool, e.NumDots())
	for i := range cur {
		cur[i] = e.IsFixed(i)
	}
	// key is the interest key of cur; flipping free dot freeIdx[b]
	// toggles the key bits in flip[b].
	key := 0
	flip := make([]int, len(freeIdx))
	for b, i := range interest {
		if cur[i] {
			key |= 1 << b
		}
		for f, j := range freeIdx {
			if j == i {
				flip[f] |= 1 << b
			}
		}
	}
	keyMin := make([]float64, 1<<len(interest))
	for k := range keyMin {
		keyMin[k] = math.Inf(1)
	}
	curE := e.Energy(cur)
	groundE, groundKey := curE, key
	keyMin[key] = curE
	for k := uint64(1); k < 1<<len(freeIdx); k++ {
		f := bits.TrailingZeros64(k)
		i := freeIdx[f]
		delta := e.Params.MuMinus + e.LocalPotential(cur, i)
		if cur[i] {
			delta = -delta
		}
		curE += delta
		cur[i] = !cur[i]
		key ^= flip[f]
		keyMin[key] = min(keyMin[key], curE)
		if curE < groundE-1e-15 {
			groundE, groundKey = curE, key
		}
	}
	other := math.Inf(1)
	for k, m := range keyMin {
		if k != groundKey {
			other = min(other, m)
		}
	}
	return other - groundE
}

// TestDegeneracyGapMatchesEnumeration checks the pinned-search degeneracy
// gap against blind enumeration on the library's own validation layouts:
// every input pattern of every variant with at most 18 free dots (the
// fan-out tiles give 2-output, 16-key interest sets) and one 22-dot XNOR
// pattern at the exact-gap limit.
func TestDegeneracyGapMatchesEnumeration(t *testing.T) {
	lib := NewLibrary()
	var twoOutputs, limit bool // the coverage the test promises
	for _, key := range lib.Variants() {
		d := lib.designs[key]
		for p := 0; p < 1<<len(d.Ins); p++ {
			l := patternLayout(d, p)
			xnor := key == "xnor:iNW:iNE:oSE" && p == 1
			if freeDots(l) > 18 && !xnor {
				continue
			}
			eng := sim.NewEngine(l, sim.ParamsFig5)
			idx := l.SiteIndex()
			var interest []int
			for _, out := range d.Outs {
				b := out.BDL()
				interest = append(interest, idx[b.Bit0], idx[b.Bit1])
			}
			got, ground, err := eng.DegeneracyGap(context.Background(), interest, nil)
			if err != nil {
				t.Fatalf("%s pattern %d: %v", key, p, err)
			}
			if want := enumeratedGap(eng, interest); got != want && !(math.Abs(got-want) <= 1e-9) {
				t.Errorf("%s pattern %d: gap %v, enumeration %v", key, p, got, want)
			}
			// ValidateWith reads the outputs from the gap's ground key when
			// the gap sets it apart: they must be the unpinned search's.
			gs, _, _, err := eng.QuickExact(sim.QuickExactOptions{})
			if err != nil {
				t.Fatalf("%s pattern %d: %v", key, p, err)
			}
			if got > degenerateGapEV && !sameOutputs(d, idx, ground, gs) {
				t.Errorf("%s pattern %d: gap's ground key reads other outputs than QuickExact", key, p)
			}
			twoOutputs = twoOutputs || len(d.Outs) == 2
			limit = limit || xnor && freeDots(l) == sim.ExactLimit
		}
	}
	if !twoOutputs || !limit {
		t.Errorf("coverage: 2-output layout %v, %d-dot xnor pattern %v", twoOutputs, sim.ExactLimit, limit)
	}
}

// sameOutputs reports whether two configurations read the same state (or
// the same error) on every output pair of the design.
func sameOutputs(d *Design, idx map[lattice.Site]int, a, b []bool) bool {
	for _, out := range d.Outs {
		sa, ea := out.BDL().State(idx, a)
		sb, eb := out.BDL().State(idx, b)
		if sa != sb || (ea == nil) != (eb == nil) {
			return false
		}
	}
	return true
}

// annealReference is the annealer as it was before the potential vector:
// every proposal recomputes the flipped dot's local potential from
// scratch, one fresh RNG serves each restart, and the returned energy is
// the walk's accumulated sum. It returns the charges, that energy, and the
// proposal and acceptance counts.
func annealReference(e *sim.Engine, cfg sim.AnnealConfig) ([]bool, float64, int64, int64) {
	flipDelta := func(charged []bool, i int) float64 {
		delta := e.Params.MuMinus + e.LocalPotential(charged, i)
		if charged[i] {
			return -delta
		}
		return delta
	}
	canceled := func() bool { return cfg.Ctx != nil && cfg.Ctx.Err() != nil }
	var accepted, flipsTried int64
	freeIdx := e.FreeIndices()
	fixed := make([]bool, e.NumDots())
	for i := range fixed {
		fixed[i] = e.IsFixed(i)
	}
	best := append([]bool(nil), fixed...)
	bestE := e.Energy(best)
	for restart := 0; restart < cfg.Restarts; restart++ {
		if canceled() {
			break
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(restart)*7919))
		cur := append([]bool(nil), fixed...)
		for _, i := range freeIdx {
			cur[i] = rng.Intn(2) == 1
		}
		curE := e.Energy(cur)
		if curE < bestE {
			bestE = curE
			copy(best, cur)
		}
		if len(freeIdx) == 0 {
			continue
		}
		cool := math.Pow(cfg.TEnd/cfg.TStart, 1/float64(cfg.Sweeps))
		temp := cfg.TStart
		for sweep := 0; sweep < cfg.Sweeps; sweep++ {
			if sweep&15 == 0 && canceled() {
				break
			}
			for range freeIdx {
				i := freeIdx[rng.Intn(len(freeIdx))]
				delta := flipDelta(cur, i)
				flipsTried++
				if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
					accepted++
					cur[i] = !cur[i]
					curE += delta
					if curE < bestE-1e-15 {
						bestE = curE
						copy(best, cur)
					}
				}
			}
			temp *= cool
		}
		improved := true
		for improved && !canceled() {
			improved = false
			for _, i := range freeIdx {
				if d := flipDelta(cur, i); d < -1e-15 {
					cur[i] = !cur[i]
					curE += d
					improved = true
				}
			}
		}
		if curE < bestE-1e-15 {
			bestE = curE
			copy(best, cur)
		}
	}
	return best, bestE, flipsTried, accepted
}

// TestAnnealMatchesReference pins the potential-vector annealer to the
// per-proposal reference walk: the same charges bit for bit, the same
// proposal and acceptance counts, an energy within 1e-12 eV of the
// reference's accumulated sum and bitwise equal to Energy of the charges.
// The corpus is every library variant's bare tile and input pattern under
// the default, the QuickExact-seed and a sweepless (descent-only)
// schedule, the patterns again on a
// surface with charged defects, random layouts with perturbers, and the
// no-restart, no-free-dot and cancelled-context edge cases. With -short
// (the race-detector run) the library and defect layouts anneal under the
// seed schedule only and fewer random layouts run.
func TestAnnealMatchesReference(t *testing.T) {
	seedCfg := sim.AnnealConfig{Seed: 1, Restarts: 2, Sweeps: 150, TStart: 0.3, TEnd: 0.001}
	// quench skips the sweeps: the greedy descent alone walks down from
	// each random population, so its flips dominate.
	quench := sim.AnnealConfig{Seed: 1, Restarts: 4, Sweeps: 0, TStart: 0.3, TEnd: 0.001}
	defectCfg, randomLayouts := sim.DefaultAnnealConfig(), 40
	if testing.Short() {
		defectCfg, randomLayouts = seedCfg, 10
	}
	check := func(name string, e *sim.Engine, cfg sim.AnnealConfig) {
		t.Helper()
		mt := obs.New()
		cfg.Tracer = mt
		got, gotE := e.Anneal(cfg)
		want, wantE, tried, acc := annealReference(e, cfg)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: charges differ from the reference at dot %d", name, i)
				break
			}
		}
		if n := mt.Counter("sim/anneal/flips_tried").Value(); n != tried {
			t.Errorf("%s: %d proposals, reference %d", name, n, tried)
		}
		if n := mt.Counter("sim/anneal/accepted").Value(); n != acc {
			t.Errorf("%s: %d accepted, reference %d", name, n, acc)
		}
		if math.Abs(gotE-wantE) > 1e-12 {
			t.Errorf("%s: energy %v, reference %v", name, gotE, wantE)
		}
		if c := e.Energy(got); gotE != c {
			t.Errorf("%s: energy %v is not the canonical %v", name, gotE, c)
		}
	}

	surf := defects.New()
	surf.AddCell(-8, 10, defects.DB)
	surf.AddCell(TileWidth+6, 20, defects.Arsenic)
	surf.AddCell(30, TileHeight+8, defects.Vacancy)
	surf.AddCell(30, -8, defects.Siloxane)
	lib := NewLibrary()
	for _, key := range lib.Variants() {
		d := lib.designs[key]
		layouts := []*sidb.Layout{d.Layout(0, 0)}
		for p := 0; p < 1<<len(d.Ins); p++ {
			layouts = append(layouts, patternLayout(d, p))
		}
		for k, l := range layouts {
			name := fmt.Sprintf("%s layout %d", key, k)
			e := sim.NewEngine(l, sim.ParamsFig5)
			check(name+" seed schedule", e, seedCfg)
			check(name+" quench", e, quench)
			if !testing.Short() {
				check(name, e, sim.DefaultAnnealConfig())
			}
			if k > 0 {
				check(name+" on defects", sim.NewEngineOn(l, sim.ParamsFig5, surf), defectCfg)
			}
		}
	}

	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < randomLayouts; trial++ {
		l := &sidb.Layout{}
		seen := map[[2]int]bool{}
		for n := 8 + rng.Intn(20); len(l.Dots) < n; {
			x, y := rng.Intn(30), rng.Intn(30)
			if seen[[2]int{x, y}] {
				continue
			}
			seen[[2]int{x, y}] = true
			role := sidb.RoleNormal
			if rng.Intn(5) == 0 {
				role = sidb.RolePerturber
			}
			l.AddCell(x, y, role)
		}
		e := sim.NewEngine(l, sim.ParamsFig1c)
		for seed := int64(1); seed <= 3; seed++ {
			cfg := sim.DefaultAnnealConfig()
			cfg.Seed = seed
			check(fmt.Sprintf("random %d seed %d", trial, seed), e, cfg)
			quench.Seed = seed
			check(fmt.Sprintf("random %d seed %d quench", trial, seed), e, quench)
		}
	}

	bare := lib.designs["or:iNW:iNE:oSE"].Layout(0, 0)
	noRestarts := sim.DefaultAnnealConfig()
	noRestarts.Restarts = 0
	check("no restarts", sim.NewEngine(bare, sim.ParamsFig5), noRestarts)
	pinned := &sidb.Layout{}
	pinned.AddCell(0, 0, sidb.RolePerturber)
	pinned.AddCell(6, 0, sidb.RolePerturber)
	check("no free dots", sim.NewEngine(pinned, sim.ParamsFig5), sim.DefaultAnnealConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stopped := sim.DefaultAnnealConfig()
	stopped.Ctx = ctx
	check("cancelled", sim.NewEngine(bare, sim.ParamsFig5), stopped)
}
