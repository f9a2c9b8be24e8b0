package gatelib

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/gates"

	"repro/internal/defects"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/sidb"
	"repro/internal/sim"
)

// I/O emulation, following the paper's input method: the input perturber
// exists for both logic states, close for 1 and far for 0, emulating the
// upstream BDL wire's last pair. The near site is exactly where the
// upstream pair's forward dot sits (its electron at logic 1), the far site
// where its back dot sits (logic 0); the output perturber emulates the
// downstream pair.
//
// OutPerturb is the diagonal distance of the standard output perturber
// behind an output pair's forward dot.
const OutPerturb = 4

// InputEmulation returns the perturber sites emulating the given logic
// value on an input pair: the upstream stub approaches along the standard
// ray step (±4,7), so its last two pairs anchor at (x∓4, y-7) and
// (x∓8, y-14). For logic 1 their electrons sit at the forward dots, for
// logic 0 at the back dots; the emulation pins charges at exactly those
// sites. The pair's orientation selects the side.
func InputEmulation(p Pair, bit bool) []lattice.Site {
	dx := 1
	if p.DX < 0 {
		dx = -1
	}
	up := func(k int) (int, int) { return p.X - dx*4*k, p.Y - 7*k }
	var out []lattice.Site
	for k := 1; k <= 2; k++ {
		ax, ay := up(k)
		if bit {
			out = append(out, lattice.FromCell(ax+dx, ay+PairDY))
		} else {
			out = append(out, lattice.FromCell(ax, ay))
		}
	}
	return out
}

// OutputPerturber returns the read-out perturber site behind an output
// pair.
func OutputPerturber(p Pair) lattice.Site {
	return lattice.FromCell(p.X+p.DX*(1+OutPerturb), p.Y+PairDY+OutPerturb)
}

// Failure kinds of a defect-aware validation (Validation.FailKind).
const (
	// FailDefectBlocked marks a gate that fails solely because of surface
	// defects: a dot inside an exclusion zone, or an electrostatic
	// perturbation that flips the gate while the pristine gate works.
	FailDefectBlocked = "defect_blocked"
	// FailLogic marks a gate that computes the wrong function even on a
	// pristine surface.
	FailLogic = "logic"
)

// Validation is the result of a standalone tile simulation (Fig. 5 style).
type Validation struct {
	OK bool
	// Outputs[pattern] is the read output bit vector (-1 when the ground
	// state leaves an output pair undefined).
	Outputs []int
	// MinGapEV is the smallest energy gap between the ground state and the
	// best differing-output configuration (exact cases only, up to
	// sim.ExactLimit free dots, by pinned exact search; 0 otherwise).
	MinGapEV float64
	// Method names the ground-state solver that produced the outputs
	// ("exgs", "quickexact", "quicksim").
	Method string
	// FailKind classifies a failure ("" when OK): FailDefectBlocked or
	// FailLogic.
	FailKind string `json:",omitempty"`
	// DefectBlocked reports the gate failed solely because of surface
	// defects (FailKind == FailDefectBlocked).
	DefectBlocked bool `json:",omitempty"`
}

// degenerateGapEV is the degeneracy gap at or below which ValidateWith
// does not read the outputs from the gap's ground key: with two keys that
// close, the ground key (the lowest-index minimum) and the canonical pick
// of an unpinned solve may read different outputs, so the pattern runs
// the solver as well.
const degenerateGapEV = 1e-9

// ValidateOptions tunes ValidateWith.
type ValidateOptions struct {
	// Solver names the sim ground-state solver ("" = automatic dispatch;
	// see sim.SolverNames).
	Solver string
	// Tracer receives concurrency-safe solver metrics; nil disables them.
	Tracer *obs.Tracer
	// Surface holds the surface defects in tile-local cell coordinates: a
	// defect at global cell (x, y) sits at (x-ox, y-oy) for the tile's
	// TileOrigin (ox, oy). Nil validates on a pristine surface.
	// Any design or emulation dot inside a defect's exclusion zone
	// fast-rejects the gate as FailDefectBlocked before any simulation;
	// charged defects outside exclusion zones enter the electrostatics as
	// fixed perturbers.
	Surface *defects.Surface
	// Ctx interrupts the validation when cancelled or past its deadline:
	// every solve and degeneracy-gap search runs under it, and ValidateWith
	// returns its error instead of finishing. Nil behaves like
	// context.Background.
	Ctx context.Context
}

// ValidateWith simulates the design standalone for every input pattern
// and compares the outputs with the truth function (bit i of the argument
// is input i; bit j of the result is output j). It fails only on an
// unknown solver name or when opts.Ctx ends; a solver that cannot handle
// an instance (e.g. ExGS beyond its enumeration limit) degrades to
// QuickSim for that pattern. On a pattern of at most sim.ExactLimit free
// dots the degeneracy gap's pinned searches run first; under auto and
// quickexact the ground key's configuration gives the outputs, and only a
// gap error or a gap at most degenerateGapEV runs the solver too.
func ValidateWith(d *Design, truth func(uint32) uint32, params sim.Params, opts ValidateOptions) (Validation, error) {
	solver, err := sim.Lookup(opts.Solver)
	if err != nil {
		return Validation{}, err
	}
	nIn := len(d.Ins)
	patterns := 1 << nIn
	v := Validation{OK: true, Outputs: make([]int, patterns), MinGapEV: 1e9}
	// groundFromGap: the exact engines' outputs are the gap's ground key's.
	groundFromGap := solver.Name() == "auto" || solver.Name() == "quickexact"
	// Exclusion-zone fast-reject: a defect too close to any design dot
	// makes the gate unfabricable — no simulation needed.
	if !opts.Surface.Empty() {
		for _, dot := range d.Layout(0, 0).Dots {
			if _, blocked := opts.Surface.Blocks(dot.Site); blocked {
				return blockedValidation(patterns), nil
			}
		}
	}
	for p := 0; p < patterns; p++ {
		l := patternLayout(d, p)
		free := 0
		for _, dot := range l.Dots {
			if dot.Role != sidb.RolePerturber {
				free++
			}
		}
		// The per-pattern emulation perturbers must be fabricable too.
		if !opts.Surface.Empty() {
			blocked := false
			for _, dot := range l.Dots {
				if _, b := opts.Surface.Blocks(dot.Site); b {
					blocked = true
					break
				}
			}
			if blocked {
				return blockedValidation(patterns), nil
			}
		}
		eng := sim.NewEngineOn(l, params, opts.Surface)
		idx := l.SiteIndex()
		var interest []int
		for _, out := range d.Outs {
			b := out.BDL()
			interest = append(interest, idx[b.Bit0], idx[b.Bit1])
		}
		// gapFound marks a degeneracy gap computed for this pattern.
		var (
			gs       []bool
			gap      float64
			gapFound bool
		)
		if free <= sim.ExactLimit {
			g, ground, err := eng.DegeneracyGap(opts.Ctx, interest, opts.Tracer)
			if canceled(err) {
				return Validation{}, fmt.Errorf("gatelib: validate pattern %d: %w", p, err)
			}
			gap, gapFound = g, err == nil
			// The output pairs are exactly the dots of interest, so a ground
			// key the gap sets apart reads the outputs of every ground state.
			if gapFound && groundFromGap && gap > degenerateGapEV {
				gs = ground
				v.Method = "quickexact"
				opts.Tracer.Counter("sim/quickexact/solves").Inc()
			}
		}
		if gs == nil {
			sol, serr := solver.Solve(eng, sim.SolveOptions{Tracer: opts.Tracer, Ctx: opts.Ctx})
			switch {
			case serr == nil:
				gs = sol.Charges
				v.Method = sol.Solver
			case opts.Ctx != nil && opts.Ctx.Err() != nil:
				return Validation{}, fmt.Errorf("gatelib: validate pattern %d: %w", p, opts.Ctx.Err())
			default:
				gs, _, _ = eng.QuickSim(context.Background())
				v.Method = "quicksim"
			}
		}
		got := 0
		valid := true
		for j, out := range d.Outs {
			state, err := out.BDL().State(idx, gs)
			if err != nil {
				valid = false
				break
			}
			if state {
				got |= 1 << j
			}
		}
		if !valid {
			v.Outputs[p] = -1
			v.OK = false
			continue
		}
		v.Outputs[p] = got
		if uint32(got) != truth(uint32(p)) {
			v.OK = false
		}
		if gapFound && gap < v.MinGapEV {
			v.MinGapEV = gap
		}
	}
	if v.MinGapEV == 1e9 {
		v.MinGapEV = 0
	}
	if !v.OK {
		v.FailKind = FailLogic
		// Attribute the failure: if the same gate works on a pristine
		// surface, the defects broke it. The pristine re-validation runs
		// only on the failure path, so working gates pay nothing.
		if !opts.Surface.Empty() {
			pristine := opts
			pristine.Surface = nil
			pv, perr := ValidateWith(d, truth, params, pristine)
			if perr != nil {
				return Validation{}, perr
			}
			if pv.OK {
				v.FailKind = FailDefectBlocked
				v.DefectBlocked = true
			}
		}
	}
	return v, nil
}

// canceled reports whether err comes from a cancelled or expired context.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// patternLayout is the design's standalone layout for input pattern p
// (bit i is input i): the emulation perturbers of every input, one
// read-out perturber per output and any extra downstream-emulation sites.
func patternLayout(d *Design, p int) *sidb.Layout {
	l := d.Layout(0, 0)
	for i, in := range d.Ins {
		for _, site := range InputEmulation(in, p>>i&1 == 1) {
			l.Add(site, sidb.RolePerturber)
		}
	}
	have := l.SiteIndex()
	for j, out := range d.Outs {
		site := OutputPerturber(out)
		if j < len(d.OutEmu) {
			site = d.OutEmu[j]
		}
		// Designs with built-in read-out perturbers (PO tiles) already
		// contain the emulation dot.
		if _, dup := have[site]; dup {
			continue
		}
		l.Add(site, sidb.RolePerturber)
	}
	// Extra downstream-emulation sites beyond one per output.
	if len(d.OutEmu) > len(d.Outs) {
		for _, site := range d.OutEmu[len(d.Outs):] {
			l.Add(site, sidb.RolePerturber)
		}
	}
	return l
}

// blockedValidation is the result of an exclusion-zone fast-reject: no
// simulation ran, every output is undefined.
func blockedValidation(patterns int) Validation {
	v := Validation{FailKind: FailDefectBlocked, DefectBlocked: true,
		Outputs: make([]int, patterns)}
	for i := range v.Outputs {
		v.Outputs[i] = -1
	}
	return v
}

// String summarizes the validation.
func (v Validation) String() string {
	return fmt.Sprintf("ok=%v outputs=%v gap=%.4feV method=%s", v.OK, v.Outputs, v.MinGapEV, v.Method)
}

// ValidateLibrary validates every design of the default library against
// its tile function's truth table and returns the results keyed by variant
// key.
func ValidateLibrary(params sim.Params) map[string]Validation {
	lib := NewLibrary()
	out := map[string]Validation{}
	for key, d := range lib.designs {
		f := lib.funcs[key]
		truth := TruthOf(f)
		out[key], _ = ValidateWith(d, truth, params, ValidateOptions{}) // auto always resolves
	}
	return out
}

// TruthOf returns the truth function of a tile function, treating PI and
// PO tiles as identity buffers of their externally driven pair.
func TruthOf(f gates.Func) func(uint32) uint32 {
	if f == gates.PI || f == gates.PO {
		return func(in uint32) uint32 { return in & 1 }
	}
	return func(in uint32) uint32 {
		bits := make([]bool, f.NumIns())
		for i := range bits {
			bits[i] = in>>i&1 == 1
		}
		var res uint32
		for j, v := range f.Eval(bits) {
			if v {
				res |= 1 << j
			}
		}
		return res
	}
}
