package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/gatelib"
	"repro/internal/gates"
	"repro/internal/sidb"
	"repro/internal/sim"
)

// Reference answers the runs are checked against. Regenerate both with
//
//	go test -run 'TestGatesGolden|TestFlowsGolden' -update
//
// from cmd/bench after a deliberate change to the gate library or to the
// flow's layouts.
var (
	//go:embed testdata/gates.golden.json
	gatesGoldenJSON []byte
	//go:embed testdata/flows.golden.json
	flowsGoldenJSON []byte
)

// energyTol is the agreement required of an exact ground-state energy.
const energyTol = 1e-9

// gateRef is the exact ground state of one simulated layout.
type gateRef struct {
	// Key is the service's canonical simulation key of the layout, so an
	// entry visibly goes stale when a tile design changes.
	Key      string  `json:"key"`
	FreeDots int     `json:"free_dots"`
	Solver   string  `json:"solver"`
	EnergyEV float64 `json:"energy_ev"`
	// Outputs is the output vector the exact validation read for this
	// pattern (-1 when an output pair is undefined); input patterns only.
	Outputs int `json:"outputs"`
}

// gateGolden holds a library variant's references: the bare tile (the
// work of /v1/simulate {"gate"}) and one entry per input pattern (the
// layouts gatelib.ValidateWith simulates).
type gateGolden struct {
	Bare     gateRef   `json:"bare"`
	Patterns []gateRef `json:"patterns"`
	// OK reports that the reference outputs match the truth table.
	OK bool `json:"ok"`
}

// flowGolden is a Table 1 layout's size and engine.
type flowGolden struct {
	Width  int    `json:"width"`
	Height int    `json:"height"`
	Engine string `json:"engine"`
}

func loadGatesGolden() (map[string]gateGolden, error) {
	var g map[string]gateGolden
	if err := json.Unmarshal(gatesGoldenJSON, &g); err != nil {
		return nil, fmt.Errorf("gates golden: %w", err)
	}
	return g, nil
}

func loadFlowsGolden() (map[string]flowGolden, error) {
	var g map[string]flowGolden
	if err := json.Unmarshal(flowsGoldenJSON, &g); err != nil {
		return nil, fmt.Errorf("flows golden: %w", err)
	}
	return g, nil
}

// patternLayout builds the layout gatelib.ValidateWith simulates for input
// pattern p: the tile plus its input-emulation and output perturbers. It
// mirrors the loop body of ValidateWith in internal/gatelib/validate.go,
// which does not export it; the per-pattern energy references need it.
// TestGatesGolden recomputes small variants' outputs through ValidateWith
// itself, so a change to the emulation there shows as a stale reference.
func patternLayout(d *gatelib.Design, p int) *sidb.Layout {
	l := d.Layout(0, 0)
	for i, in := range d.Ins {
		for _, site := range gatelib.InputEmulation(in, p>>i&1 == 1) {
			l.Add(site, sidb.RolePerturber)
		}
	}
	have := l.SiteIndex()
	for j, out := range d.Outs {
		site := gatelib.OutputPerturber(out)
		if j < len(d.OutEmu) {
			site = d.OutEmu[j]
		}
		if _, dup := have[site]; !dup {
			l.Add(site, sidb.RolePerturber)
		}
	}
	if len(d.OutEmu) > len(d.Outs) {
		for _, site := range d.OutEmu[len(d.Outs):] {
			l.Add(site, sidb.RolePerturber)
		}
	}
	return l
}

// referenceSolve finds the exact ground-state energy of l: exhaustive
// enumeration (ExGS) up to sim.ExactLimit free dots, the pruned exact
// QuickExact engine beyond.
func referenceSolve(l *sidb.Layout) (gateRef, error) {
	eng := sim.NewEngine(l, sim.ParamsFig5)
	key, _ := cache.SimKey(eng, "exgs")
	ref := gateRef{Key: string(key), FreeDots: len(eng.FreeIndices()), Solver: "exgs"}
	if ref.FreeDots > sim.ExactLimit {
		ref.Solver = "quickexact"
	}
	solver, err := sim.Lookup(ref.Solver)
	if err != nil {
		return ref, err
	}
	sol, err := solver.Solve(eng, sim.SolveOptions{})
	ref.EnergyEV = sol.EnergyEV
	return ref, err
}

// referenceValidation validates d with the exact solver its size calls
// for (the input patterns add only perturbers, so the bare tile's free-dot
// count decides).
func referenceValidation(d *gatelib.Design, f gates.Func, solver string) (gatelib.Validation, error) {
	v, err := gatelib.ValidateWith(d, gatelib.TruthOf(f), sim.ParamsFig5, gatelib.ValidateOptions{Solver: solver})
	if err == nil && v.Method != solver {
		err = fmt.Errorf("validation fell back from %s to %s", solver, v.Method)
	}
	return v, err
}

// buildGateGolden computes the references of one library variant: exact
// energies of the bare tile and of each input pattern's layout, and the
// outputs and verdict of an exact gatelib.ValidateWith.
func buildGateGolden(lib *gatelib.Library, variant string) (gateGolden, error) {
	d, f, ok := lib.Design(variant)
	if !ok {
		return gateGolden{}, fmt.Errorf("unknown variant %s", variant)
	}
	var g gateGolden
	var err error
	if g.Bare, err = referenceSolve(d.Layout(0, 0)); err != nil {
		return g, err
	}
	v, err := referenceValidation(d, f, g.Bare.Solver)
	if err != nil {
		return g, fmt.Errorf("%s: %w", variant, err)
	}
	g.OK = v.OK
	for p := 0; p < 1<<len(d.Ins); p++ {
		ref, err := referenceSolve(patternLayout(d, p))
		if err != nil {
			return g, err
		}
		ref.Outputs = v.Outputs[p]
		g.Patterns = append(g.Patterns, ref)
	}
	return g, nil
}

// checkEnergy checks a solver result against its reference: an exact
// result must match it, a heuristic one may not undercut it. It reports
// whether a heuristic result sits above the reference.
func checkEnergy(p *problems, what string, ref gateRef, energy float64, exact bool) (above bool) {
	if exact {
		p.expect(math.Abs(energy-ref.EnergyEV) <= energyTol,
			"%s: exact energy %.12f eV, reference %.12f eV", what, energy, ref.EnergyEV)
		return false
	}
	p.expect(energy >= ref.EnergyEV-energyTol,
		"%s: heuristic energy %.12f eV below the exact reference %.12f eV", what, energy, ref.EnergyEV)
	return energy > ref.EnergyEV+energyTol
}

// checkValidation checks a validation against the references. With an
// exact method the outputs and the verdict must match them; heuristic
// validations are reported, not compared.
func checkValidation(p *problems, variant string, g gateGolden, ok bool, outputs []int, method string) {
	solver, err := sim.Lookup(method)
	if err != nil || !solver.IsExact() {
		return
	}
	p.expect(ok == g.OK, "%s: validation ok=%v, reference ok=%v", variant, ok, g.OK)
	p.expect(len(outputs) == len(g.Patterns), "%s: %d patterns, reference %d", variant, len(outputs), len(g.Patterns))
	for i := 0; i < len(outputs) && i < len(g.Patterns); i++ {
		p.expect(outputs[i] == g.Patterns[i].Outputs,
			"%s pattern %d: output %d, reference %d", variant, i, outputs[i], g.Patterns[i].Outputs)
	}
}

// checkDims requires a Table 1 layout to be no larger than its reference.
func checkDims(p *problems, golden map[string]flowGolden, name string, w, h int) {
	g, ok := golden[name]
	if !ok {
		p.expect(false, "%s: no reference layout size", name)
		return
	}
	p.expect(w*h <= g.Width*g.Height, "%s: layout %dx%d, reference %dx%d", name, w, h, g.Width, g.Height)
}
