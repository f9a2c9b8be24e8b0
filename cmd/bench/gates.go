package main

import (
	"fmt"
	"time"

	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/sim"
)

// gateResult is one library variant's outcome in a child pass: the
// bare-tile solve of /v1/simulate {"gate"} and the validation of
// /v1/gates/validate, both with solver auto.
type gateResult struct {
	Variant    string  `json:"variant"`
	SolveMS    float64 `json:"solve_ms"`
	ValidateMS float64 `json:"validate_ms"`
	// Factor is the host factor of the two calls (see hostScale).
	Factor   float64  `json:"factor"`
	OK       bool     `json:"ok"`
	Method   string   `json:"method"`
	Degraded bool     `json:"degraded,omitempty"`
	Problems problems `json:"problems,omitempty"`
	// Heuristic results above the exact reference (reported, not failed).
	AboveRef int `json:"above_ref,omitempty"`
}

type gatesPass struct {
	Variants []gateResult `json:"variants"`
	// Solver counters read from the caller-supplied tracer (traced pass).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// runGatesPass is the child side of gates-cold.
func runGatesPass(job childJob) gatesPass {
	var out gatesPass
	golden, gerr := loadGatesGolden()
	auto, err := sim.Lookup("auto")
	if err != nil {
		gerr = err
	}
	lib := gatelib.NewLibrary()
	var tr *obs.Tracer
	if job.Trace {
		tr = obs.New()
	}
	h := newHostScale()
	for _, key := range job.Order {
		r := gateResult{Variant: key}
		d, f, ok := lib.Design(key)
		g, have := golden[key]
		if gerr != nil || !ok || !have {
			r.Problems.expect(false, "%s: design %v, reference %v, %v", key, ok, have, gerr)
			out.Variants = append(out.Variants, r)
			continue
		}
		start := time.Now()
		eng := sim.NewEngine(d.Layout(0, 0), sim.ParamsFig5)
		sol, err := auto.Solve(eng, sim.SolveOptions{Tracer: tr})
		r.SolveMS = msSince(start)
		if err != nil {
			r.Problems.expect(false, "%s: solve: %v", key, err)
		} else {
			r.Degraded = sol.Degraded
			if checkEnergy(&r.Problems, key+" bare", g.Bare, sol.EnergyEV, sol.Exact) {
				r.AboveRef++
			}
		}

		start = time.Now()
		v, err := gatelib.ValidateWith(d, gatelib.TruthOf(f), sim.ParamsFig5,
			gatelib.ValidateOptions{Solver: "auto", Tracer: tr})
		r.ValidateMS = msSince(start)
		r.Factor = h.next()
		if err != nil {
			r.Problems.expect(false, "%s: validate: %v", key, err)
		} else {
			r.OK, r.Method = v.OK, v.Method
			checkValidation(&r.Problems, key, g, v.OK, v.Outputs, v.Method)
		}
		if job.Trace {
			r.AboveRef += checkPatternEnergies(&r.Problems, d, key, g, auto)
		}
		out.Variants = append(out.Variants, r)
	}
	if tr != nil {
		out.Counters = map[string]int64{}
		for _, c := range []string{"sim/quickexact/solves", "sim/exgs/solves", "sim/anneal/solves"} {
			out.Counters[c] = tr.Counter(c).Value()
		}
	}
	return out
}

// checkPatternEnergies solves every input-pattern layout with solver auto,
// outside the timed calls, and checks each energy against its reference.
func checkPatternEnergies(p *problems, d *gatelib.Design, key string, g gateGolden, auto sim.GroundStateSolver) int {
	above := 0
	for i, ref := range g.Patterns {
		sol, err := auto.Solve(sim.NewEngine(patternLayout(d, i), sim.ParamsFig5), sim.SolveOptions{})
		if err != nil {
			p.expect(false, "%s pattern %d: %v", key, i, err)
			continue
		}
		if checkEnergy(p, fmt.Sprintf("%s pattern %d", key, i), ref, sol.EnergyEV, sol.Exact) {
			above++
		}
	}
	return above
}

// gatesCold runs the gates-cold workload: cfg.Passes untraced passes over
// the library variants, each in a fresh child, or with cfg.Trace one
// untraced and one traced pass.
func gatesCold(cfg config) (*outcome, error) {
	o := newOutcome()
	rng := newRand(cfg.Seed, streamOrder)
	setups, err := setupProbes(cfg.SetupProbes)
	if err != nil {
		return nil, err
	}
	passes := cfg.Passes
	if cfg.Trace {
		passes = 1
	}
	var suites, rawSuites, rss []float64
	perKey := map[string][]float64{}
	var cpu time.Duration
	for i := 0; i < passes; i++ {
		var gp gatesPass
		st, err := spawn(childJob{Kind: "gates", Order: permuted(cfg.Variants, rng)}, &gp)
		if err != nil {
			return nil, err
		}
		rss = append(rss, st.MaxRSSMiB)
		cpu = st.CPU
		var total, raw float64
		for _, v := range gp.Variants {
			o.record(v.Problems)
			perKey["simulate "+v.Variant] = append(perKey["simulate "+v.Variant], v.SolveMS*v.Factor)
			perKey["validate "+v.Variant] = append(perKey["validate "+v.Variant], v.ValidateMS*v.Factor)
			total += (v.SolveMS + v.ValidateMS) * v.Factor
			raw += v.SolveMS + v.ValidateMS
		}
		suites = append(suites, total/1000)
		rawSuites = append(rawSuites, raw/1000)
	}
	o.Detail["raw_suite_s"] = rawSuites
	if !cfg.Trace {
		coldEndToEnd(o, setups, suites, perKey, rss)
		return o, nil
	}

	var gp gatesPass
	if _, err := spawn(childJob{Kind: "gates", Order: permuted(cfg.Variants, rng), Trace: true}, &gp); err != nil {
		return nil, err
	}
	var solveS, validateS, tracedS, operational, degraded, above float64
	for _, v := range gp.Variants {
		o.record(v.Problems)
		solveS += v.SolveMS / 1000
		validateS += v.ValidateMS / 1000
		tracedS += (v.SolveMS + v.ValidateMS) * v.Factor / 1000
		if v.OK {
			operational++
		}
		if v.Degraded {
			degraded++
		}
		above += float64(v.AboveRef)
	}
	n := len(gp.Variants)
	o.set("sim.solve_s", solveS, n)
	o.set("gatelib.validate_s", validateS, n)
	o.set("sim.solves_quickexact", float64(gp.Counters["sim/quickexact/solves"]), n)
	o.set("sim.solves_exgs", float64(gp.Counters["sim/exgs/solves"]), n)
	o.set("sim.solves_anneal", float64(gp.Counters["sim/anneal/solves"]), n)
	o.set("sim.degraded", degraded, n)
	o.set("sim.heuristic_above_ref", above, n)
	o.set("gatelib.operational", operational, n)
	// CPU comes from the untraced pass: the traced child also re-solves
	// every input pattern for the energy checks.
	o.set("proc.cpu_ms_per_op", float64(cpu)/float64(time.Millisecond)/float64(2*n), 2*n)
	o.set("trace.overhead_pct", 100*(tracedS/suites[0]-1), n)
	o.Detail["traced_s"] = solveS + validateS
	return o, nil
}
