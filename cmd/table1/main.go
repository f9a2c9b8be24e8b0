// Command table1 regenerates Table 1 of the Bestagon paper: for every
// benchmark of the trindade16 and fontes18 suites it runs the full design
// flow and reports layout dimensions (in hexagonal tiles), SiDB count, and
// area in nm², next to the paper's published values. With -timings (the
// default) each row is followed by a per-stage wall-clock breakdown taken
// from the flow's telemetry tracer.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/logic/bench"
	"repro/internal/obs"
	"repro/internal/pnr"
	"repro/internal/sim"
)

func main() {
	var (
		engine        = flag.String("engine", "auto", "physical design engine: auto, exact, ortho")
		budget        = flag.Int64("budget", 0, "SAT conflict budget per exact attempt (0 = default)")
		maxArea       = flag.Int("max-area", 0, "maximum explored tile area for exact search")
		only          = flag.String("only", "", "run a single benchmark")
		timings       = flag.Bool("timings", true, "print per-benchmark stage timings")
		cellSim       = flag.Bool("cellsim", false, "ground-state simulate each final SiDB layout")
		solver        = flag.String("solver", "", "ground-state solver for -cellsim: "+strings.Join(sim.SolverNames(), ", ")+" (default auto)")
		allowDegraded = flag.Bool("allow-degraded", false, "tolerate simulations that silently degraded to annealing (otherwise exit nonzero: degraded data must not pass as exact gate validation)")
	)
	flag.Parse()

	opts := core.Options{
		Exact:        pnr.ExactOptions{ConflictBudget: *budget, MaxArea: *maxArea},
		CellSim:      *cellSim,
		GroundSolver: *solver,
	}
	switch *engine {
	case "auto":
		opts.Engine = core.EngineAuto
	case "exact":
		opts.Engine = core.EngineExact
	case "ortho":
		opts.Engine = core.EngineOrtho
	default:
		fmt.Fprintln(os.Stderr, "unknown engine", *engine)
		os.Exit(1)
	}

	fmt.Println("Table 1: generated layout data (this reproduction vs. paper)")
	fmt.Println()
	fmt.Printf("%-5s %-14s | %-22s | %-22s | %s\n", "", "Name",
		"repro  w x h =  A  SiDBs", "paper  w x h =  A  SiDBs", "repro nm2 / paper nm2")
	fmt.Println(strings.Repeat("-", 96))
	var failed []string
	for _, b := range bench.Benchmarks {
		if *only != "" && b.Name != *only {
			continue
		}
		runOpts := opts
		var tr *obs.Tracer
		if *timings {
			tr = obs.New()
			runOpts.Tracer = tr
		}
		res, err := core.RunBenchmark(b.Name, runOpts)
		if err != nil {
			fmt.Printf("[%s] %-14s | FAILED: %v\n", b.Suite[:4], b.Name, err)
			failed = append(failed, b.Name)
			continue
		}
		l := res.Layout
		fmt.Printf("[%s] %-14s | %2dx%-2d =%3d  %5d SiDBs | %2dx%-2d =%3d  %5d SiDBs | %10.2f / %10.2f  (%s)\n",
			b.Suite[:4], b.Name,
			l.Width(), l.Height(), l.Area(), res.SiDBs,
			b.PaperW, b.PaperH, b.PaperW*b.PaperH, b.PaperSiDBs,
			res.AreaNM2, b.PaperArea, res.EngineUsed)
		if res.CellSim != nil {
			kind := "best-found"
			if res.CellSim.Exact {
				kind = "exact"
			}
			if res.CellSim.Degraded {
				kind = "best-found, DEGRADED"
			}
			fmt.Printf("      cell sim: E = %.6f eV (%s, %s solver, %d free dots)\n",
				res.CellSim.EnergyEV, kind, res.CellSim.Solver, res.CellSim.FreeDots)
		}
		if tr != nil {
			fmt.Printf("      %s\n", stageTimings(tr.Report(b.Name)))
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "table1: %d benchmark(s) failed: %s\n",
			len(failed), strings.Join(failed, ", "))
		os.Exit(1)
	}
	// A degraded simulation means some reported energy is best-found, not
	// provably minimal — data that must not silently certify gate behavior.
	if d := sim.Degrades.Value(); d > 0 && !*allowDegraded {
		fmt.Fprintf(os.Stderr, "table1: %d simulation(s) degraded to annealing; results are not exact "+
			"(rerun with -allow-degraded to accept best-found energies)\n", d)
		os.Exit(1)
	}
}

// stageTimings renders a compact one-line stage breakdown of a run report.
func stageTimings(rep *obs.RunReport) string {
	var parts []string
	for _, stage := range []string{"rewrite", "mapping", "expand", "pnr", "drc", "verify", "gatelib/apply"} {
		if s := rep.Stage(stage); s != nil {
			parts = append(parts, fmt.Sprintf("%s %.1fms", stage, s.Seconds*1e3))
		}
	}
	total := ""
	if f := rep.Stage("flow"); f != nil {
		total = fmt.Sprintf("  total %.1fms", f.Seconds*1e3)
	}
	if sizes := rep.Counter("pnr/exact/sizes_tried"); sizes > 0 {
		total += fmt.Sprintf("  (exact sizes tried %d, SAT conflicts %d)",
			sizes, rep.Counter("sat/conflicts"))
	}
	return "timings: " + strings.Join(parts, "  ") + total
}
