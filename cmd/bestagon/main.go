// Command bestagon runs the complete Bestagon design flow: it reads a
// logic specification (.bench or structural Verilog, or a named built-in
// benchmark), performs logic rewriting, technology mapping, placement &
// routing on a hexagonal row-clocked floor plan, formal verification,
// super-tile merging, gate-library application, and SiQAD export.
//
// Usage:
//
//	bestagon -bench c17 -o c17.sqd
//	bestagon -in design.bench -engine exact -o out.sqd
//	bestagon -in design.v -render
//	bestagon -bench c17 -trace -report c17-report.json
//	bestagon -bench mux21 -o - | siqad-import   # .sqd on stdout, pipeable
//
// Diagnostics always go to stderr. The run summary goes to stdout unless
// machine-readable output was directed there (-o - or -report -), in which
// case the summary moves to stderr so the pipe stays clean.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/core"
	"repro/internal/gates"
	"repro/internal/logic/bench"
	"repro/internal/logic/network"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	var (
		inFile    = flag.String("in", "", "input specification file (.bench or .v)")
		benchName = flag.String("bench", "", "built-in Table 1 benchmark name")
		engine    = flag.String("engine", "auto", "physical design engine: auto, exact, ortho")
		out       = flag.String("o", "", "output SiQAD .sqd file ('-' for stdout)")
		render    = flag.Bool("render", false, "print the gate-level layout as ASCII art")
		noRewrite = flag.Bool("no-rewrite", false, "skip the logic rewriting step")
		gateLevel = flag.Bool("gate-level", false, "stop after verification (no cell-level layout)")
		list      = flag.Bool("list", false, "list built-in benchmarks and exit")
		cellSim   = flag.Bool("cellsim", false, "ground-state simulate the final SiDB layout (flow step 7 1/2)")
		solver    = flag.String("solver", "", "ground-state solver for -cellsim: "+strings.Join(sim.SolverNames(), ", ")+" (default auto)")
		trace     = flag.Bool("trace", false, "print the per-stage timing tree to stderr")
		report    = flag.String("report", "", "write a machine-readable JSON run report to FILE ('-' for stdout)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to FILE")
		memprof   = flag.String("memprofile", "", "write a heap profile to FILE")
	)
	flag.Parse()

	if *list {
		for _, b := range bench.Benchmarks {
			fmt.Printf("%-16s %-12s paper: %dx%d, %d SiDBs, %.2f nm2\n",
				b.Name, b.Suite, b.PaperW, b.PaperH, b.PaperSiDBs, b.PaperArea)
		}
		return
	}

	// The summary goes to stdout unless machine-readable output claims it.
	var msg io.Writer = os.Stdout
	if *out == "-" || *report == "-" {
		msg = os.Stderr
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	x, err := loadSpec(*inFile, *benchName)
	if err != nil {
		fatal(err)
	}

	opts := core.Options{
		SkipRewrite:   *noRewrite,
		SkipCellLevel: *gateLevel,
		CellSim:       *cellSim,
		GroundSolver:  *solver,
	}
	switch *engine {
	case "auto":
		opts.Engine = core.EngineAuto
	case "exact":
		opts.Engine = core.EngineExact
	case "ortho":
		opts.Engine = core.EngineOrtho
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}

	// A tracer is only attached when telemetry was requested; library users
	// and plain runs keep the free nil-tracer path.
	var tr *obs.Tracer
	if *trace || *report != "" {
		tr = obs.New()
		opts.Tracer = tr
	}

	res, err := core.Run(x, opts)
	if err != nil {
		emitTelemetry(tr, x.Name, *trace, *report)
		fatal(err)
	}

	fmt.Fprintf(msg, "specification : %v\n", res.Spec)
	fmt.Fprintf(msg, "rewritten     : %v\n", res.Rewritten)
	fmt.Fprintf(msg, "mapped        : %v\n", res.Mapped)
	fmt.Fprintf(msg, "layout        : %v [%s engine]\n", res.Layout, res.EngineUsed)
	fmt.Fprintf(msg, "verification  : equivalent (SAT, %d conflicts)\n", res.Verification.Conflicts)
	fmt.Fprintf(msg, "super-tiles   : %d rows per clock electrode (%.2f nm pitch)\n",
		res.SuperTiles.RowsPerSuperTile, res.SuperTiles.PitchNM)
	fmt.Fprintf(msg, "area          : %.2f nm2 (%dx%d tiles)\n", res.AreaNM2, res.Layout.Width(), res.Layout.Height())
	if res.CellLayout != nil {
		fmt.Fprintf(msg, "SiDBs         : %d\n", res.SiDBs)
	}
	if res.CellSim != nil {
		kind := "best-found"
		if res.CellSim.Exact {
			kind = "exact"
		}
		fmt.Fprintf(msg, "cell sim      : E = %.6f eV (%s, %s solver, %d free dots)\n",
			res.CellSim.EnergyEV, kind, res.CellSim.Solver, res.CellSim.FreeDots)
	}
	counts := res.Layout.GateCounts()
	var parts []string
	for _, f := range gates.All() {
		if n := counts[f]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", f, n))
		}
	}
	fmt.Fprintf(msg, "tiles         : %s\n", strings.Join(parts, " "))

	if *render {
		fmt.Fprintln(msg)
		fmt.Fprintln(msg, res.Layout.Render())
	}
	if *out != "" {
		doc, err := res.ExportSQD()
		if err != nil {
			fatal(err)
		}
		if *out == "-" {
			fmt.Print(doc)
		} else {
			if err := os.WriteFile(*out, []byte(doc), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "bestagon: wrote %s\n", *out)
		}
	}

	emitTelemetry(tr, x.Name, *trace, *report)

	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// emitTelemetry renders the -trace tree and writes the -report file. It is
// also called on flow errors so partial telemetry is never lost.
func emitTelemetry(tr *obs.Tracer, name string, trace bool, reportPath string) {
	if tr == nil {
		return
	}
	rep := tr.Report(name)
	if trace {
		fmt.Fprint(os.Stderr, rep.RenderTree())
	}
	if reportPath == "" {
		return
	}
	data, err := rep.JSON()
	if err != nil {
		fatal(err)
	}
	if reportPath == "-" {
		fmt.Printf("%s\n", data)
		return
	}
	if err := os.WriteFile(reportPath, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bestagon: wrote %s\n", reportPath)
}

// loadSpec loads the requested specification.
func loadSpec(inFile, benchName string) (*network.XAG, error) {
	switch {
	case benchName != "":
		return bench.Load(benchName)
	case inFile != "":
		data, err := os.ReadFile(inFile)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(inFile), filepath.Ext(inFile))
		if strings.HasSuffix(inFile, ".v") {
			return bench.ParseVerilog(string(data))
		}
		return bench.ParseBench(name, string(data))
	default:
		return nil, fmt.Errorf("specify -in FILE or -bench NAME (see -list)")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bestagon:", err)
	os.Exit(1)
}
