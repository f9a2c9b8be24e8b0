// Package repro's top-level benchmarks regenerate every table and figure
// of the Bestagon paper (see EXPERIMENTS.md for the experiment index):
//
//	BenchmarkTable1/<name>  - Table 1 rows: full flow per benchmark circuit
//	BenchmarkFig1cORGate    - Fig. 1c: OR-gate ground states (μ=-0.28 eV)
//	BenchmarkFig2Clocking   - Fig. 2: clocked-wire phase simulation
//	BenchmarkFig3Topology   - Fig. 3: Cartesian vs hexagonal Y-gate fit
//	BenchmarkFig4SuperTiles - Fig. 4: tile template + super-tile plan
//	BenchmarkFig5GateLibrary- Fig. 5: gate library ground-state validation
//	BenchmarkFig6ParCheck   - Fig. 6: par_check synthesis + rendering
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/gatelib"
	"repro/internal/lattice"
	"repro/internal/logic/bench"
	"repro/internal/obs"
	"repro/internal/pnr"
	"repro/internal/sidb"
	"repro/internal/sim"
)

// table1Result caches per-benchmark flow outputs so repeated bench
// iterations measure the flow, not the ramp-up.
func runFlow(b *testing.B, name string) *core.Result {
	b.Helper()
	res, err := core.RunBenchmark(name, core.Options{
		Exact: pnr.ExactOptions{ConflictBudget: 150000},
	})
	if err != nil {
		b.Fatalf("%s: %v", name, err)
	}
	return res
}

// BenchmarkTable1 regenerates every Table 1 row: the complete flow from
// logic specification to verified SiDB layout.
func BenchmarkTable1(b *testing.B) {
	for _, bm := range bench.Benchmarks {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = runFlow(b, bm.Name)
			}
			l := res.Layout
			b.ReportMetric(float64(l.Width()), "tiles_w")
			b.ReportMetric(float64(l.Height()), "tiles_h")
			b.ReportMetric(float64(l.Area()), "tiles")
			b.ReportMetric(float64(res.SiDBs), "SiDBs")
			b.ReportMetric(res.AreaNM2, "nm2")
			b.ReportMetric(float64(bm.PaperW*bm.PaperH), "paper_tiles")
			b.ReportMetric(float64(bm.PaperSiDBs), "paper_SiDBs")
			b.ReportMetric(bm.PaperArea, "paper_nm2")
		})
	}
}

// BenchmarkFig1cORGate simulates the recreated OR gate for all four input
// combinations at the Fig. 1c parameters.
func BenchmarkFig1cORGate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := figures.Fig1c(io.Discard, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Clocking runs the four-phase clocked-wire simulation.
func BenchmarkFig2Clocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := figures.Fig2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Topology computes the Y-gate port-fit comparison.
func BenchmarkFig3Topology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := figures.Fig3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4SuperTiles reports the tile template and super-tile plan.
func BenchmarkFig4SuperTiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := figures.Fig4(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5GateLibrary validates the complete gate library with
// ground-state simulation at the Fig. 5 parameters and reports how many
// designs operate correctly.
func BenchmarkFig5GateLibrary(b *testing.B) {
	var okCount, total int
	for i := 0; i < b.N; i++ {
		results := gatelib.ValidateLibrary(sim.ParamsFig5)
		okCount, total = 0, 0
		for _, v := range results {
			total++
			if v.OK {
				okCount++
			}
		}
	}
	b.ReportMetric(float64(okCount), "gates_ok")
	b.ReportMetric(float64(total), "gates_total")
}

// BenchmarkFig6ParCheck synthesizes the paper's showcase par_check layout.
func BenchmarkFig6ParCheck(b *testing.B) {
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res = runFlow(b, "par_check")
	}
	b.ReportMetric(float64(res.Layout.Area()), "tiles")
	b.ReportMetric(float64(res.SiDBs), "SiDBs")
}

// BenchmarkAblationEngines compares exact vs scalable physical design on
// the small benchmarks (the design-choice study DESIGN.md calls out).
func BenchmarkAblationEngines(b *testing.B) {
	for _, name := range []string{"xor2", "par_gen", "mux21"} {
		name := name
		for _, engine := range []struct {
			label string
			e     core.Engine
		}{{"exact", core.EngineExact}, {"ortho", core.EngineOrtho}} {
			engine := engine
			b.Run(fmt.Sprintf("%s/%s", name, engine.label), func(b *testing.B) {
				var res *core.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = core.RunBenchmark(name, core.Options{
						Engine:        engine.e,
						SkipCellLevel: true,
						Exact:         pnr.ExactOptions{ConflictBudget: 150000},
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.Layout.Area()), "tiles")
			})
		}
	}
}

// BenchmarkAblationRewriting measures the gate-count effect of the exact
// NPN rewriting step (flow step 2).
func BenchmarkAblationRewriting(b *testing.B) {
	for _, name := range []string{"xor5_majority", "mux21", "t_5"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var with, without *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				with, err = core.RunBenchmark(name, core.Options{Engine: core.EngineOrtho, SkipCellLevel: true})
				if err != nil {
					b.Fatal(err)
				}
				without, err = core.RunBenchmark(name, core.Options{
					Engine: core.EngineOrtho, SkipRewrite: true, SkipCellLevel: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(with.Rewritten.NumGates()), "gates_rewritten")
			b.ReportMetric(float64(without.Rewritten.NumGates()), "gates_raw")
			b.ReportMetric(float64(with.Layout.Area()), "tiles_rewritten")
			b.ReportMetric(float64(without.Layout.Area()), "tiles_raw")
		})
	}
}

// BenchmarkAblationXAGvsAIG quantifies the paper's data-structure choice
// (footnote 1): XAGs yield more compact networks and layouts than AIGs on
// parity-heavy circuits because the Bestagon library has native XOR tiles.
func BenchmarkAblationXAGvsAIG(b *testing.B) {
	// cm82a_5's AIG exceeds the scalable router's congestion limits (a
	// documented fabric limitation); t exercises a comparable size.
	for _, name := range []string{"xor5_r1", "par_check", "t"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var xagGates, aigGates, xagTiles, aigTiles int
			for i := 0; i < b.N; i++ {
				x, err := bench.Load(name)
				if err != nil {
					b.Fatal(err)
				}
				xag, err := core.Run(x, core.Options{Engine: core.EngineOrtho, SkipCellLevel: true})
				if err != nil {
					b.Fatal(err)
				}
				aig, err := core.Run(x.ToAIG(), core.Options{
					Engine: core.EngineOrtho, SkipRewrite: true, SkipCellLevel: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				xagGates, aigGates = xag.Rewritten.NumGates(), aig.Rewritten.NumGates()
				xagTiles, aigTiles = xag.Layout.Area(), aig.Layout.Area()
			}
			b.ReportMetric(float64(xagGates), "xag_gates")
			b.ReportMetric(float64(aigGates), "aig_gates")
			b.ReportMetric(float64(xagTiles), "xag_tiles")
			b.ReportMetric(float64(aigTiles), "aig_tiles")
		})
	}
}

// TestInstrumentedPathsRace drives the telemetry-instrumented hot paths
// (QuickSim solves, SAT search, the full flow) from concurrent goroutines
// sharing one tracer. Under `go test -race` this checks that the metric
// counters and span bookkeeping added for observability are data-race
// free. It runs in short mode so `go test -race -short ./...` covers it.
func TestInstrumentedPathsRace(t *testing.T) {
	tr := obs.New()

	// A small free-dot chain keeps each solve fast.
	mkLayout := func() *sidb.Layout {
		l := &sidb.Layout{}
		for i := 0; i < 5; i++ {
			l.Add(lattice.FromCell(i*4, 0), sidb.RoleNormal)
		}
		return l
	}

	solver, err := sim.Lookup("quicksim")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := sim.NewEngine(mkLayout(), sim.ParamsFig5)
			if _, err := solver.Solve(eng, sim.SolveOptions{Tracer: tr}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := core.RunBenchmark("xor2", core.Options{
			Tracer:        tr,
			Engine:        core.EngineExact,
			SkipCellLevel: true,
			Exact:         pnr.ExactOptions{ConflictBudget: 150000},
		}); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	rep := tr.Report("race")
	if n := rep.Counter("sim/quicksim/solves"); n != 4 {
		t.Errorf("quicksim solves = %d, want 4", n)
	}
	if rep.Counter("sat/propagations") == 0 {
		t.Error("no SAT telemetry recorded")
	}
	if _, err := rep.JSON(); err != nil {
		t.Errorf("concurrent-run report not serializable: %v", err)
	}
}
