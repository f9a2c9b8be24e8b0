package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/gatelib"
	"repro/internal/logic/bench"
	"repro/internal/service"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "regenerate testdata/*.golden.json")

// TestMain lets the test binary serve as the cold workloads' child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.51, 6}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10}, {0, 1},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 28, 56, 999, 1000, 5000} {
		q := tailQuantile(n)
		if q > 0.99 {
			t.Errorf("n=%d: quantile %v above p99", n, q)
		}
		rank := int(math.Ceil(q * float64(n)))
		if n-rank < 10 {
			t.Errorf("n=%d: q=%v leaves %d samples beyond", n, q, n-rank)
		}
		if n >= 1000 && q != 0.99 {
			t.Errorf("n=%d: q=%v, want p99", n, q)
		}
	}
	if q := tailQuantile(10); q != 1 {
		t.Errorf("n=10: q=%v, want the maximum", q)
	}
}

func TestGeneratorsReproducibleAndFresh(t *testing.T) {
	draw := func(seed int64) []string {
		g := newFreshGen(seed)
		var out []string
		for i := 0; i < 200; i++ {
			kind := []string{"simulate", "flow"}[i%2]
			r := g.next(kind)
			out = append(out, string(r.Body))
		}
		return out
	}
	a, b := draw(7), draw(7)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("same seed drew different fresh requests")
	}
	if strings.Join(a, "\n") == strings.Join(draw(8), "\n") {
		t.Fatal("different seeds drew the same fresh requests")
	}
	seen := map[cache.Key]bool{}
	g := newFreshGen(3)
	for i := 0; i < 400; i++ {
		r := g.next([]string{"simulate", "flow"}[i%2])
		var key cache.Key
		if r.Kind == "simulate" {
			key, _ = cache.SimKey(sim.NewEngine(dotLayout(r.Dots), sim.ParamsFig5), "auto")
			if n := len(r.Dots); n < 6 || n > 12 {
				t.Fatalf("%d dots", n)
			}
		} else {
			spec, err := bench.ParseBench("inline", r.Source)
			if err != nil {
				t.Fatal(err)
			}
			if spec.NumPIs() < 3 || spec.NumPIs() > 4 {
				t.Fatalf("%d inputs", spec.NumPIs())
			}
			if gates := strings.Count(r.Source, " = "); gates < 3 || gates > 8 {
				t.Fatalf("%d gates", gates)
			}
			key = cache.FlowKey(spec, flowOptions(), false, false)
		}
		if seen[key] {
			t.Fatalf("fresh key repeated at draw %d", i)
		}
		seen[key] = true
	}
	p1 := permuted(bench.Names(), newRand(5, streamOrder))
	p2 := permuted(bench.Names(), newRand(5, streamOrder))
	if strings.Join(p1, ",") != strings.Join(p2, ",") {
		t.Fatal("same seed gave different circuit orders")
	}
}

// TestPlanFixedComposition checks that a serve plan has the same fresh and
// warm counts and the same fresh flows for every seed, in an order the
// seed reproduces.
func TestPlanFixedComposition(t *testing.T) {
	keys := warmKeys([]string{"xor2", "c17"}, []string{"pi:oSE", "po:iNW"})
	plan := func(seed int64) []request {
		return planRequests(newRand(seed, streamPlan), 400, 0.25, keys, newFreshGen(seed), newFreshGen(flowPoolSeed))
	}
	describe := func(p []request) (order string, flows map[string]bool, fresh int) {
		var b strings.Builder
		flows = map[string]bool{}
		for _, q := range p {
			path, body := q.target()
			b.WriteString(path + string(body) + "\n")
			if q.fresh != nil {
				fresh++
				if q.fresh.Kind == "flow" {
					flows[q.fresh.Source] = true
				}
			}
		}
		return b.String(), flows, fresh
	}
	a, flowsA, freshA := describe(plan(1))
	b, _, _ := describe(plan(1))
	c, flowsC, freshC := describe(plan(2))
	if a != b {
		t.Fatal("same seed planned different requests")
	}
	if a == c {
		t.Fatal("different seeds planned the same order")
	}
	if freshA != 100 || freshC != 100 || len(flowsA) != 50 {
		t.Fatalf("fresh requests %d and %d, distinct flows %d; want 100, 100, 50", freshA, freshC, len(flowsA))
	}
	for src := range flowsA {
		if !flowsC[src] {
			t.Fatal("the fresh flows differ between seeds")
		}
	}
}

// TestMetricsMatchDeclaration keeps BENCHMARK.json and the metrics the
// benchmark prints one-to-one.
func TestMetricsMatchDeclaration(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("declared %d workloads, benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: declared %q (%q), benchmark %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("declared %d end-to-end metrics, benchmark prints %d", len(decl.EndToEnd), len(endToEnd))
	}
	for i, d := range decl.EndToEnd {
		m := endToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end %d: declared %+v, benchmark %+v", i, d, m)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d per-layer metrics, benchmark prints %d", len(decl.PerLayer), len(perLayer))
	}
	for i, d := range decl.PerLayer {
		m := perLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer %d: declared %+v, benchmark %+v", i, d, m)
		}
	}
}

// TestGatesGolden checks the gate references against the library: every
// variant has an entry whose layouts match the current designs, and the
// entries small enough to enumerate quickly are recomputed. With -update
// it rewrites the file from exact solves of every layout.
func TestGatesGolden(t *testing.T) {
	lib := gatelib.NewLibrary()
	variants := lib.Variants()
	sort.Strings(variants)
	if *update {
		out := map[string]gateGolden{}
		for _, v := range variants {
			g, err := buildGateGolden(lib, v)
			if err != nil {
				t.Fatal(err)
			}
			out[v] = g
		}
		writeGolden(t, "gates.golden.json", out)
		return
	}
	golden, err := loadGatesGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(variants) {
		t.Fatalf("golden has %d variants, library %d (regenerate with -update)", len(golden), len(variants))
	}
	for _, v := range variants {
		g, ok := golden[v]
		if !ok {
			t.Fatalf("no golden entry for %s (regenerate with -update)", v)
		}
		d, f, _ := lib.Design(v)
		for p, ref := range g.Patterns {
			key, _ := cache.SimKey(sim.NewEngine(patternLayout(d, p), sim.ParamsFig5), "exgs")
			if string(key) != ref.Key {
				t.Fatalf("%s pattern %d: layout changed since the golden was made (regenerate with -update)", v, p)
			}
		}
		key, _ := cache.SimKey(sim.NewEngine(d.Layout(0, 0), sim.ParamsFig5), "exgs")
		if string(key) != g.Bare.Key {
			t.Fatalf("%s: tile changed since the golden was made (regenerate with -update)", v)
		}
		if g.Bare.FreeDots > 14 {
			continue
		}
		// Small enough to recompute: the bare energy, and the outputs and
		// verdict of gatelib's own exact validation.
		ref, err := referenceSolve(d.Layout(0, 0))
		if err != nil || math.Abs(ref.EnergyEV-g.Bare.EnergyEV) > energyTol {
			t.Errorf("%s: recomputed %v (%v), golden %v", v, ref.EnergyEV, err, g.Bare.EnergyEV)
		}
		val, err := referenceValidation(d, f, g.Bare.Solver)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if val.OK != g.OK {
			t.Errorf("%s: validation ok=%v, golden %v (regenerate with -update)", v, val.OK, g.OK)
		}
		for p, ref := range g.Patterns {
			if val.Outputs[p] != ref.Outputs {
				t.Errorf("%s pattern %d: validation output %d, golden %d (regenerate with -update)", v, p, val.Outputs[p], ref.Outputs)
			}
		}
	}
}

// TestFlowsGolden checks the small Table 1 layouts against the reference
// sizes; with -update it reruns every circuit and rewrites the file.
func TestFlowsGolden(t *testing.T) {
	names := []string{"xor2", "xnor2", "par_gen", "mux21", "par_check", "c17"}
	if *update {
		names = bench.Names()
	}
	pass := runFlowPass(childJob{Kind: "flow", Order: names})
	out := map[string]flowGolden{}
	for _, c := range pass.Circuits {
		if *update {
			if c.Width == 0 {
				t.Fatalf("%s: %v", c.Name, c.Problems)
			}
			out[c.Name] = flowGolden{Width: c.Width, Height: c.Height, Engine: c.Engine}
			continue
		}
		if len(c.Problems) > 0 {
			t.Errorf("%s: %v", c.Name, c.Problems)
		}
	}
	if *update {
		writeGolden(t, "flows.golden.json", out)
	}
}

func writeGolden(t *testing.T, name string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", name), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// inProcessStarter serves the real service handler from httptest, with
// the journal and cache of a durable server under dir.
func inProcessStarter(durable bool, dir string) (*server, error) {
	cfg := service.Config{Workers: 2}
	s := &server{PID: os.Getpid()}
	if durable {
		cfg.JournalDir = filepath.Join(dir, "journal")
		cfg.CacheDir = filepath.Join(dir, "cache")
		s.CacheDir = cfg.CacheDir
	}
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	s.Base = ts.URL
	s.Stop = func() error {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Drain(ctx)
	}
	return s, nil
}

// TestToyRun runs all four workloads at toy size, untraced and traced,
// and requires every check to pass and every declared metric to print.
func TestToyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes and an in-process service")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{
				Seed: 1, Seconds: 1, Trace: trace,
				Circuits:    []string{"xor2", "mux21"},
				Variants:    []string{"wire:iNE:oSW", "pi:oSE", "po:iNW", "inv:iNW:oSE"},
				Passes:      2,
				SetupProbes: 2, Boots: 2,
				WarmupRequests: 20, Requests: 200,
				FreshFlowChecks: 4,
				WorkDir:         t.TempDir(),
				Start:           inProcessStarter,
			}
			o, err := w.Run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if o.Failed > 0 || o.Attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d failed: %v", w.Name, trace, o.Failed, o.Attempted, o.Failures)
			}
			m, err := selectMetrics(o, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !trace {
				for name, v := range m {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, name, v.Value)
					}
				}
			}
			var buf bytes.Buffer
			printSummary(&buf, w.Name, trace, o, time.Second)
			if buf.Len() == 0 {
				t.Errorf("%s: empty summary", w.Name)
			}
		}
	}
}
