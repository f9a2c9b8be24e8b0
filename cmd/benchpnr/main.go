// Command benchpnr measures the exact place-and-route engine's SAT
// solve-time curve: for each benchmark netlist it runs the front end
// (rewrite, technology mapping, graph expansion) and then the exact P&R
// size search under a tracer, harvesting the per-aspect-ratio solve rows
// the search records (grid dimensions, SAT/UNSAT status, conflicts,
// decisions, propagations, restarts, seconds) into BENCH_pnr.json. The
// per-ratio curve is the paper's Table 1 story told per SAT call: how the
// UNSAT ramp dominates until the first satisfiable area is hit.
//
//	go run ./cmd/benchpnr
//	make bench-pnr
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/gatelayout"
	"repro/internal/logic/bench"
	"repro/internal/logic/mapping"
	"repro/internal/logic/rewrite"
	"repro/internal/obs"
	"repro/internal/pnr"
)

// sizeRow is one per-aspect-ratio SAT call of the size search.
type sizeRow struct {
	W            int     `json:"w"`
	H            int     `json:"h"`
	Status       string  `json:"status"`
	Pruned       bool    `json:"pruned,omitempty"`
	Vars         int64   `json:"vars,omitempty"`
	Clauses      int64   `json:"clauses,omitempty"`
	Conflicts    int64   `json:"conflicts"`
	Decisions    int64   `json:"decisions"`
	Propagations int64   `json:"propagations"`
	Restarts     int64   `json:"restarts"`
	SolveSeconds float64 `json:"solve_seconds"`
	SpanSeconds  float64 `json:"span_seconds"`
}

// benchRow is the per-benchmark report entry.
type benchRow struct {
	Bench        string    `json:"bench"`
	OK           bool      `json:"ok"`
	Error        string    `json:"error,omitempty"`
	Gates        int       `json:"gates,omitempty"`
	Width        int       `json:"width,omitempty"`
	Height       int       `json:"height,omitempty"`
	TotalSeconds float64   `json:"total_seconds"`
	SizesTried   int64     `json:"sizes_tried"`
	SizesPruned  int64     `json:"sizes_pruned"`
	Conflicts    int64     `json:"sat_conflicts"`
	Decisions    int64     `json:"sat_decisions"`
	Propagations int64     `json:"sat_propagations"`
	Restarts     int64     `json:"sat_restarts"`
	Sizes        []sizeRow `json:"sizes"`
}

type report struct {
	Timeout string     `json:"timeout"`
	Benches []benchRow `json:"benches"`
}

func main() {
	var (
		out     = flag.String("o", "BENCH_pnr.json", "output report file")
		benches = flag.String("benches", "", "comma-separated benchmark names (default: all of Table 1)")
		maxArea = flag.Int("max-area", 0, "exact-engine area bound in tiles (0 = size-derived default)")
		budget  = flag.Int64("conflict-budget", 0, "per-SAT-call conflict budget (0 = engine default)")
		timeout = flag.Duration("timeout", 60*time.Second, "per-benchmark deadline; expired runs keep their partial per-size rows")
	)
	flag.Parse()

	names := bench.Names()
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}

	rep := report{Timeout: timeout.String()}
	failed := 0
	for _, name := range names {
		row := runBench(strings.TrimSpace(name), *maxArea, *budget, *timeout)
		if !row.OK {
			failed++
		}
		fmt.Printf("benchpnr: %-14s ok=%-5v %2dx%-2d sizes=%d (pruned %d) conflicts=%d %.2fs\n",
			row.Bench, row.OK, row.Width, row.Height, row.SizesTried, row.SizesPruned,
			row.Conflicts, row.TotalSeconds)
		rep.Benches = append(rep.Benches, row)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchpnr: wrote %s (%d benchmarks, %d failed)\n", *out, len(rep.Benches), failed)
	if failed == len(rep.Benches) {
		os.Exit(1) // nothing placed at all: the engine is broken, not slow
	}
}

func runBench(name string, maxArea int, budget int64, timeout time.Duration) benchRow {
	row := benchRow{Bench: name}
	x, err := bench.Load(name)
	if err != nil {
		row.Error = err.Error()
		return row
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	tr := obs.New()
	start := time.Now()
	lay, err := func() (*gatelayout.Layout, error) {
		rw := rewrite.Rewrite(x, rewrite.Options{})
		m, err := mapping.Map(rw)
		if err != nil {
			return nil, err
		}
		g, err := pnr.Expand(m)
		if err != nil {
			return nil, err
		}
		row.Gates = len(g.Nodes)
		opts := pnr.ExactOptions{MaxArea: maxArea, ConflictBudget: budget, Tracer: tr}
		return pnr.Exact(ctx, g, opts)
	}()
	row.TotalSeconds = time.Since(start).Seconds()
	if err != nil {
		row.Error = err.Error()
	} else {
		row.OK = true
		row.Width, row.Height = lay.Width(), lay.Height()
	}

	// Harvest the size-search rows and SAT totals from the trace; a
	// timed-out run still reports every size it finished.
	r := tr.Report(name)
	row.SizesTried = r.Counter("pnr/exact/sizes_tried")
	row.SizesPruned = r.Counter("pnr/exact/sizes_pruned")
	row.Conflicts = r.Counter("sat/conflicts")
	row.Decisions = r.Counter("sat/decisions")
	row.Propagations = r.Counter("sat/propagations")
	row.Restarts = r.Counter("sat/restarts")
	var walk func(ss []*obs.StageReport)
	walk = func(ss []*obs.StageReport) {
		for _, s := range ss {
			if s.Name == "pnr/exact/size" {
				row.Sizes = append(row.Sizes, sizeRowFrom(s))
			}
			walk(s.Children)
		}
	}
	walk(r.Stages)
	return row
}

func sizeRowFrom(s *obs.StageReport) sizeRow {
	sr := sizeRow{SpanSeconds: s.Seconds}
	sr.W = int(attrI(s, "w"))
	sr.H = int(attrI(s, "h"))
	if v, ok := s.Attrs["status"].(string); ok {
		sr.Status = v
	}
	if v, ok := s.Attrs["pruned"].(bool); ok {
		sr.Pruned = v
	}
	sr.Vars = attrI(s, "vars")
	sr.Clauses = attrI(s, "clauses")
	sr.Conflicts = attrI(s, "conflicts")
	sr.Decisions = attrI(s, "decisions")
	sr.Propagations = attrI(s, "propagations")
	sr.Restarts = attrI(s, "restarts")
	if v, ok := s.Attrs["solve_seconds"].(float64); ok {
		sr.SolveSeconds = v
	}
	return sr
}

// attrI coerces a numeric span attribute; in-process reports keep native
// int types, JSON round-trips turn them into float64.
func attrI(s *obs.StageReport, key string) int64 {
	switch v := s.Attrs[key].(type) {
	case int:
		return int64(v)
	case int64:
		return v
	case float64:
		return int64(v)
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchpnr:", err)
	os.Exit(1)
}
