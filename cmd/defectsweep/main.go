// Command defectsweep runs the defect yield experiment: for each defect
// density it samples random surfaces (a mix of charged and neutral defect
// species after arXiv 2311.12042), validates every gate of the Bestagon
// library against each surface, optionally pushes small benchmarks through
// the whole defect-aware flow, and writes the yield-vs-density table to
// BENCH_defects.json.
//
//	go run ./cmd/defectsweep
//	make bench-defects
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/defects/sweep"
	"repro/internal/obs"
)

type report struct {
	Densities []float64     `json:"densities_per_100nm2"`
	Seeds     int           `json:"seeds"`
	Seed      int64         `json:"seed"`
	Workers   int           `json:"workers"`
	Seconds   float64       `json:"seconds"`
	Result    *sweep.Result `json:"result"`
}

func main() {
	var (
		out       = flag.String("o", "BENCH_defects.json", "output report file")
		densities = flag.String("densities", "0.1,0.5,1.0,2.0", "comma-separated defect densities (per 100 nm²)")
		seeds     = flag.Int("seeds", 5, "random surfaces per (density, gate)")
		seed      = flag.Int64("seed", 1, "base random seed")
		workers   = flag.Int("workers", 0, "evaluation pool size (0 = GOMAXPROCS)")
		solver    = flag.String("solver", "", "ground-state solver (empty = automatic dispatch)")
		flows     = flag.String("flows", "xor2,mux21", "comma-separated benchmarks for whole-flow yield (empty disables)")
		timeout   = flag.Duration("timeout", 10*time.Minute, "overall deadline")
	)
	flag.Parse()

	dens, err := parseDensities(*densities)
	if err != nil {
		fatal(err)
	}
	var flowBenches []string
	if *flows != "" {
		for _, f := range strings.Split(*flows, ",") {
			if f = strings.TrimSpace(f); f != "" {
				flowBenches = append(flowBenches, f)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	start := time.Now()
	res, err := sweep.Run(ctx, sweep.Config{
		Densities:   dens,
		Seeds:       *seeds,
		Seed:        *seed,
		Workers:     *workers,
		Solver:      *solver,
		FlowBenches: flowBenches,
		Tracer:      obs.New(),
	})
	if err != nil {
		fatal(err)
	}

	rep := report{
		Densities: dens,
		Seeds:     *seeds,
		Seed:      *seed,
		Workers:   *workers,
		Seconds:   time.Since(start).Seconds(),
		Result:    res,
	}
	for _, pt := range res.Points {
		fmt.Printf("defectsweep: density=%.2f/100nm² yield=%.3f (ok=%d blocked=%d failed=%d, mean defects %.1f)\n",
			pt.Density, pt.Yield, pt.OK, pt.Blocked, pt.Failed, pt.MeanDefects)
		for _, f := range pt.Flows {
			fmt.Printf("defectsweep:   flow %-8s yield=%.3f (ok=%d blocked=%d failed=%d)\n",
				f.Bench, f.Yield, f.OK, f.Blocked, f.Failed)
		}
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("defectsweep: wrote %s (%d densities x %d gates x %d seeds in %.1fs)\n",
		*out, len(dens), res.Gates, *seeds, rep.Seconds)
}

func parseDensities(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("invalid density %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no densities given")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "defectsweep:", err)
	os.Exit(1)
}
