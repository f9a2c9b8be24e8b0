// Command bench is the repository's benchmark: four workloads that
// exercise the paper's flow, the gate library and the bestagond service,
// with end-to-end metrics from untraced runs, per-layer metrics from
// traced runs, and a correctness check on every answer. See README.md for
// the workloads, the metrics and how to read them.
//
// Run it from the repository root through its wrapper, which builds the
// benchmark and the daemon first:
//
//	bash cmd/bench/run.sh --workload flow-cold --seed 1 --seconds 12 --trace 0
//	bash cmd/bench/run.sh -seed 1 -o report.json    # all workloads, both modes
//
// The last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics; a human-readable summary goes to standard
// error. The exit code is nonzero when any check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/gatelib"
	"repro/internal/logic/bench"

	// Link the pruned exact ground-state engine, as the daemon does, so
	// solver auto dispatches to it.
	_ "repro/internal/sim/quickexact"
)

// config is one workload run's settings.
type config struct {
	Seed    int64
	Seconds int
	Trace   bool
	// Circuits and Variants are the Table 1 circuits and library variants
	// the workloads use (all of them, except in toy-size tests).
	Circuits []string
	Variants []string
	// Passes is the number of timed passes of a cold workload.
	Passes int
	// SetupProbes is the number of extra children a cold workload starts
	// only to time their set-up.
	SetupProbes int
	// Boots is the number of daemon starts a serve workload times.
	Boots int
	// WarmupRequests and Requests are the sizes of a serve workload's
	// unmeasured and measured request plans.
	WarmupRequests int
	Requests       int
	// FreshShare is the share of serve requests that use a fresh key.
	FreshShare float64
	// FreshFlowChecks bounds the fresh flows re-run in-process for the
	// dimension check.
	FreshFlowChecks int
	WorkDir         string
	Start           startFunc
}

// Nominal cost of one cold pass, and nominal request rates of the serve
// workloads, at the time the benchmark was written. The pass counts and
// plan sizes derive from --seconds and these constants, never from a
// measured speed, so both sides of a comparison do the same work.
const (
	flowPassSeconds  = 6
	gatesPassSeconds = 12
	warmRate         = 3000 // requests per second, serve-warm
	durableRate      = 350  // requests per second, serve-durable
	warmupSeconds    = 2
)

type workload struct {
	Name string
	Why  string
	Run  func(config) (*outcome, error)
}

var workloads = []workload{
	{"flow-cold", "Table 1 flow (rewrite, map, exact P&R, SAT verify, library) per circuit in fresh processes; rewriting dominates it",
		flowCold},
	{"gates-cold", "Fig. 5 library: bare-tile ground state and validation of all 28 variants in fresh processes; only sim and gatelib run",
		gatesCold},
	{"serve-warm", "bestagond without journal or disk cache, every request a memory hit: HTTP, queue and cache read without compute",
		func(c config) (*outcome, error) { return serveWorkload(c, false) }},
	{"serve-durable", "bestagond with journal and disk cache; synthetic mix with 25% fresh keys (3-8-gate flows, 6-12-dot layouts): durable writes and cold solves beside warm hits",
		func(c config) (*outcome, error) {
			c.FreshShare = 0.25
			return serveWorkload(c, true)
		}},
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fullConfig is the configuration of a real run: every circuit and
// variant, sized from --seconds.
func fullConfig(name string, seed int64, seconds int, trace bool, workDir, bestagond string) config {
	variants := gatelib.NewLibrary().Variants()
	sort.Strings(variants)
	rate := warmRate
	if name == "serve-durable" {
		rate = durableRate
	}
	return config{
		Seed: seed, Seconds: seconds, Trace: trace,
		Circuits:        bench.Names(),
		Variants:        variants,
		Passes:          passesFor(name, seconds),
		SetupProbes:     31,
		Boots:           15,
		WarmupRequests:  warmupSeconds * rate,
		Requests:        seconds * rate,
		FreshFlowChecks: 32,
		WorkDir:         workDir,
		Start:           daemonStarter(bestagond),
	}
}

// passesFor is the cold pass count of a workload.
func passesFor(name string, seconds int) int {
	if name == "gates-cold" {
		return max(1, seconds/gatesPassSeconds)
	}
	return max(1, seconds/flowPassSeconds)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is the -o report: a header and every workload run in full.
type runReport struct {
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seed       int64       `json:"seed"`
	Seconds    int         `json:"seconds"`
	Runs       []reportRun `json:"runs"`
}

type reportRun struct {
	Workload string   `json:"workload"`
	Trace    bool     `json:"trace"`
	WallS    float64  `json:"wall_s"`
	Outcome  *outcome `json:"outcome"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run (empty = every workload, untraced and traced)")
		seed      = fs.Int64("seed", 1, "seed for request order and generated inputs")
		seconds   = fs.Int("seconds", 12, "nominal measured time per run; sets the cold pass count and the serve plan size")
		trace     = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		out       = fs.String("o", "", "write the full JSON report to this file")
		workDir   = fs.String("workdir", "", "directory for child scratch files, journals and caches (default: system temp)")
		bestagond = fs.String("bestagond", "", "bestagond binary for the serve workloads")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	if *workDir == "" {
		*workDir = os.TempDir()
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	type plan struct {
		w     workload
		trace bool
	}
	var plans []plan
	for _, w := range workloads {
		switch {
		case *name == "":
			plans = append(plans, plan{w, false}, plan{w, true})
		case *name == w.Name:
			plans = append(plans, plan{w, *trace == 1})
		}
	}
	if len(plans) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *bestagond == "" {
		for _, p := range plans {
			if p.w.Name == "serve-warm" || p.w.Name == "serve-durable" {
				fmt.Fprintln(stderr, "bench: the serve workloads need -bestagond")
				return 2
			}
		}
	}

	rep := runReport{Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds}
	fmt.Fprintf(stderr, "bench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %d s\n",
		rep.Commit, rep.GoVersion, rep.NumCPU, rep.GOMAXPROCS, rep.Seed, rep.Seconds)
	final := result{Correct: true, Metrics: map[string]metricJSON{}}
	for _, p := range plans {
		cfg := fullConfig(p.w.Name, *seed, *seconds, p.trace, *workDir, *bestagond)
		start := time.Now()
		o, err := p.w.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", p.w.Name, err)
			return 1
		}
		rep.Runs = append(rep.Runs, reportRun{Workload: p.w.Name, Trace: p.trace, WallS: time.Since(start).Seconds(), Outcome: o})
		metrics, err := selectMetrics(o, p.trace)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", p.w.Name, err)
			return 1
		}
		printSummary(stderr, p.w.Name, p.trace, o, time.Since(start))
		final.Attempted += o.Attempted
		final.Failed += o.Failed
		for k, v := range metrics {
			if len(plans) > 1 {
				k = p.w.Name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	final.Correct = final.Failed == 0 && final.Attempted > 0
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: write report:", err)
			return 1
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

// selectMetrics picks the declared metrics of the run's mode: every
// end-to-end metric untraced, every per-layer metric traced (a layer the
// workload does not execute reads 0).
func selectMetrics(o *outcome, trace bool) (map[string]metricJSON, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := map[string]metricJSON{}
	for _, d := range defs {
		v, ok := o.Metrics[d.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func printSummary(w io.Writer, name string, trace bool, o *outcome, wall time.Duration) {
	mode := "untraced"
	defs := endToEnd
	if trace {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "== %s (%s, %.1f s): %d attempted, %d failed\n", name, mode, wall.Seconds(), o.Attempted, o.Failed)
	for _, d := range defs {
		if _, ok := o.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-26s %14.6g %-6s n=%d\n", d.Name, o.Metrics[d.Name], d.Unit, o.Samples[d.Name])
		}
	}
	if traced, ok := o.Detail["traced_s"].(float64); ok {
		fmt.Fprintf(w, "  traced pass                         %.3f s\n", traced)
	}
	if layers, ok := o.Detail["layers_s"].(float64); ok {
		fmt.Fprintf(w, "  sum of its layer spans              %.3f s\n", layers)
	}
	if untraced, ok := o.Detail["untraced_s"].(float64); ok {
		fmt.Fprintf(w, "  mean untraced pass in the same run  %.3f s\n", untraced)
	}
	for _, f := range o.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
}

// commit is the VCS revision the binary was built from, when known.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
