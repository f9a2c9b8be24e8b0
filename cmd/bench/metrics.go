package main

import (
	"fmt"
	"strings"

	"repro/internal/logic/bench"
)

// metricDef declares one reported metric. Every workload reports every
// end-to-end metric (untraced runs) and every per-layer metric (traced
// runs); a layer that a workload does not execute reads 0. BENCHMARK.json
// at the repository root declares the same names, units and directions
// (TestMetricsMatchDeclaration keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which have none).
	Bound float64
}

// Every end-to-end timing is host-scaled (see calib.go).
var endToEnd = []metricDef{
	// Median of several set-ups per run: child exec→ready for the cold
	// workloads, daemon exec→first 200 on /healthz for the serve ones.
	{"setup_s", "s", "lower", 0.25},
	// One cold pass over the workload's whole key set: the Table 1 flows,
	// the library variants, or the daemon's prewarm.
	{"suite_s", "s", "lower", 0.25},
	// Typical and slow operation latency. Cold workloads: the geometric
	// mean and the maximum over keys of each key's median over passes.
	// Serve: the geometric mean and the highest nearest-rank percentile
	// ≤ p99 with ≥ 10 samples beyond it, over the measured requests.
	{"geomean_ms", "ms", "lower", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	// Completed operations per second: the concurrency (1 cold, 2 serve)
	// over the mean operation latency.
	{"throughput_ops", "1/s", "higher", 0.25},
	// VmHWM of the child process or daemon. On serve-durable it depends on
	// which heavy fresh flows the two workers happen to run at once.
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// circuitMetric names the per-circuit flow time of a Table 1 circuit.
func circuitMetric(circuit string) string { return "flow." + circuit + "_ms" }

var perLayer = append(circuitMetrics(), []metricDef{
	// Busy time of each layer (s). Cold workloads: the traced pass's timed
	// calls. Serve: the daemon's flow_stage_seconds over the whole run.
	{"rewrite.s", "s", "lower", 0},
	{"mapping.s", "s", "lower", 0},
	{"pnr.s", "s", "lower", 0},
	{"drc.s", "s", "lower", 0},
	{"verify.s", "s", "lower", 0},
	{"gatelib.apply_s", "s", "lower", 0},
	{"sim.solve_s", "s", "lower", 0},
	{"gatelib.validate_s", "s", "lower", 0},

	// Service: per-request means over the measured windows (ms), from the
	// client and from the daemon's /metrics.
	{"service.client_ms", "ms", "lower", 0},
	{"service.handler_ms", "ms", "lower", 0},
	{"service.queue_wait_ms", "ms", "lower", 0},
	{"service.job_ms", "ms", "lower", 0},
	{"service.client_gap_ms", "ms", "lower", 0},

	// Work and quality counts.
	{"rewrite.npn_classes", "count", "lower", 0},
	{"rewrite.gates_out", "count", "lower", 0},
	{"pnr.exact_share", "%", "higher", 0},
	{"pnr.sizes_tried", "count", "lower", 0},
	{"pnr.layout_variants", "count", "lower", 0},
	{"verify.sat_conflicts", "count", "lower", 0},
	{"layout.tiles", "tiles", "lower", 0},
	{"layout.sidbs", "SiDBs", "lower", 0},
	{"sim.solves_quickexact", "count", "higher", 0},
	{"sim.solves_exgs", "count", "lower", 0},
	{"sim.solves_anneal", "count", "lower", 0},
	{"sim.degraded", "count", "lower", 0},
	{"sim.heuristic_above_ref", "count", "lower", 0},
	{"gatelib.operational", "count", "higher", 0},

	// Cache tiers: hit and miss latency of the measured windows, hit rate,
	// answer size, cold solves and disk entries written.
	{"cache.hit_p50_ms", "ms", "lower", 0},
	{"cache.hit_p99_ms", "ms", "lower", 0},
	{"cache.miss_p50_ms", "ms", "lower", 0},
	{"cache.miss_p99_ms", "ms", "lower", 0},
	{"cache.mem_hit_rate", "%", "higher", 0},
	{"cache.response_kb", "KiB", "lower", 0},
	{"cache.cold_solves", "count", "lower", 0},
	{"cache.disk_entries", "count", "higher", 0},

	// Journal: appends per request in the daemon, and the latency of
	// journal.Append on the daemon's filesystem from 1 and 2 goroutines.
	{"journal.appends_per_req", "count", "lower", 0},
	{"journal.append_p50_ms", "ms", "lower", 0},
	{"journal.append_p99_ms", "ms", "lower", 0},
	{"journal.append_2g_p50_ms", "ms", "lower", 0},
	{"journal.append_2g_p99_ms", "ms", "lower", 0},

	// Process and tracing cost.
	{"proc.cpu_ms_per_op", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}...)

// circuitMetrics declares one flow.<circuit>_ms row per Table 1 circuit:
// its median host-scaled time through core.RunContext in the traced run's
// untraced passes.
func circuitMetrics() []metricDef {
	var out []metricDef
	for _, c := range bench.Names() {
		out = append(out, metricDef{circuitMetric(c), "ms", "lower", 0})
	}
	return out
}

// outcome is what one workload run measured and checked.
type outcome struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Failures lists the first failed checks (bounded, for the report).
	Failures []string           `json:"failures,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	// Samples counts the samples behind each metric.
	Samples map[string]int `json:"samples"`
	// Detail carries context for the report: per-layer seconds, per-key
	// latencies, percentile levels.
	Detail map[string]any `json:"detail,omitempty"`
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]float64{}, Samples: map[string]int{}, Detail: map[string]any{}}
}

const maxListedFailures = 20

// problems collects the failed checks of one operation.
type problems []string

func (p *problems) expect(ok bool, format string, args ...any) {
	if !ok {
		*p = append(*p, fmt.Sprintf(format, args...))
	}
}

// record counts one attempted operation, failed when any check failed.
func (o *outcome) record(p problems) {
	o.Attempted++
	if len(p) == 0 {
		return
	}
	o.Failed++
	if len(o.Failures) < maxListedFailures {
		o.Failures = append(o.Failures, strings.Join(p, "; "))
	}
}

func (o *outcome) set(name string, v float64, n int) {
	o.Metrics[name] = v
	o.Samples[name] = n
}
