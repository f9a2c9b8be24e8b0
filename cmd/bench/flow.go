package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/gatelayout"
	"repro/internal/logic/bench"
	"repro/internal/logic/network"
	"repro/internal/logic/npn"
	"repro/internal/logic/rewrite"
	"repro/internal/obs"
	"repro/internal/sim"
)

// flowOptions are the options a default POST /v1/flow {"bench":…} gets:
// engine auto, no cell simulation, no deadline.
func flowOptions() core.Options {
	return core.Options{DegradeMargin: sim.DefaultDegradeMargin}
}

// flowResult is one circuit's outcome in a child pass.
type flowResult struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
	// Factor is the host factor of the call (see hostScale).
	Factor   float64  `json:"factor"`
	Width    int      `json:"width"`
	Height   int      `json:"height"`
	Engine   string   `json:"engine"`
	SiDBs    int      `json:"sidbs"`
	GatesOut int      `json:"gates_out"`
	Hash     string   `json:"hash"` // digest of the gate-level layout
	Problems problems `json:"problems,omitempty"`

	// Traced pass only.
	LayerS     map[string]float64 `json:"layer_s,omitempty"`
	NPNClasses int                `json:"npn_classes,omitempty"`
	SizesTried int64              `json:"sizes_tried,omitempty"`
	Conflicts  int64              `json:"conflicts,omitempty"`
}

type flowPass struct {
	Circuits []flowResult `json:"circuits"`
}

// runFlowPass is the child side of flow-cold: every circuit of the job in
// order, through core.RunContext.
func runFlowPass(job childJob) flowPass {
	golden, gerr := loadFlowsGolden()
	var out flowPass
	h := newHostScale()
	for _, name := range job.Order {
		r := flowResult{Name: name}
		if spec, err := bench.Load(name); err != nil {
			r.Problems.expect(false, "%s: %v", name, err)
		} else {
			runFlow(spec, job.Trace, &r)
		}
		r.Factor = h.next()
		if gerr != nil {
			r.Problems.expect(false, "%v", gerr)
		} else if r.Width > 0 {
			checkDims(&r.Problems, golden, name, r.Width, r.Height)
		}
		out.Circuits = append(out.Circuits, r)
	}
	return out
}

// layerStages maps each per-layer busy-time metric to the flow spans it
// sums: the spans core.RunContext opens on a caller-supplied tracer, which
// the daemon also exports as flow_stage_seconds{stage=…}.
var layerStages = map[string][]string{
	"rewrite.s":          {"rewrite"},
	"mapping.s":          {"mapping"},
	"pnr.s":              {"expand", "pnr"},
	"drc.s":              {"drc"},
	"verify.s":           {"verify"},
	"gatelib.apply_s":    {"gatelib/apply"},
	"sim.solve_s":        {"simulate"},
	"gatelib.validate_s": {"validate"},
}

// runFlow runs one circuit through core.RunContext with the default flow
// options. Traced, it also passes a fresh tracer and an explicit NPN
// database, and reads each layer's time and counters from them.
func runFlow(spec *network.XAG, trace bool, r *flowResult) {
	opts := flowOptions()
	var tr *obs.Tracer
	var db *npn.Database
	if trace {
		tr, db = obs.New(), npn.NewDatabase(nil)
		opts.Tracer, opts.Rewrite = tr, rewrite.Options{DB: db}
	}
	start := time.Now()
	res, err := core.RunContext(context.Background(), spec, opts)
	r.MS = msSince(start)
	if err != nil {
		r.Problems.expect(false, "%s: %v", r.Name, err)
		return
	}
	r.Engine, r.SiDBs, r.GatesOut = res.EngineUsed, res.SiDBs, res.Rewritten.NumGates()
	r.Problems.expect(res.Verification.Equivalent, "%s: SAT check says not equivalent", r.Name)
	checkLayout(spec, res.Layout, r)
	if !trace {
		return
	}
	rep := tr.Report(r.Name)
	r.LayerS = map[string]float64{}
	for metric, stages := range layerStages {
		for _, name := range stages {
			if st := rep.Stage(name); st != nil {
				r.LayerS[metric] += st.Seconds
			}
		}
	}
	r.NPNClasses = db.Size()
	r.SizesTried = rep.Counter("pnr/exact/sizes_tried")
	r.Conflicts = res.Verification.Metrics.Conflicts
}

// checkLayout records the layout's size and digest and requires it to
// compute the specification on every input pattern.
func checkLayout(spec *network.XAG, l *gatelayout.Layout, r *flowResult) {
	r.Width, r.Height = l.Width(), l.Height()
	h := sha256.New()
	for _, at := range l.Tiles() {
		t, _ := l.At(at)
		fmt.Fprintf(h, "%v %v %v %v %s;", at, t.Func, t.Ins, t.Outs, t.Name)
	}
	r.Hash = hex.EncodeToString(h.Sum(nil)[:8])
	for p := uint32(0); p < 1<<spec.NumPIs(); p++ {
		if want, got := spec.Simulate(p), l.Simulate(p); want != got {
			r.Problems.expect(false, "%s: input %b: layout gives %b, specification %b", r.Name, p, got, want)
			return
		}
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// flowCold runs the flow-cold workload: cfg.Passes untraced passes over the
// Table 1 circuits, each in a fresh child, or with cfg.Trace a traced pass
// between two untraced ones, so that host speed drifting during the run
// does not read as tracing cost.
func flowCold(cfg config) (*outcome, error) {
	o := newOutcome()
	rng := newRand(cfg.Seed, streamOrder)
	setups, err := setupProbes(cfg.SetupProbes)
	if err != nil {
		return nil, err
	}
	passes := cfg.Passes
	if cfg.Trace {
		passes = 2
	}
	var untraced []flowPass
	var traced flowPass
	var stats []childStats
	for i := 0; i < passes; i++ {
		if cfg.Trace && i == 1 {
			if _, err := spawn(childJob{Kind: "flow", Order: permuted(cfg.Circuits, rng), Trace: true}, &traced); err != nil {
				return nil, err
			}
		}
		var fp flowPass
		st, err := spawn(childJob{Kind: "flow", Order: permuted(cfg.Circuits, rng)}, &fp)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, fp)
		stats = append(stats, st)
		for _, c := range fp.Circuits {
			o.record(c.Problems)
		}
	}
	var suites, rawSuites, rss []float64
	perKey := map[string][]float64{}
	hashes := map[string]map[string]bool{}
	for i, fp := range untraced {
		var total, raw float64
		for _, c := range fp.Circuits {
			perKey[c.Name] = append(perKey[c.Name], c.MS*c.Factor)
			if hashes[c.Name] == nil {
				hashes[c.Name] = map[string]bool{}
			}
			hashes[c.Name][c.Hash] = true
			total += c.MS * c.Factor
			raw += c.MS
		}
		suites = append(suites, total/1000)
		rawSuites = append(rawSuites, raw/1000)
		rss = append(rss, stats[i].MaxRSSMiB)
	}
	o.Detail["raw_suite_s"] = rawSuites
	if !cfg.Trace {
		coldEndToEnd(o, setups, suites, perKey, rss)
		return o, nil
	}

	for name, lat := range perKey {
		o.set(circuitMetric(name), median(lat), len(lat))
	}
	layers := map[string]float64{}
	var tracedS, rawTracedS, layersS, tiles, sidbs, gatesOut, npnClasses, sizes, conflicts, exact, variants float64
	for _, c := range traced.Circuits {
		o.record(c.Problems)
		for l, s := range c.LayerS {
			layers[l] += s
			layersS += s
		}
		tracedS += c.MS * c.Factor / 1000
		rawTracedS += c.MS / 1000
		tiles += float64(c.Width * c.Height)
		sidbs += float64(c.SiDBs)
		gatesOut += float64(c.GatesOut)
		npnClasses += float64(c.NPNClasses)
		sizes += float64(c.SizesTried)
		conflicts += float64(c.Conflicts)
		if c.Engine == "exact" {
			exact++
		}
		if hashes[c.Name][c.Hash] = true; len(hashes[c.Name]) > 1 {
			variants++
		}
	}
	n := len(traced.Circuits)
	for l, s := range layers {
		o.set(l, s, n)
	}
	o.set("rewrite.npn_classes", npnClasses, n)
	o.set("rewrite.gates_out", gatesOut, n)
	o.set("pnr.exact_share", share(exact, float64(n)), n)
	o.set("pnr.sizes_tried", sizes, n)
	o.set("pnr.layout_variants", variants, n)
	o.set("verify.sat_conflicts", conflicts, n)
	o.set("layout.tiles", tiles, n)
	o.set("layout.sidbs", sidbs, n)
	var cpu time.Duration
	for _, st := range stats {
		cpu += st.CPU
	}
	o.set("proc.cpu_ms_per_op", float64(cpu)/float64(time.Millisecond)/float64(n*len(stats)), n*len(stats))
	o.set("trace.overhead_pct", 100*(tracedS/mean(suites)-1), n)
	// Raw wall times, for comparing the layer spans with the whole pass.
	o.Detail["traced_s"] = rawTracedS
	o.Detail["layers_s"] = layersS
	o.Detail["untraced_s"] = mean(rawSuites)
	return o, nil
}

// coldEndToEnd sets the end-to-end metrics shared by the cold workloads
// from each pass's suite time and each key's latencies over the passes.
// A cold suite has a handful of keys whose costs differ by orders of
// magnitude, so a percentile over operations would just pick one key;
// the key medians' geometric mean and maximum describe the whole suite.
func coldEndToEnd(o *outcome, setups, suites []float64, perKey map[string][]float64, rss []float64) {
	o.set("setup_s", median(setups), len(setups))
	o.set("suite_s", median(suites), len(suites))
	var medians, all []float64
	keyMedian := map[string]float64{}
	for k, lat := range perKey {
		keyMedian[k] = median(lat)
		medians = append(medians, keyMedian[k])
		all = append(all, lat...)
	}
	if len(medians) > 0 {
		o.set("geomean_ms", geomean(medians), len(all))
		o.set("tail_ms", slices.Max(medians), len(all))
		o.set("throughput_ops", float64(len(all))/(sum(all)/1000), len(all))
	}
	o.set("peak_rss_mb", median(rss), len(rss))
	o.Detail["key_median_ms"] = keyMedian
}
