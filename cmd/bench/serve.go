package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/logic/bench"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The serve workloads drive a bestagond with 2 workers from 2 closed-loop
// keep-alive clients (at most 2 connections): a cold prewarm of every warm
// key (reported as suite_s), an unmeasured warm-up plan, then the measured
// plan. A plan is a fixed number of requests in seeded order; both clients
// take the next unsent request whenever their previous answer arrives.

// warmKey is one prewarmed request and the body its cold run returned.
type warmKey struct {
	Kind string // "flow", "simulate", or "validate"
	Name string // circuit or variant
	Path string
	Body []byte
	Resp []byte
}

// warmKeys lists the prewarm set: every flow with the SiQAD file and the
// run report, and simulate and validate of every library variant.
func warmKeys(circuits, variants []string) []warmKey {
	var keys []warmKey
	for _, c := range circuits {
		keys = append(keys, warmKey{Kind: "flow", Name: c, Path: "/v1/flow",
			Body: []byte(fmt.Sprintf(`{"bench":%q,"sqd":true,"report":true}`, c))})
	}
	for _, kind := range []string{"validate", "simulate"} {
		path := map[string]string{"validate": "/v1/gates/validate", "simulate": "/v1/simulate"}[kind]
		for _, v := range variants {
			keys = append(keys, warmKey{Kind: kind, Name: v, Path: path,
				Body: []byte(fmt.Sprintf(`{"gate":%q}`, v))})
		}
	}
	return keys
}

// response is one answered request.
type response struct {
	status   int
	cache    string
	degraded bool
	body     []byte
}

func post(client *http.Client, url string, body []byte) (response, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return response{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"),
		degraded: resp.Header.Get("X-Degraded") == "true", body: b}, err
}

func get(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), err
}

const (
	// serveClients is the number of closed-loop clients, one per core of
	// the 2-core host, matching the daemon's 2 workers.
	serveClients = 2
	// planSegments is the number of segments a measured plan is sent in,
	// with the host factor measured between them.
	planSegments = 12
)

// phase is what the clients measured while sending one plan.
type phase struct {
	lat      []float64 // every request, ms
	scaled   []float64 // lat host-scaled, measured plans only
	hitLat   []float64 // warm keys
	freshLat []float64 // fresh keys
	bytes    int64
	seconds  float64 // wall time
}

// add appends another phase's raw measurements.
func (m *phase) add(o phase) {
	m.lat = append(m.lat, o.lat...)
	m.hitLat = append(m.hitLat, o.hitLat...)
	m.freshLat = append(m.freshLat, o.freshLat...)
	m.bytes += o.bytes
	m.seconds += o.seconds
}

// clientState is one closed-loop client's private state.
type clientState struct {
	o        *outcome // this client's checks, merged after each phase
	fresh    []freshResult
	degraded int
}

// freshResult is a fresh-key request awaiting its in-process check.
type freshResult struct {
	req  freshReq
	resp []byte
	p    problems
}

type serveRun struct {
	client  *http.Client
	srv     *server
	keys    []warmKey
	clients []*clientState
	o       *outcome
}

// serveWorkload runs serve-warm (durable false) or serve-durable.
func serveWorkload(cfg config, durable bool) (*outcome, error) {
	o := newOutcome()
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   5 * time.Minute,
	}
	defer client.CloseIdleConnections()
	dir, err := os.MkdirTemp(cfg.WorkDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: the median of several boots; the last one is measured.
	h := newHostScale()
	var setups []float64
	var srv *server
	for i := 0; i < cfg.Boots; i++ {
		bootDir, err := os.MkdirTemp(dir, "boot-")
		if err != nil {
			return nil, err
		}
		s, d, err := boot(cfg.Start, durable, bootDir, client)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds()*h.next())
		if i < cfg.Boots-1 {
			if err := s.Stop(); err != nil {
				return nil, fmt.Errorf("stop server: %w", err)
			}
			client.CloseIdleConnections()
			continue
		}
		srv = s
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.Stop()
		}
	}()
	o.set("setup_s", median(setups), len(setups))

	r := &serveRun{client: client, srv: srv, keys: warmKeys(cfg.Circuits, cfg.Variants), o: o}
	for c := 0; c < serveClients; c++ {
		r.clients = append(r.clients, &clientState{o: newOutcome()})
	}
	var scrapes []exposition
	var scrapeS float64
	scrape := func() error {
		if !cfg.Trace {
			return nil
		}
		t0 := time.Now()
		text, err := get(client, srv.Base+"/metrics")
		scrapeS += time.Since(t0).Seconds()
		scrapes = append(scrapes, parseExposition(text))
		return err
	}

	if err := scrape(); err != nil {
		return nil, err
	}
	prewarmS, rawS, err := r.prewarm(h)
	if err != nil {
		return nil, err
	}
	o.set("suite_s", prewarmS, 1)
	o.Detail["raw_suite_s"] = rawS

	rng := newRand(cfg.Seed, streamPlan)
	sims, flows := newFreshGen(cfg.Seed), newFreshGen(flowPoolSeed)
	warmup := planRequests(rng, cfg.WarmupRequests, cfg.FreshShare, r.keys, sims, flows)
	plan := planRequests(rng, cfg.Requests, cfg.FreshShare, r.keys, sims, flows)
	if _, err := r.send(warmup); err != nil {
		return nil, err
	}
	if err := scrape(); err != nil {
		return nil, err
	}
	cpu0, cpuErr := procCPU(srv.PID)
	// The measured plan runs in segments with the host factor measured
	// between them, while the daemon is idle.
	h = newHostScale()
	var m phase
	for s := 0; s < planSegments; s++ {
		seg, err := r.send(plan[s*len(plan)/planSegments : (s+1)*len(plan)/planSegments])
		if err != nil {
			return nil, err
		}
		f := h.next()
		for _, ms := range seg.lat {
			m.scaled = append(m.scaled, ms*f)
		}
		m.add(seg)
	}
	if err := scrape(); err != nil {
		return nil, err
	}
	cpu1, cpuErr2 := procCPU(srv.PID)
	rss, rssErr := procPeakRSS(srv.PID)
	stopped = true
	if err := srv.Stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	flowChecks := cfg.FreshFlowChecks
	for _, c := range r.clients {
		for _, f := range c.fresh {
			checkFresh(&f, flowChecks)
			o.record(f.p)
			if f.req.Kind == "flow" {
				flowChecks--
			}
		}
	}

	n, freshN := len(m.lat), len(m.freshLat)
	if !cfg.Trace {
		ls := summarize(m.scaled)
		o.set("geomean_ms", geomean(m.scaled), n)
		o.set("tail_ms", ls.Tail, n)
		// Closed loop: the completion rate of the clients, which is their
		// number over the mean request latency. It leaves out the pauses
		// between segments.
		o.set("throughput_ops", float64(serveClients*n)/(sum(m.scaled)/1000), n)
		if rssErr != nil {
			return nil, rssErr
		}
		o.set("peak_rss_mb", rss, 1)
		o.Detail["tail_quantile"] = ls.TailQ
		o.Detail["raw_throughput_ops"] = float64(n) / m.seconds
		return o, nil
	}

	// Per-layer metrics from /metrics deltas: compute stages over the whole
	// run (prewarm included), service stages over the measured plan.
	first, warm, last := scrapes[0], scrapes[1], scrapes[2]
	for metric, stages := range layerStages {
		var s float64
		for _, st := range stages {
			s += delta(first, last, "flow_stage_seconds_sum", `stage="`+st+`"`)
		}
		o.set(metric, s, 1)
	}
	for _, s := range []string{"quickexact", "exgs", "anneal"} {
		o.set("sim.solves_"+s, delta(first, last, "sim_solve_seconds_count", `solver="`+s+`"`), 1)
	}

	// meanMS is the mean of a /metrics histogram over the measured plan,
	// in ms, summed over the given label sets (all series when none are
	// given).
	meanMS := func(family string, labelSets ...string) float64 {
		if len(labelSets) == 0 {
			labelSets = []string{""}
		}
		var s, count float64
		for _, l := range labelSets {
			s += delta(warm, last, family+"_sum", l)
			count += delta(warm, last, family+"_count", l)
		}
		if count == 0 {
			return 0
		}
		return 1000 * s / count
	}
	clientMS := sum(m.lat) / float64(n)
	handlerMS := meanMS("http_request_duration_seconds",
		`path="/v1/flow"`, `path="/v1/simulate"`, `path="/v1/gates/validate"`)
	o.set("service.client_ms", clientMS, n)
	o.set("service.handler_ms", handlerMS, n)
	o.set("service.queue_wait_ms", meanMS("queue_wait_seconds"), n)
	o.set("service.job_ms", meanMS("job_duration_seconds"), n)
	o.set("service.client_gap_ms", clientMS-handlerMS, n)
	hit, miss := summarize(m.hitLat), summarize(m.freshLat)
	o.set("cache.hit_p50_ms", hit.P50, hit.N)
	o.set("cache.hit_p99_ms", hit.Tail, hit.N)
	o.set("cache.miss_p50_ms", miss.P50, miss.N)
	o.set("cache.miss_p99_ms", miss.Tail, miss.N)
	hits, misses := delta(warm, last, "cache_mem_hits"), delta(warm, last, "cache_mem_misses")
	o.set("cache.mem_hit_rate", share(hits, hits+misses), n)
	o.set("cache.response_kb", float64(m.bytes)/float64(n)/1024, n)
	cold := delta(warm, last, "jobs_cold_solves_total")
	o.set("cache.cold_solves", cold, n)
	var p problems
	p.expect(int(cold) == freshN, "cold solves in the measured plan %d, fresh requests sent %d", int(cold), freshN)
	o.record(p)
	if srv.CacheDir != "" {
		o.set("cache.disk_entries", float64(countFiles(srv.CacheDir)), 1)
	}
	o.set("journal.appends_per_req", delta(warm, last, "journal_appends_total")/float64(n), n)
	if cpuErr != nil || cpuErr2 != nil {
		return nil, fmt.Errorf("read daemon CPU time: %v %v", cpuErr, cpuErr2)
	}
	o.set("proc.cpu_ms_per_op", float64(cpu1-cpu0)/float64(time.Millisecond)/float64(n), n)
	o.set("trace.overhead_pct", share(scrapeS, m.seconds), len(scrapes))
	r.prewarmLayers(len(cfg.Variants))
	if !durable {
		return o, nil
	}
	var bodies [][]byte
	for _, q := range plan[:min(len(plan), 2*len(r.keys))] {
		_, body := q.target()
		bodies = append(bodies, body)
	}
	return o, probeJournalFor(o, cfg, bodies)
}

// prewarm sends every warm key once and checks each cold answer. It runs
// in rounds: each client sends one key, and the next round starts when
// both have answered, after h measures the host factor. It returns the
// summed round times, host-scaled and raw. The keys' fixed pairing keeps
// the critical path the same from run to run.
func (r *serveRun) prewarm(h *hostScale) (scaled, raw float64, err error) {
	golden, err := loadGatesGolden()
	if err != nil {
		return 0, 0, err
	}
	flows, err := loadFlowsGolden()
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < len(r.keys); i += serveClients {
		start := time.Now()
		errs := make([]error, serveClients)
		var wg sync.WaitGroup
		for c := 0; c < serveClients && i+c < len(r.keys); c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				k := &r.keys[i+c]
				resp, err := post(r.client, r.srv.Base+k.Path, k.Body)
				if err != nil {
					errs[c] = err
					return
				}
				k.Resp = resp.body
				r.clients[c].o.record(checkCold(*k, resp, golden, flows))
			}(c)
		}
		wg.Wait()
		d := time.Since(start).Seconds()
		for _, err := range errs {
			if err != nil {
				return 0, 0, fmt.Errorf("prewarm: %w", err)
			}
		}
		raw += d
		scaled += d * h.next()
	}
	r.mergeClients()
	return scaled, raw, nil
}

// checkCold checks a prewarm answer against the references.
func checkCold(k warmKey, resp response, gates map[string]gateGolden, flows map[string]flowGolden) problems {
	var p problems
	what := k.Path + " " + k.Name
	p.expect(resp.status == http.StatusOK, "%s: status %d: %s", what, resp.status, bytes.TrimSpace(resp.body))
	p.expect(!resp.degraded, "%s: degraded", what)
	if resp.status != http.StatusOK {
		return p
	}
	switch k.Kind {
	case "flow":
		var a flowArtifact
		if err := json.Unmarshal(resp.body, &a); err != nil {
			p.expect(false, "%s: %v", what, err)
			break
		}
		checkDims(&p, flows, k.Name, a.Width, a.Height)
	case "simulate":
		var s simulateAnswer
		if err := json.Unmarshal(resp.body, &s); err != nil {
			p.expect(false, "%s: %v", what, err)
			break
		}
		checkEnergy(&p, what, gates[k.Name].Bare, s.EnergyEV, s.Exact)
	case "validate":
		var v struct {
			OK      bool   `json:"ok"`
			Outputs []int  `json:"outputs"`
			Method  string `json:"method"`
		}
		if err := json.Unmarshal(resp.body, &v); err != nil {
			p.expect(false, "%s: %v", what, err)
			break
		}
		checkValidation(&p, k.Name, gates[k.Name], v.OK, v.Outputs, v.Method)
	}
	return p
}

// flowArtifact is the part of a /v1/flow answer the checks read.
type flowArtifact struct {
	Engine string          `json:"engine_used"`
	Width  int             `json:"width"`
	Height int             `json:"height"`
	Gates  int             `json:"gates"`
	SiDBs  int             `json:"sidbs"`
	Report json.RawMessage `json:"report"`
}

type simulateAnswer struct {
	Exact    bool    `json:"exact"`
	EnergyEV float64 `json:"energy_ev"`
}

// send runs a plan from both clients and returns what they measured. Each
// client takes the next unsent request when its previous answer arrives,
// so a slow fresh flow holds up one client while the other goes on.
func (r *serveRun) send(plan []request) (phase, error) {
	var next atomic.Int64
	start := time.Now()
	phases := make([]phase, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(plan)); i = next.Add(1) - 1 {
				if errs[c] = r.do(r.clients[c], plan[i], &phases[c]); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return phase{}, err
		}
	}
	r.mergeClients()
	m := phase{seconds: time.Since(start).Seconds()}
	for _, cp := range phases {
		m.add(cp)
	}
	return m, nil
}

// do sends one request, times it and checks the answer: a warm key must be
// a cache hit whose body is byte-identical to its prewarm body, a fresh
// key a miss, queued for its in-process check.
func (r *serveRun) do(c *clientState, q request, m *phase) error {
	path, body := q.target()
	start := time.Now()
	resp, err := post(r.client, r.srv.Base+path, body)
	ms := msSince(start)
	if err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	m.lat = append(m.lat, ms)
	m.bytes += int64(len(resp.body))
	if resp.degraded {
		c.degraded++
	}
	var p problems
	p.expect(resp.status == http.StatusOK, "%s: status %d: %s", path, resp.status, bytes.TrimSpace(resp.body))
	if q.fresh != nil {
		m.freshLat = append(m.freshLat, ms)
		p.expect(resp.cache == "miss", "%s: fresh key answered %q", path, resp.cache)
		c.fresh = append(c.fresh, freshResult{req: *q.fresh, resp: resp.body, p: p})
		return nil
	}
	m.hitLat = append(m.hitLat, ms)
	p.expect(resp.cache == "hit", "%s %s: warm key answered %q", path, q.warm.Name, resp.cache)
	p.expect(bytes.Equal(resp.body, q.warm.Resp), "%s %s: warm body differs from its cold body", path, q.warm.Name)
	c.o.record(p)
	return nil
}

// mergeClients folds the clients' checks into the run's outcome.
func (r *serveRun) mergeClients() {
	for _, c := range r.clients {
		r.o.Attempted += c.o.Attempted
		r.o.Failed += c.o.Failed
		for _, f := range c.o.Failures {
			if len(r.o.Failures) < maxListedFailures {
				r.o.Failures = append(r.o.Failures, f)
			}
		}
		c.o = newOutcome()
	}
}

// checkFresh checks a fresh answer against an in-process solve: every
// simulation against ExGS, and the first budget flows against core.Run.
func checkFresh(f *freshResult, budget int) {
	if len(f.p) > 0 {
		return
	}
	switch f.req.Kind {
	case "simulate":
		var s simulateAnswer
		if err := json.Unmarshal(f.resp, &s); err != nil {
			f.p.expect(false, "fresh simulate: %v", err)
			return
		}
		_, e, err := sim.NewEngine(dotLayout(f.req.Dots), sim.ParamsFig5).ExhaustiveChecked()
		if err != nil {
			f.p.expect(false, "fresh simulate: ExGS: %v", err)
			return
		}
		checkEnergy(&f.p, "fresh simulate", gateRef{EnergyEV: e}, s.EnergyEV, s.Exact)
	case "flow":
		var a flowArtifact
		if err := json.Unmarshal(f.resp, &a); err != nil {
			f.p.expect(false, "fresh flow: %v", err)
			return
		}
		if budget <= 0 {
			f.p.expect(a.Width > 0 && a.Height > 0, "fresh flow: empty layout")
			return
		}
		spec, err := bench.ParseBench("inline", f.req.Source)
		if err != nil {
			f.p.expect(false, "fresh flow: %v", err)
			return
		}
		res, err := core.Run(spec, flowOptions())
		if err != nil {
			f.p.expect(false, "fresh flow: in-process run: %v", err)
			return
		}
		f.p.expect(res.Layout.Width() == a.Width && res.Layout.Height() == a.Height && res.EngineUsed == a.Engine,
			"fresh flow: served %dx%d (%s), in-process %dx%d (%s)",
			a.Width, a.Height, a.Engine, res.Layout.Width(), res.Layout.Height(), res.EngineUsed)
	}
}

// prewarmLayers sets the per-layer quality metrics read from the prewarm
// answers: the Table 1 layouts and the library's operational variants.
func (r *serveRun) prewarmLayers(variants int) {
	var tiles, sidbs, gatesOut, exact, flows, sizes, conflicts, operational, above float64
	gates, _ := loadGatesGolden()
	for _, k := range r.keys {
		switch k.Kind {
		case "flow":
			var a flowArtifact
			if json.Unmarshal(k.Resp, &a) != nil {
				continue
			}
			flows++
			tiles += float64(a.Width * a.Height)
			sidbs += float64(a.SiDBs)
			gatesOut += float64(a.Gates)
			if a.Engine == "exact" {
				exact++
			}
			if rep, err := obs.ParseReport(a.Report); err == nil {
				sizes += float64(rep.Counter("pnr/exact/sizes_tried"))
				if st := rep.Stage("verify"); st != nil {
					if c, ok := st.Attrs["conflicts"].(float64); ok {
						conflicts += c
					}
				}
			}
		case "validate":
			var v struct {
				OK bool `json:"ok"`
			}
			if json.Unmarshal(k.Resp, &v) == nil && v.OK {
				operational++
			}
		case "simulate":
			var s simulateAnswer
			if json.Unmarshal(k.Resp, &s) == nil && !s.Exact && s.EnergyEV > gates[k.Name].Bare.EnergyEV+energyTol {
				above++
			}
		}
	}
	var degraded int
	for _, c := range r.clients {
		degraded += c.degraded
	}
	o := r.o
	o.set("layout.tiles", tiles, int(flows))
	o.set("layout.sidbs", sidbs, int(flows))
	o.set("rewrite.gates_out", gatesOut, int(flows))
	o.set("pnr.exact_share", share(exact, flows), int(flows))
	o.set("pnr.sizes_tried", sizes, int(flows))
	o.set("verify.sat_conflicts", conflicts, int(flows))
	o.set("gatelib.operational", operational, variants)
	o.set("sim.heuristic_above_ref", above, variants)
	o.set("sim.degraded", float64(degraded), 1)
}
