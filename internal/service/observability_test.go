package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
)

// scrapeMetrics fetches /metrics and returns the exposition body.
func scrapeMetrics(t *testing.T, baseURL string) (*http.Response, string) {
	t.Helper()
	r, b := getURL(t, baseURL+"/metrics")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %s", r.StatusCode, b)
	}
	return r, string(b)
}

// bucketSeries extracts the cumulative bucket values of one histogram
// series, in exposition order, keyed by its family_bucket{labels-minus-le
// prefix (e.g. `http_request_duration_seconds_bucket{path="/v1/simulate",`).
func bucketSeries(t *testing.T, body, prefix string) []float64 {
	t.Helper()
	var vals []float64
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		vals = append(vals, v)
	}
	return vals
}

// sampleValue returns the value of the exactly-matching series name.
func sampleValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(line[len(series)+1:], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in exposition:\n%s", series, body)
	return 0
}

// TestMetricsExposition is the acceptance check of the Prometheus
// endpoint: correct content type, HELP/TYPE metadata, cumulative
// _bucket{le=...} series with +Inf == _count for the request-duration,
// queue-wait, and simulation-stage histograms.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// One cold and one warm simulate: populates the request-duration,
	// queue-wait, job-duration, flow-stage, and solver histograms.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", fourDots())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate %d: %d %s", i, resp.StatusCode, body)
		}
	}

	resp, body := scrapeMetrics(t, ts.URL)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q lacks exposition version", ct)
	}
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		"# TYPE http_request_duration_seconds histogram",
		"# TYPE queue_wait_seconds histogram",
		"# TYPE flow_stage_seconds histogram",
		"# TYPE sim_solve_seconds histogram",
		"# HELP queue_wait_seconds ",
		`flow_stage_seconds_bucket{stage="simulate",`,
		`sim_solve_seconds_bucket{solver=`,
		`job_duration_seconds_bucket{kind="simulate",`,
		"cache_mem_hits",
		"cache_mem_hit_rate",
		"queue_depth_now",
		"http_in_flight_requests",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	for _, h := range []struct{ prefix, count string }{
		{`http_request_duration_seconds_bucket{path="/v1/simulate",`,
			`http_request_duration_seconds_count{path="/v1/simulate"}`},
		{`queue_wait_seconds_bucket{le=`, `queue_wait_seconds_count`},
		{`flow_stage_seconds_bucket{stage="simulate",`,
			`flow_stage_seconds_count{stage="simulate"}`},
	} {
		vals := bucketSeries(t, body, h.prefix)
		if len(vals) == 0 {
			t.Fatalf("no bucket series with prefix %q", h.prefix)
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1] {
				t.Errorf("%s: buckets not cumulative: %v", h.prefix, vals)
				break
			}
		}
		if inf, count := vals[len(vals)-1], sampleValue(t, body, h.count); inf != count {
			t.Errorf("%s: +Inf bucket %v != count %v", h.prefix, inf, count)
		}
	}
	if n := sampleValue(t, body, `flow_stage_seconds_count{stage="simulate"}`); n < 2 {
		t.Errorf("simulate stage count = %v, want >= 2", n)
	}
}

// TestBodyLimit413 verifies oversized request bodies are rejected with a
// 413 JSON error instead of an opaque decode failure.
func TestBodyLimit413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 256})
	big := map[string]any{"source": strings.Repeat("x", 4096)}
	resp, body := postJSON(t, ts.URL+"/v1/flow", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("expected 413, got %d: %s", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("413 body is not JSON: %v: %s", err, body)
	}
	if !strings.Contains(e.Error, "256") {
		t.Errorf("413 error %q does not name the limit", e.Error)
	}
}

// TestJobTraceAndRequestID exercises the end-to-end trace path: a client
// request ID propagates through the middleware context into the job's
// flow span attributes, and GET /v1/jobs/{id}/trace serves the timeline.
func TestJobTraceAndRequestID(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	const rid = "trace-test.42"
	payload, _ := json.Marshal(map[string]any{"bench": "xor2", "nocache": true})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/flow", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flow: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != rid {
		t.Fatalf("response X-Request-Id = %q, want %q", got, rid)
	}
	jobID := resp.Header.Get("X-Job-Id")
	if jobID == "" {
		t.Fatal("no X-Job-Id on flow response")
	}

	r, b := getURL(t, fmt.Sprintf("%s/v1/jobs/%s/trace", ts.URL, jobID))
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d %s", r.StatusCode, b)
	}
	var tr struct {
		Trace struct {
			Stages []struct {
				Name  string         `json:"name"`
				Attrs map[string]any `json:"attrs"`
			} `json:"stages"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace decode: %v: %s", err, b)
	}
	if len(tr.Trace.Stages) == 0 {
		t.Fatalf("empty trace: %s", b)
	}
	flow := tr.Trace.Stages[0]
	if flow.Name != "flow" {
		t.Fatalf("root stage %q, want flow", flow.Name)
	}
	if got := flow.Attrs["request_id"]; got != rid {
		t.Errorf("flow span request_id = %v, want %q", got, rid)
	}

	// A job that exists but recorded no tracer yields 404.
	r, _ = getURL(t, ts.URL+"/v1/jobs/j99999999/trace")
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job trace: expected 404, got %d", r.StatusCode)
	}
}

// TestHealthzDraining verifies /healthz flips to 503 with draining:true
// once shutdown begins, so load balancers stop routing here.
func TestHealthzDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	r, b := getURL(t, ts.URL+"/healthz")
	if r.StatusCode != http.StatusOK || !strings.Contains(string(b), `"draining":false`) {
		t.Fatalf("healthy healthz: %d %s", r.StatusCode, b)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	r, b = getURL(t, ts.URL+"/healthz")
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", r.StatusCode)
	}
	for _, want := range []string{`"ok":false`, `"draining":true`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("draining healthz missing %s: %s", want, b)
		}
	}
}

// TestHealthzSaturationOneReading parks one running and one queued job
// and checks that /healthz reports one reading of the queue: the top-level
// depth and running count equal the saturation block's, and utilization
// is (depth + running) / (capacity + workers) of that same block.
func TestHealthzSaturationOneReading(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 3})
	release := make(chan struct{})
	defer close(release)
	j1, err := s.queue.SubmitWith(SubmitOptions{Kind: "park"}, blockingJob(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, JobRunning)
	if _, err := s.queue.SubmitWith(SubmitOptions{Kind: "park"}, blockingJob(release)); err != nil {
		t.Fatal(err)
	}
	waitDepth(t, s, 1)
	r, b := getURL(t, ts.URL+"/healthz")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", r.StatusCode, b)
	}
	var hz struct {
		QueueDepth  int                        `json:"queue_depth"`
		JobsRunning int                        `json:"jobs_running"`
		Saturation  map[string]json.RawMessage `json:"saturation"`
	}
	if err := json.Unmarshal(b, &hz); err != nil {
		t.Fatal(err)
	}
	num := func(key string) float64 {
		t.Helper()
		raw, ok := hz.Saturation[key]
		if !ok {
			t.Fatalf("saturation has no %q: %s", key, b)
		}
		var v float64
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("saturation %q: %v", key, err)
		}
		return v
	}
	depth, running := num("queue_depth"), num("jobs_running")
	if hz.QueueDepth != 1 || hz.JobsRunning != 1 || depth != 1 || running != 1 {
		t.Fatalf("top level depth/running %d/%d, saturation %v/%v; want 1/1 for both",
			hz.QueueDepth, hz.JobsRunning, depth, running)
	}
	want := (depth + running) / (num("queue_capacity") + num("workers"))
	if u := num("utilization"); u != want || u != 0.5 {
		t.Fatalf("utilization %v; want (depth+running)/(capacity+workers) = %v = 0.5", u, want)
	}
	for _, key := range []string{"in_flight", "shedding"} {
		if _, ok := hz.Saturation[key]; !ok {
			t.Errorf("saturation has no %q: %s", key, b)
		}
	}
}

// TestHealthzLatencySnapshot checks the lifetime and rolling-window
// latency fields appear once requests have flowed.
func TestHealthzLatencySnapshot(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for i := 0; i < 3; i++ {
		getURL(t, ts.URL+"/v1/gates")
	}
	_, b := getURL(t, ts.URL+"/healthz")
	var h struct {
		Latency struct {
			Count int64   `json:"count"`
			P50   float64 `json:"p50_ms"`
			P99   float64 `json:"p99_ms"`
		} `json:"latency"`
		Window struct {
			Size int `json:"size"`
		} `json:"window"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatalf("healthz decode: %v: %s", err, b)
	}
	if h.Latency.Count < 3 {
		t.Errorf("latency count %d, want >= 3", h.Latency.Count)
	}
	if h.Window.Size < 3 {
		t.Errorf("window size %d, want >= 3", h.Window.Size)
	}
	if h.Latency.P99 < h.Latency.P50 {
		t.Errorf("p99 %v < p50 %v", h.Latency.P99, h.Latency.P50)
	}
}

// TestReadmeSolverMetricsExposed checks every sat_*, pnr_* and sim_*
// family README's telemetry table names against /metrics, after one exact
// flow, one simulation and one gate validation on a fresh server. A row
// for a family the server never records fails here.
func TestReadmeSolverMetricsExposed(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var families []string
	for _, line := range strings.Split(string(readme), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		// The first cell names the families, each in backticks.
		for _, f := range strings.Split(cells[1], "`") {
			if strings.HasPrefix(f, "sat_") || strings.HasPrefix(f, "pnr_") || strings.HasPrefix(f, "sim_") {
				families = append(families, f)
			}
		}
	}
	if len(families) == 0 {
		t.Fatal("README names no sat_*, pnr_* or sim_* family")
	}

	_, ts := newTestServer(t, Config{Workers: 2})
	for _, req := range []struct {
		path string
		body any
	}{
		{"/v1/flow", map[string]any{"bench": "c17", "engine": "exact"}},
		{"/v1/simulate", fourDots()},
		{"/v1/gates/validate", map[string]any{"gate": "wire:iNW:oSE"}},
	} {
		if resp, body := postJSON(t, ts.URL+req.path, req.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", req.path, resp.StatusCode, body)
		}
	}
	_, body := scrapeMetrics(t, ts.URL)
	for _, f := range families {
		if !strings.Contains(body, "# TYPE "+f+" ") {
			t.Errorf("README lists %s, /metrics has no such family", f)
		}
	}
}
