// Command serve-smoke is the end-to-end smoke test for the bestagond
// daemon: it builds and boots the real binary, exercises every endpoint
// (flow, simulate, validate, gates, jobs, healthz, metrics), checks that
// a second pass is served from the cache (X-Cache: hit), fires a burst of
// concurrent requests, and finally sends SIGTERM and verifies the daemon
// drains and exits cleanly. Run from the repository root:
//
//	go run ./scripts/serve-smoke
//	make serve-smoke
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/scripts/internal/smoke"
)

func main() { smoke.Run("serve-smoke", run) }

func run(tmp string) {
	bin := smoke.Build(tmp, false)

	addr := smoke.FreeAddr()
	smoke.Step("starting daemon on %s", addr)
	// The daemon runs at the default -log-level (info); its stderr is kept
	// for the log check after shutdown.
	daemon := smoke.Start(bin, addr,
		"-workers", "2",
		"-cache-dir", filepath.Join(tmp, "cache"),
		"-report", filepath.Join(tmp, "report.json"),
	)
	daemon.WaitHealthy(30 * time.Second)
	base := daemon.URL
	hit := func(h http.Header) bool { return h.Get("X-Cache") == "hit" }

	smoke.Step("GET /v1/gates")
	gates := struct {
		Gates []string `json:"gates"`
	}{}
	smoke.GetJSON(base+"/v1/gates", &gates)
	if len(gates.Gates) == 0 {
		smoke.Fatalf("empty gate library")
	}

	smoke.Step("cold pass: simulate, validate, flow")
	simReq := map[string]any{"gate": gates.Gates[0]}
	simCold, h := smoke.PostOK(base+"/v1/simulate", simReq)
	if hit(h) {
		smoke.Fatalf("cold simulate reported a cache hit")
	}
	valReq := map[string]any{"gate": gates.Gates[0]}
	valCold, _ := smoke.PostOK(base+"/v1/gates/validate", valReq)
	flowReq := map[string]any{"bench": "xor2", "engine": "ortho", "sqd": true}
	flowCold, h := smoke.PostOK(base+"/v1/flow", flowReq)
	if hit(h) {
		smoke.Fatalf("cold flow reported a cache hit")
	}

	smoke.Step("warm pass: responses must be cache hits and byte-identical")
	for _, c := range []struct {
		path string
		req  map[string]any
		cold []byte
	}{
		{"/v1/simulate", simReq, simCold},
		{"/v1/gates/validate", valReq, valCold},
		{"/v1/flow", flowReq, flowCold},
	} {
		warm, h := smoke.PostOK(base+c.path, c.req)
		if !hit(h) {
			smoke.Fatalf("%s: warm response was not a cache hit", c.path)
		}
		if !bytes.Equal(warm, c.cold) {
			smoke.Fatalf("%s: warm response differs from cold", c.path)
		}
	}

	smoke.Step("defect-bearing flow: distinct cache entry from the pristine twin")
	defectFlowReq := map[string]any{
		"bench": "xor2", "engine": "ortho", "sqd": true,
		"defects": map[string]any{
			"list": []map[string]any{{"x": 90, "y": 23, "type": "siloxane"}},
		},
	}
	defectCold, h := smoke.PostOK(base+"/v1/flow", defectFlowReq)
	if hit(h) {
		smoke.Fatalf("defect-bearing flow warm-hit the pristine cache entry")
	}
	defectWarm, h := smoke.PostOK(base+"/v1/flow", defectFlowReq)
	if !hit(h) {
		smoke.Fatalf("repeated defect-bearing flow was not a cache hit")
	}
	if !bytes.Equal(defectWarm, defectCold) {
		smoke.Fatalf("warm defect-bearing flow differs from cold")
	}

	smoke.Step("defect-blocked validation taxonomy")
	var blocked struct {
		OK            bool   `json:"ok"`
		FailKind      string `json:"fail_kind"`
		DefectBlocked bool   `json:"defect_blocked"`
	}
	blockedBody, _ := smoke.PostOK(base+"/v1/gates/validate", map[string]any{
		"gate": "wire:iNW:oSE",
		"defects": map[string]any{
			"list": []map[string]any{{"x": 15, "y": 0, "type": "db"}},
		},
	})
	if err := json.Unmarshal(blockedBody, &blocked); err != nil {
		smoke.Fatal(err)
	}
	if blocked.OK || blocked.FailKind != "defect_blocked" || !blocked.DefectBlocked {
		smoke.Fatalf("defect on a wire dot not classified defect_blocked: %s", blockedBody)
	}

	smoke.Step("async job lifecycle")
	job := smoke.Submit(base+"/v1/flow", map[string]any{"bench": "mux21", "engine": "ortho", "async": true})
	if st := smoke.WaitJob(base, job, 30*time.Second); st.State != "done" {
		smoke.Fatalf("job %s %s: %s", job, st.State, st.Error)
	} else if len(st.Result) == 0 {
		smoke.Fatalf("job %s done with empty result", job)
	}

	smoke.Step("GET /v1/jobs/{id}/trace")
	var trace struct {
		Trace struct {
			Stages []struct {
				Name string `json:"name"`
			} `json:"stages"`
		} `json:"trace"`
	}
	smoke.GetJSON(base+"/v1/jobs/"+job+"/trace", &trace)
	if len(trace.Trace.Stages) == 0 || trace.Trace.Stages[0].Name != "flow" {
		smoke.Fatalf("job trace has no flow stage: %+v", trace.Trace.Stages)
	}

	smoke.Step("GET /debug/flightrecorder")
	var fr struct {
		Retained map[string]int `json:"retained"`
		Traces   []struct {
			ID    string `json:"id"`
			Class string `json:"class"`
		} `json:"traces"`
	}
	smoke.GetJSON(base+"/debug/flightrecorder", &fr)
	if len(fr.Traces) == 0 {
		smoke.Fatalf("flight recorder retained no traces after %d jobs", 5)
	}
	total := 0
	for _, n := range fr.Retained {
		total += n
	}
	if total != len(fr.Traces) {
		smoke.Fatalf("flight recorder retained counts (%d) disagree with trace list (%d)", total, len(fr.Traces))
	}

	smoke.Step("GET /v1/traces/{id} (retained trace retrieval)")
	var retained struct {
		ID    string          `json:"id"`
		Trace json.RawMessage `json:"trace"`
	}
	smoke.GetJSON(base+"/v1/traces/"+fr.Traces[0].ID, &retained)
	if retained.ID != fr.Traces[0].ID || len(retained.Trace) == 0 {
		smoke.Fatalf("retained trace %s came back empty", fr.Traces[0].ID)
	}

	smoke.Step("concurrent burst (8 clients)")
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				code, err := smoke.TryPost(http.DefaultClient, base+"/v1/simulate", map[string]any{"gate": gates.Gates[(i+k)%len(gates.Gates)]})
				if err != nil {
					errs <- err
					return
				}
				if code != http.StatusOK && code != http.StatusTooManyRequests {
					errs <- fmt.Errorf("burst: unexpected status %d", code)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		smoke.Fatal(err)
	}

	smoke.Step("GET /metrics (Prometheus exposition)")
	_, mh, metrics := smoke.Get(base + "/metrics")
	if ct := mh.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		smoke.Fatalf("metrics content type %q is not the exposition format", ct)
	}
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		"# TYPE http_request_duration_seconds histogram",
		"# TYPE queue_wait_seconds histogram",
		"# TYPE flow_stage_seconds histogram",
		`le="+Inf"`,
		"_bucket{",
		"cache_mem_hits",
		"queue_submitted",
		"slo_burn_rate{",
		"slo_budget_remaining{",
		"flight_retained{",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			smoke.Fatalf("metrics missing %q", want)
		}
	}
	checkCumulative(string(metrics), "queue_wait_seconds_bucket{le=")

	smoke.Step("Idempotency-Key: a retry reattaches to the original job")
	idemReq := map[string]any{"gate": gates.Gates[0]}
	body1, h1 := smoke.PostOK(base+"/v1/simulate", idemReq, "Idempotency-Key", "smoke-idem-1")
	body2, h2 := smoke.PostOK(base+"/v1/simulate", idemReq, "Idempotency-Key", "smoke-idem-1")
	if id1, id2 := h1.Get("X-Job-Id"), h2.Get("X-Job-Id"); id1 == "" || id1 != id2 {
		smoke.Fatalf("idempotent retry got job %q, original was %q", id2, id1)
	}
	if !bytes.Equal(body1, body2) {
		smoke.Fatalf("idempotent retry body differs from original")
	}

	smoke.Step("X-Request-Id response header")
	if _, h, _ := smoke.Get(base + "/healthz"); h.Get("X-Request-Id") == "" {
		smoke.Fatalf("no X-Request-Id on response")
	}

	smoke.Step("SIGTERM: graceful drain and exit")
	daemon.Stop()
	if _, err := os.Stat(filepath.Join(tmp, "report.json")); err != nil {
		smoke.Fatalf("shutdown report not written: %w", err)
	}
	smoke.Step("stderr carries a JSON http_request line for /v1/flow")
	checkRequestLog(daemon.Log())
}

// checkRequestLog requires one line of the daemon's stderr to decode as
// JSON with a ts, level info, msg http_request and route /v1/flow: the
// -log-level default and the log format of the built binary.
func checkRequestLog(stderr []byte) {
	for _, line := range bytes.Split(stderr, []byte("\n")) {
		var m map[string]any
		if json.Unmarshal(line, &m) != nil {
			continue
		}
		if ts, _ := m["ts"].(string); ts != "" && m["level"] == "info" &&
			m["msg"] == "http_request" && m["route"] == "/v1/flow" {
			return
		}
	}
	smoke.Fatalf("no info-level http_request line for /v1/flow in the daemon's stderr")
}

// checkCumulative verifies a histogram's bucket samples never decrease
// with increasing le (the exposition contract Prometheus relies on).
func checkCumulative(exposition, prefix string) {
	prev := -1.0
	seen := 0
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			smoke.Fatalf("bad sample line %q: %w", line, err)
		}
		if v < prev {
			smoke.Fatalf("%s buckets not cumulative at %q", prefix, line)
		}
		prev = v
		seen++
	}
	if seen == 0 {
		smoke.Fatalf("no bucket series with prefix %q", prefix)
	}
}
