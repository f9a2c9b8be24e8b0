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
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

var base string

func main() {
	tmp, err := os.MkdirTemp("", "serve-smoke-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "bestagond")
	step("building bestagond")
	build := exec.Command("go", "build", "-o", bin, "./cmd/bestagond")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fatal(fmt.Errorf("build: %w", err))
	}

	addr := freeAddr()
	base = "http://" + addr
	step("starting daemon on " + addr)
	daemon := exec.Command(bin,
		"-addr", addr,
		"-workers", "2",
		"-cache-dir", filepath.Join(tmp, "cache"),
		"-report", filepath.Join(tmp, "report.json"),
	)
	// The daemon runs at the default -log-level (info); its stderr is kept
	// for the log check after shutdown.
	var daemonLog bytes.Buffer
	daemon.Stdout, daemon.Stderr = os.Stderr, io.MultiWriter(os.Stderr, &daemonLog)
	if err := daemon.Start(); err != nil {
		fatal(err)
	}
	defer daemon.Process.Kill()

	waitHealthy(30 * time.Second)

	step("GET /v1/gates")
	gates := struct {
		Gates []string `json:"gates"`
	}{}
	mustGet("/v1/gates", &gates)
	if len(gates.Gates) == 0 {
		fatal(fmt.Errorf("empty gate library"))
	}

	step("cold pass: simulate, validate, flow")
	simReq := map[string]any{"gate": gates.Gates[0]}
	simCold, hit := mustPost("/v1/simulate", simReq)
	if hit {
		fatal(fmt.Errorf("cold simulate reported a cache hit"))
	}
	valReq := map[string]any{"gate": gates.Gates[0]}
	valCold, _ := mustPost("/v1/gates/validate", valReq)
	flowReq := map[string]any{"bench": "xor2", "engine": "ortho", "sqd": true}
	flowCold, hit := mustPost("/v1/flow", flowReq)
	if hit {
		fatal(fmt.Errorf("cold flow reported a cache hit"))
	}

	step("warm pass: responses must be cache hits and byte-identical")
	for _, c := range []struct {
		path string
		req  map[string]any
		cold []byte
	}{
		{"/v1/simulate", simReq, simCold},
		{"/v1/gates/validate", valReq, valCold},
		{"/v1/flow", flowReq, flowCold},
	} {
		warm, hit := mustPost(c.path, c.req)
		if !hit {
			fatal(fmt.Errorf("%s: warm response was not a cache hit", c.path))
		}
		if !bytes.Equal(warm, c.cold) {
			fatal(fmt.Errorf("%s: warm response differs from cold", c.path))
		}
	}

	step("defect-bearing flow: distinct cache entry from the pristine twin")
	defectFlowReq := map[string]any{
		"bench": "xor2", "engine": "ortho", "sqd": true,
		"defects": map[string]any{
			"list": []map[string]any{{"x": 90, "y": 23, "type": "siloxane"}},
		},
	}
	defectCold, hit := mustPost("/v1/flow", defectFlowReq)
	if hit {
		fatal(fmt.Errorf("defect-bearing flow warm-hit the pristine cache entry"))
	}
	defectWarm, hit := mustPost("/v1/flow", defectFlowReq)
	if !hit {
		fatal(fmt.Errorf("repeated defect-bearing flow was not a cache hit"))
	}
	if !bytes.Equal(defectWarm, defectCold) {
		fatal(fmt.Errorf("warm defect-bearing flow differs from cold"))
	}

	step("defect-blocked validation taxonomy")
	var blocked struct {
		OK            bool   `json:"ok"`
		FailKind      string `json:"fail_kind"`
		DefectBlocked bool   `json:"defect_blocked"`
	}
	blockedBody, _ := mustPost("/v1/gates/validate", map[string]any{
		"gate": "wire:iNW:oSE",
		"defects": map[string]any{
			"list": []map[string]any{{"x": 15, "y": 0, "type": "db"}},
		},
	})
	if err := json.Unmarshal(blockedBody, &blocked); err != nil {
		fatal(err)
	}
	if blocked.OK || blocked.FailKind != "defect_blocked" || !blocked.DefectBlocked {
		fatal(fmt.Errorf("defect on a wire dot not classified defect_blocked: %s", blockedBody))
	}

	step("async job lifecycle")
	job := submitAsync(map[string]any{"bench": "mux21", "engine": "ortho", "async": true})
	waitJob(job, 30*time.Second)

	step("GET /v1/jobs/{id}/trace")
	var trace struct {
		Trace struct {
			Stages []struct {
				Name string `json:"name"`
			} `json:"stages"`
		} `json:"trace"`
	}
	mustGet("/v1/jobs/"+job+"/trace", &trace)
	if len(trace.Trace.Stages) == 0 || trace.Trace.Stages[0].Name != "flow" {
		fatal(fmt.Errorf("job trace has no flow stage: %+v", trace.Trace.Stages))
	}

	step("GET /debug/flightrecorder")
	var fr struct {
		Retained map[string]int `json:"retained"`
		Traces   []struct {
			ID    string `json:"id"`
			Class string `json:"class"`
		} `json:"traces"`
	}
	mustGet("/debug/flightrecorder", &fr)
	if len(fr.Traces) == 0 {
		fatal(fmt.Errorf("flight recorder retained no traces after %d jobs", 5))
	}
	total := 0
	for _, n := range fr.Retained {
		total += n
	}
	if total != len(fr.Traces) {
		fatal(fmt.Errorf("flight recorder retained counts (%d) disagree with trace list (%d)", total, len(fr.Traces)))
	}

	step("GET /v1/traces/{id} (retained trace retrieval)")
	var retained struct {
		ID    string          `json:"id"`
		Trace json.RawMessage `json:"trace"`
	}
	mustGet("/v1/traces/"+fr.Traces[0].ID, &retained)
	if retained.ID != fr.Traces[0].ID || len(retained.Trace) == 0 {
		fatal(fmt.Errorf("retained trace %s came back empty", fr.Traces[0].ID))
	}

	step("concurrent burst (8 clients)")
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				code, err := postCode("/v1/simulate", map[string]any{"gate": gates.Gates[(i+k)%len(gates.Gates)]})
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
		fatal(err)
	}

	step("GET /metrics (Prometheus exposition)")
	ct, metrics := rawGetType("/metrics")
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		fatal(fmt.Errorf("metrics content type %q is not the exposition format", ct))
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
		if !strings.Contains(metrics, want) {
			fatal(fmt.Errorf("metrics missing %q", want))
		}
	}
	checkCumulative(metrics, "queue_wait_seconds_bucket{le=")

	step("Idempotency-Key: a retry reattaches to the original job")
	idemReq := map[string]any{"gate": gates.Gates[0]}
	id1, body1 := postIdem("/v1/simulate", idemReq, "smoke-idem-1")
	id2, body2 := postIdem("/v1/simulate", idemReq, "smoke-idem-1")
	if id1 == "" || id1 != id2 {
		fatal(fmt.Errorf("idempotent retry got job %q, original was %q", id2, id1))
	}
	if !bytes.Equal(body1, body2) {
		fatal(fmt.Errorf("idempotent retry body differs from original"))
	}

	step("X-Request-Id response header")
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		fatal(fmt.Errorf("no X-Request-Id on response"))
	}

	step("SIGTERM: graceful drain and exit")
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			fatal(fmt.Errorf("daemon exit: %w", err))
		}
	case <-time.After(30 * time.Second):
		fatal(fmt.Errorf("daemon did not exit within 30s of SIGTERM"))
	}
	if _, err := os.Stat(filepath.Join(tmp, "report.json")); err != nil {
		fatal(fmt.Errorf("shutdown report not written: %w", err))
	}
	step("stderr carries a JSON http_request line for /v1/flow")
	checkRequestLog(daemonLog.Bytes())

	fleetSmoke(bin)

	fmt.Println("serve-smoke: PASS")
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
	fatal(fmt.Errorf("no info-level http_request line for /v1/flow in the daemon's stderr"))
}

// freeAddr grabs an ephemeral localhost port for the daemon.
func freeAddr() string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHealthy(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	fatal(fmt.Errorf("daemon never became healthy"))
}

func mustGet(path string, v any) {
	resp, err := http.Get(base + path)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("GET %s: status %d", path, resp.StatusCode))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		fatal(fmt.Errorf("GET %s: %w", path, err))
	}
}

// rawGetType returns the Content-Type header and body of a GET.
func rawGetType(path string) (string, string) {
	resp, err := http.Get(base + path)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.Header.Get("Content-Type"), string(b)
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
			fatal(fmt.Errorf("bad sample line %q: %w", line, err))
		}
		if v < prev {
			fatal(fmt.Errorf("%s buckets not cumulative at %q", prefix, line))
		}
		prev = v
		seen++
	}
	if seen == 0 {
		fatal(fmt.Errorf("no bucket series with prefix %q", prefix))
	}
}

// mustPost returns (body, cache hit) and fails on any non-200 status.
func mustPost(path string, payload any) ([]byte, bool) {
	b, _ := json.Marshal(payload)
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body)))
	}
	return body, resp.Header.Get("X-Cache") == "hit"
}

// postIdem posts with an Idempotency-Key header and returns the job id
// and body of the 200 response.
func postIdem(path string, payload any, key string) (string, []byte) {
	b, _ := json.Marshal(payload)
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(b))
	if err != nil {
		fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("POST %s (idempotent): status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body)))
	}
	return resp.Header.Get("X-Job-Id"), body
}

func postCode(path string, payload any) (int, error) {
	b, _ := json.Marshal(payload)
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

func submitAsync(payload any) string {
	b, _ := json.Marshal(payload)
	resp, err := http.Post(base+"/v1/flow", "application/json", bytes.NewReader(b))
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		fatal(fmt.Errorf("async flow: status %d", resp.StatusCode))
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		fatal(err)
	}
	if st.ID == "" {
		fatal(fmt.Errorf("async flow: no job id in response"))
	}
	return st.ID
}

func waitJob(id string, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var out struct {
			Job struct {
				State string `json:"state"`
				Error string `json:"error"`
			} `json:"job"`
			Result json.RawMessage `json:"result"`
		}
		mustGet("/v1/jobs/"+id, &out)
		switch out.Job.State {
		case "done":
			if len(out.Result) == 0 {
				fatal(fmt.Errorf("job %s done with empty result", id))
			}
			return
		case "failed", "canceled":
			fatal(fmt.Errorf("job %s %s: %s", id, out.Job.State, out.Job.Error))
		}
		time.Sleep(50 * time.Millisecond)
	}
	fatal(fmt.Errorf("job %s did not finish within %s", id, timeout))
}

func step(msg string) { fmt.Println("serve-smoke:", msg) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "serve-smoke: FAIL:", err)
	os.Exit(1)
}
