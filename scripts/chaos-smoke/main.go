// Command chaos-smoke is the fault-tolerance acceptance test for the
// bestagond daemon: it boots the real binary with the fault-injection
// registry armed (worker panics, disk-cache I/O failures, and solver
// deadline pressure all firing at 20%) and proves the service degrades
// instead of dying:
//
//   - the process never exits during a 200-request storm,
//   - /healthz answers 200 throughout,
//   - warm cached responses stay byte-identical to their cold originals
//     (degraded results must never be cached),
//   - panics surface as 500s with error_kind "panic" while the worker
//     pool keeps serving,
//   - /metrics exposes jobs_panicked_total, sim_degraded_total, and the
//     disk breaker gauges with nonzero panic/degrade counts,
//   - a defect yield sweep completes despite injected sweep-worker panics,
//     and a large async sweep cancelled mid-run lands as error_kind
//     "canceled" with the worker pool fully drained (jobs_running 0),
//   - SIGTERM still drains and exits cleanly.
//
// A second phase SIGKILLs a journaled daemon mid-job and restarts it on
// the same journal directory: every pre-crash job id must still answer
// (as error_kind "interrupted", or completed via -recover resubmit), and
// a disk-cache entry corrupted while the daemon was down must quarantine
// as a clean miss whose re-solve is byte-identical (see durability.go).
//
// A third phase boots a three-replica fleet and SIGKILLs one replica in
// the middle of a request storm: survivors must keep answering (falling
// back to local solves when the dead owner is unreachable), mark the
// peer dead within the probe window, rebalance the ring, drain their
// queues to zero, and still exit cleanly on SIGTERM (see fleet.go).
//
// Run from the repository root:
//
//	go run ./scripts/chaos-smoke
//	CHAOS_RACE=1 go run ./scripts/chaos-smoke   # daemon built with -race
//	make chaos-smoke
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
	"strings"
	"syscall"
	"time"
)

// faultSpec arms every fault class the PR's failure model covers at 20%.
const faultSpec = "service.job.panic=p:0.2;cache.disk.read=p:0.2;cache.disk.write=p:0.2;sim.solve.exact=p:0.2;defectsweep.item.panic=p:0.2"

const storm = 200

var base string

func main() {
	tmp, err := os.MkdirTemp("", "chaos-smoke-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "bestagond")
	args := []string{"build", "-o", bin}
	if os.Getenv("CHAOS_RACE") == "1" {
		args = append(args, "-race")
	}
	step("building bestagond")
	build := exec.Command("go", append(args, "./cmd/bestagond")...)
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fatal(fmt.Errorf("build: %w", err))
	}

	addr := freeAddr()
	base = "http://" + addr
	step("starting daemon with faults armed: " + faultSpec)
	daemon := exec.Command(bin,
		"-addr", addr,
		"-workers", "2",
		"-cache-dir", filepath.Join(tmp, "cache"),
		"-faults", faultSpec,
		"-faults-seed", "7",
		"-max-retries", "2",
		"-degrade-margin", "250ms",
		// Short SLO windows so budget burn is visible during the storm and
		// measurably recovers within the smoke run's few idle seconds.
		"-slo-short-window", "3s",
		"-slo-long-window", "1m",
		"-log-level", "warn",
	)
	daemon.Stdout, daemon.Stderr = os.Stderr, os.Stderr
	if err := daemon.Start(); err != nil {
		fatal(err)
	}
	defer daemon.Process.Kill()
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	alive := func(when string) {
		select {
		case err := <-exited:
			fatal(fmt.Errorf("daemon exited %s: %v", when, err))
		default:
		}
	}

	waitHealthy(30 * time.Second)

	step("priming canonical requests (cold pass under faults)")
	var gates struct {
		Gates []string `json:"gates"`
	}
	mustGet("/v1/gates", &gates)
	if len(gates.Gates) == 0 {
		fatal(fmt.Errorf("empty gate library"))
	}
	canonical := []struct {
		path string
		req  map[string]any
		cold []byte
		hits int
	}{
		{path: "/v1/simulate", req: map[string]any{"gate": gates.Gates[0]}},
		{path: "/v1/gates/validate", req: map[string]any{"gate": gates.Gates[0]}},
		{path: "/v1/flow", req: map[string]any{"bench": "xor2", "engine": "ortho"}},
	}
	for i := range canonical {
		c := &canonical[i]
		// Injected panics (500) and degrades can hit the cold pass too;
		// retry until a clean, cacheable 200 comes back.
		for attempt := 0; ; attempt++ {
			if attempt > 50 {
				fatal(fmt.Errorf("%s: no clean cold response in %d attempts", c.path, attempt))
			}
			code, hdr, body := post(c.path, c.req)
			if code == http.StatusOK && hdr.Get("X-Degraded") == "" {
				c.cold = body
				break
			}
		}
	}

	step(fmt.Sprintf("request storm: %d mixed requests with panics, disk faults, and deadline pressure", storm))
	var codes = map[int]int{}
	var degraded, cacheHits int
	// Every error or degraded job must later have a retrievable
	// flight-recorder trace; collect their job ids as the storm runs.
	badJobs := map[string]string{} // job id -> why it must be retained
	var maxBurn float64
	for i := 0; i < storm; i++ {
		alive(fmt.Sprintf("mid-storm (request %d)", i))
		var code int
		var hdr http.Header
		var body []byte
		switch i % 5 {
		case 0, 1, 2: // canonical requests keep probing cache identity
			c := &canonical[i%3]
			code, hdr, body = post(c.path, c.req)
			if code == http.StatusOK && hdr.Get("X-Cache") == "hit" {
				c.hits++
				cacheHits++
				if hdr.Get("X-Degraded") != "" {
					fatal(fmt.Errorf("%s: a degraded response was served from cache", c.path))
				}
				if !bytes.Equal(body, c.cold) {
					fatal(fmt.Errorf("%s: warm response differs from cold original\ncold: %s\nwarm: %s", c.path, c.cold, body))
				}
			}
		case 3: // fresh simulate: deadline-pressure fault can degrade it
			code, hdr, body = post("/v1/simulate", map[string]any{
				"gate": gates.Gates[i%len(gates.Gates)],
			})
			if hdr.Get("X-Degraded") == "true" {
				degraded++
				if hdr.Get("X-Cache") == "hit" {
					fatal(fmt.Errorf("degraded simulate served from cache"))
				}
			}
		default: // timeout storm: 1ms deadlines force the canceled path
			code, hdr, body = post("/v1/flow", map[string]any{
				"bench": "mux21", "engine": "ortho", "timeout_ms": 1, "nocache": true,
			})
		}
		codes[code]++
		if hdr != nil {
			if jid := hdr.Get("X-Job-Id"); jid != "" &&
				(code >= 500 || code == http.StatusUnprocessableEntity || hdr.Get("X-Degraded") == "true") {
				badJobs[jid] = fmt.Sprintf("status %d degraded=%q", code, hdr.Get("X-Degraded"))
			}
		}
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusGatewayTimeout:
		case http.StatusInternalServerError, http.StatusUnprocessableEntity:
			// Injected panics and fault errors; the body must carry the
			// machine-readable kind.
			var e struct {
				Kind string `json:"error_kind"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Kind == "" {
				fatal(fmt.Errorf("error response without error_kind: %d %s", code, body))
			}
		default:
			fatal(fmt.Errorf("unexpected status %d: %s", code, body))
		}
		if i%20 == 0 {
			if code := getCode("/healthz"); code != http.StatusOK {
				fatal(fmt.Errorf("healthz = %d mid-storm; daemon must stay live", code))
			}
			if b := flowBurn("3s"); b > maxBurn {
				maxBurn = b
			}
		}
	}
	alive("after the storm")
	if code := getCode("/healthz"); code != http.StatusOK {
		fatal(fmt.Errorf("healthz = %d after the storm", code))
	}
	for _, c := range canonical {
		if c.hits == 0 {
			fatal(fmt.Errorf("%s: storm never observed a cache hit; byte-identity was not exercised", c.path))
		}
	}
	fmt.Printf("chaos-smoke: status codes %v, cache hits %d, degraded %d, bad jobs %d\n",
		codes, cacheHits, degraded, len(badJobs))

	step("SLO: error budget must burn under faults and recover after")
	if b := flowBurn("3s"); b > maxBurn {
		maxBurn = b
	}
	// 20% injected faults against a 1% error budget: the short-window burn
	// rate must have exceeded 1 (burning faster than budget) mid-storm.
	if maxBurn <= 1 {
		fatal(fmt.Errorf("flow short-window burn rate peaked at %.2f; want > 1 under 20%% faults", maxBurn))
	}
	fmt.Printf("chaos-smoke: peak flow burn rate %.1f; waiting for the 3s window to drain\n", maxBurn)
	time.Sleep(4 * time.Second)
	if b := flowBurn("3s"); b != 0 {
		fatal(fmt.Errorf("flow short-window burn rate %.2f after idle; want 0 (budget recovered)", b))
	}

	step("flight recorder: every error/degraded job has a retrievable trace")
	var fr struct {
		Retained map[string]int `json:"retained"`
		Traces   []struct {
			ID string `json:"id"`
		} `json:"traces"`
	}
	mustGet("/debug/flightrecorder", &fr)
	retainedIDs := map[string]bool{}
	for _, t := range fr.Traces {
		retainedIDs[t.ID] = true
	}
	if fr.Retained["error"] == 0 {
		fatal(fmt.Errorf("flight recorder retained no error-class traces after the storm"))
	}
	if len(badJobs) == 0 {
		fatal(fmt.Errorf("storm produced no error/degraded jobs; fault injection broken"))
	}
	for id, why := range badJobs {
		if !retainedIDs[id] {
			fatal(fmt.Errorf("job %s (%s) not retained by the flight recorder", id, why))
		}
		if code := getCode("/v1/traces/" + id); code != http.StatusOK {
			fatal(fmt.Errorf("GET /v1/traces/%s = %d; want 200 for a retained %s job", id, code, why))
		}
	}
	fmt.Printf("chaos-smoke: all %d error/degraded traces retained and retrievable\n", len(badJobs))

	step("metrics: panic, degrade, and breaker series")
	metrics := rawGet("/metrics")
	for _, want := range []string{
		"jobs_panicked_total",
		"sim_degraded_total",
		"cache_disk_breaker_state",
		"cache_disk_io_errors_total",
		"faults_armed 1",
		"slo_burn_rate{",
		"flight_retained{",
	} {
		if !strings.Contains(metrics, want) {
			fatal(fmt.Errorf("metrics missing %q", want))
		}
	}
	if v := metricValue(metrics, "jobs_panicked_total"); v <= 0 {
		fatal(fmt.Errorf("jobs_panicked_total = %v; the panic fault never fired", v))
	}
	if !strings.Contains(metrics, `sim_degraded_total{`) {
		fatal(fmt.Errorf("no labeled sim_degraded_total series"))
	}

	step("defect sweep: survives injected worker panics, then cancels cleanly mid-run")
	// Small synchronous sweeps until one completes cleanly. The
	// defectsweep.item.panic fault (20% per pool worker) can kill an
	// attempt with error_kind "panic" — the daemon must isolate each one
	// and keep serving.
	var sweepPanics int
	sweepOK := false
	for attempt := 0; attempt < 40 && !sweepOK; attempt++ {
		alive("during defect sweeps")
		code, _, body := post("/v1/defects/sweep", map[string]any{
			"densities": []float64{0.3}, "seeds": 1, "workers": 2, "solver": "quickexact",
		})
		switch code {
		case http.StatusOK:
			var res struct {
				Gates  int              `json:"gates"`
				Points []map[string]any `json:"points"`
			}
			if err := json.Unmarshal(body, &res); err != nil || res.Gates == 0 || len(res.Points) != 1 {
				fatal(fmt.Errorf("degenerate sweep result: %s", body))
			}
			sweepOK = true
		case http.StatusInternalServerError, http.StatusUnprocessableEntity, http.StatusGatewayTimeout:
			var e struct {
				Kind string `json:"error_kind"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Kind == "" {
				fatal(fmt.Errorf("sweep error without error_kind: %d %s", code, body))
			}
			if e.Kind == "panic" {
				sweepPanics++
			}
		case http.StatusTooManyRequests:
			time.Sleep(100 * time.Millisecond)
		default:
			fatal(fmt.Errorf("sweep: unexpected status %d: %s", code, body))
		}
	}
	if !sweepOK {
		fatal(fmt.Errorf("no defect sweep completed cleanly in 40 attempts (%d panicked)", sweepPanics))
	}
	fmt.Printf("chaos-smoke: defect sweep completed under faults (%d attempts panicked first)\n", sweepPanics)

	// A large async sweep cancelled mid-run must land as error_kind
	// "canceled". Exhaustive enumeration keeps it running for minutes; the
	// same sweep under quickexact finishes in under 100 ms, before the
	// cancel lands. An injected panic can beat the cancel to the job; retry
	// until the cancel wins.
	sweepCanceled := false
	for attempt := 0; attempt < 40 && !sweepCanceled; attempt++ {
		alive("during sweep cancellation")
		code, _, body := post("/v1/defects/sweep", map[string]any{
			"densities": []float64{0.5, 1, 2, 4}, "seeds": 8, "workers": 2,
			"solver": "exgs", "async": true,
		})
		if code == http.StatusTooManyRequests {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if code != http.StatusAccepted {
			fatal(fmt.Errorf("async sweep: status %d: %s", code, body))
		}
		var snap struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &snap); err != nil || snap.ID == "" {
			fatal(fmt.Errorf("async sweep: no job id in %s", body))
		}
		time.Sleep(150 * time.Millisecond)
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+snap.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		deadline := time.Now().Add(30 * time.Second)
		for {
			// GET /v1/jobs/{id} nests the status under "job".
			var st struct {
				Job struct {
					State string `json:"state"`
					Kind  string `json:"error_kind"`
				} `json:"job"`
			}
			mustGet("/v1/jobs/"+snap.ID, &st)
			if st.Job.State == "canceled" {
				if st.Job.Kind != "canceled" {
					fatal(fmt.Errorf("cancelled sweep: error_kind %q, want \"canceled\"", st.Job.Kind))
				}
				sweepCanceled = true
				break
			}
			if st.Job.State == "failed" || st.Job.State == "done" {
				break // a panic or completion beat the cancel; try again
			}
			if time.Now().After(deadline) {
				fatal(fmt.Errorf("sweep %s not terminal after cancel", snap.ID))
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !sweepCanceled {
		fatal(fmt.Errorf("no async sweep observed error_kind \"canceled\" in 40 attempts"))
	}
	// No leaked workers: jobs_running must drain to zero.
	drainDeadline := time.Now().Add(10 * time.Second)
	for {
		var hz struct {
			JobsRunning int `json:"jobs_running"`
		}
		mustGet("/healthz", &hz)
		if hz.JobsRunning == 0 {
			break
		}
		if time.Now().After(drainDeadline) {
			fatal(fmt.Errorf("jobs_running = %d after sweep cancellation; workers leaked", hz.JobsRunning))
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("chaos-smoke: mid-sweep cancellation drained cleanly (error_kind canceled, jobs_running 0)")

	step("SIGTERM: graceful drain and clean exit under faults")
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			fatal(fmt.Errorf("daemon exit: %w", err))
		}
	case <-time.After(30 * time.Second):
		fatal(fmt.Errorf("daemon did not exit within 30s of SIGTERM"))
	}

	// Phase 2: kill -9 a journaled daemon mid-job; restarts must answer
	// for every pre-crash job id and quarantine corrupted cache entries
	// (see durability.go).
	durabilityScenario(bin)

	// Phase 3: a clustered fleet must survive losing a replica mid-storm.
	fleetScenario(bin)

	fmt.Println("chaos-smoke: PASS")
}

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
		if getCode("/healthz") == http.StatusOK {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	fatal(fmt.Errorf("daemon never became healthy"))
}

func getCode(path string) int {
	resp, err := http.Get(base + path)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func rawGet(path string) string {
	resp, err := http.Get(base + path)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
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

func post(path string, payload any) (int, http.Header, []byte) {
	b, _ := json.Marshal(payload)
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		fatal(fmt.Errorf("POST %s: %w (daemon gone?)", path, err))
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body
}

// flowBurn reads the flow objective's burn rate for the named window from
// /healthz (0 when the section is missing — callers assert on peaks, so a
// transiently unreadable sample only loses one data point).
func flowBurn(window string) float64 {
	var hz struct {
		SLO map[string]struct {
			Windows []struct {
				Window   string  `json:"window"`
				BurnRate float64 `json:"burn_rate"`
			} `json:"windows"`
		} `json:"slo"`
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		return 0
	}
	for _, w := range hz.SLO["flow"].Windows {
		if w.Window == window {
			return w.BurnRate
		}
	}
	return 0
}

// metricValue extracts the sample of the first series whose name starts
// with name (labels allowed), or -1 when absent.
func metricValue(exposition, name string) float64 {
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		var v float64
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			fmt.Sscanf(line[i+1:], "%g", &v)
			return v
		}
	}
	return -1
}

func step(msg string) { fmt.Println("chaos-smoke:", msg) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chaos-smoke: FAIL:", err)
	os.Exit(1)
}
