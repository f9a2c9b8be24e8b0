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
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/scripts/internal/smoke"
)

// faultSpec arms every fault class the PR's failure model covers at 20%.
const faultSpec = "service.job.panic=p:0.2;cache.disk.read=p:0.2;cache.disk.write=p:0.2;sim.solve.exact=p:0.2;defectsweep.item.panic=p:0.2"

const storm = 200

func main() { smoke.Run("chaos-smoke", run) }

func run(tmp string) {
	bin := smoke.Build(tmp, os.Getenv("CHAOS_RACE") == "1")

	smoke.Step("starting daemon with faults armed: %s", faultSpec)
	daemon := smoke.Start(bin, smoke.FreeAddr(),
		"-workers", "2",
		"-cache-dir", filepath.Join(tmp, "cache"),
		"-faults", faultSpec,
		"-faults-seed", "7",
		// Short SLO windows so budget burn is visible during the storm and
		// measurably recovers within the smoke run's few idle seconds.
		"-slo-short-window", "3s",
		"-slo-long-window", "1m",
		"-log-level", "warn",
	)
	daemon.WaitHealthy(30 * time.Second)
	base := daemon.URL
	alive := func(when string) {
		if exited, err := daemon.Exited(); exited {
			smoke.Fatalf("daemon exited %s: %v", when, err)
		}
	}

	smoke.Step("priming canonical requests (cold pass under faults)")
	var gates struct {
		Gates []string `json:"gates"`
	}
	smoke.GetJSON(base+"/v1/gates", &gates)
	if len(gates.Gates) == 0 {
		smoke.Fatalf("empty gate library")
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
				smoke.Fatalf("%s: no clean cold response in %d attempts", c.path, attempt)
			}
			code, hdr, body := smoke.Post(base+c.path, c.req)
			if code == http.StatusOK && hdr.Get("X-Degraded") == "" {
				c.cold = body
				break
			}
		}
	}

	smoke.Step("request storm: %d mixed requests with panics, disk faults, and deadline pressure", storm)
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
			code, hdr, body = smoke.Post(base+c.path, c.req)
			if code == http.StatusOK && hdr.Get("X-Cache") == "hit" {
				c.hits++
				cacheHits++
				if hdr.Get("X-Degraded") != "" {
					smoke.Fatalf("%s: a degraded response was served from cache", c.path)
				}
				if !bytes.Equal(body, c.cold) {
					smoke.Fatalf("%s: warm response differs from cold original\ncold: %s\nwarm: %s", c.path, c.cold, body)
				}
			}
		case 3: // fresh simulate: deadline-pressure fault can degrade it
			code, hdr, body = smoke.Post(base+"/v1/simulate", map[string]any{
				"gate": gates.Gates[i%len(gates.Gates)],
			})
			if hdr.Get("X-Degraded") == "true" {
				degraded++
				if hdr.Get("X-Cache") == "hit" {
					smoke.Fatalf("degraded simulate served from cache")
				}
			}
		default: // timeout storm: 1ms deadlines force the canceled path
			code, hdr, body = smoke.Post(base+"/v1/flow", map[string]any{
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
				smoke.Fatalf("error response without error_kind: %d %s", code, body)
			}
		default:
			smoke.Fatalf("unexpected status %d: %s", code, body)
		}
		if i%20 == 0 {
			if code, _, _ := smoke.Get(base + "/healthz"); code != http.StatusOK {
				smoke.Fatalf("healthz = %d mid-storm; daemon must stay live", code)
			}
			if b := flowBurn(base, "3s"); b > maxBurn {
				maxBurn = b
			}
		}
	}
	alive("after the storm")
	if code, _, _ := smoke.Get(base + "/healthz"); code != http.StatusOK {
		smoke.Fatalf("healthz = %d after the storm", code)
	}
	for _, c := range canonical {
		if c.hits == 0 {
			smoke.Fatalf("%s: storm never observed a cache hit; byte-identity was not exercised", c.path)
		}
	}
	smoke.Step("status codes %v, cache hits %d, degraded %d, bad jobs %d",
		codes, cacheHits, degraded, len(badJobs))

	smoke.Step("SLO: error budget must burn under faults and recover after")
	if b := flowBurn(base, "3s"); b > maxBurn {
		maxBurn = b
	}
	// 20% injected faults against a 1% error budget: the short-window burn
	// rate must have exceeded 1 (burning faster than budget) mid-storm.
	if maxBurn <= 1 {
		smoke.Fatalf("flow short-window burn rate peaked at %.2f; want > 1 under 20%% faults", maxBurn)
	}
	smoke.Step("peak flow burn rate %.1f; waiting for the 3s window to drain", maxBurn)
	time.Sleep(4 * time.Second)
	if b := flowBurn(base, "3s"); b != 0 {
		smoke.Fatalf("flow short-window burn rate %.2f after idle; want 0 (budget recovered)", b)
	}

	smoke.Step("flight recorder: every error/degraded job has a retrievable trace")
	var fr struct {
		Retained map[string]int `json:"retained"`
		Traces   []struct {
			ID string `json:"id"`
		} `json:"traces"`
	}
	smoke.GetJSON(base+"/debug/flightrecorder", &fr)
	retainedIDs := map[string]bool{}
	for _, t := range fr.Traces {
		retainedIDs[t.ID] = true
	}
	if fr.Retained["error"] == 0 {
		smoke.Fatalf("flight recorder retained no error-class traces after the storm")
	}
	if len(badJobs) == 0 {
		smoke.Fatalf("storm produced no error/degraded jobs; fault injection broken")
	}
	for id, why := range badJobs {
		if !retainedIDs[id] {
			smoke.Fatalf("job %s (%s) not retained by the flight recorder", id, why)
		}
		if code, _, _ := smoke.Get(base + "/v1/traces/" + id); code != http.StatusOK {
			smoke.Fatalf("GET /v1/traces/%s = %d; want 200 for a retained %s job", id, code, why)
		}
	}
	smoke.Step("all %d error/degraded traces retained and retrievable", len(badJobs))

	smoke.Step("metrics: panic, degrade, and breaker series")
	exposition := metrics(daemon)
	for _, want := range []string{
		"jobs_panicked_total",
		"sim_degraded_total",
		"cache_disk_breaker_state",
		"cache_disk_io_errors_total",
		"faults_armed 1",
		"slo_burn_rate{",
		"flight_retained{",
	} {
		if !strings.Contains(exposition, want) {
			smoke.Fatalf("metrics missing %q", want)
		}
	}
	if v := smoke.MetricValue(exposition, "jobs_panicked_total"); v <= 0 {
		smoke.Fatalf("jobs_panicked_total = %v; the panic fault never fired", v)
	}
	if !strings.Contains(exposition, `sim_degraded_total{`) {
		smoke.Fatalf("no labeled sim_degraded_total series")
	}

	smoke.Step("defect sweep: survives injected worker panics, then cancels cleanly mid-run")
	// Small synchronous sweeps until one completes cleanly. The
	// defectsweep.item.panic fault (20% per pool worker) can kill an
	// attempt with error_kind "panic" — the daemon must isolate each one
	// and keep serving.
	var sweepPanics int
	sweepOK := false
	for attempt := 0; attempt < 40 && !sweepOK; attempt++ {
		alive("during defect sweeps")
		code, _, body := smoke.Post(base+"/v1/defects/sweep", map[string]any{
			"densities": []float64{0.3}, "seeds": 1, "workers": 2, "solver": "quickexact",
		})
		switch code {
		case http.StatusOK:
			var res struct {
				Gates  int              `json:"gates"`
				Points []map[string]any `json:"points"`
			}
			if err := json.Unmarshal(body, &res); err != nil || res.Gates == 0 || len(res.Points) != 1 {
				smoke.Fatalf("degenerate sweep result: %s", body)
			}
			sweepOK = true
		case http.StatusInternalServerError, http.StatusUnprocessableEntity, http.StatusGatewayTimeout:
			var e struct {
				Kind string `json:"error_kind"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Kind == "" {
				smoke.Fatalf("sweep error without error_kind: %d %s", code, body)
			}
			if e.Kind == "panic" {
				sweepPanics++
			}
		case http.StatusTooManyRequests:
			time.Sleep(100 * time.Millisecond)
		default:
			smoke.Fatalf("sweep: unexpected status %d: %s", code, body)
		}
	}
	if !sweepOK {
		smoke.Fatalf("no defect sweep completed cleanly in 40 attempts (%d panicked)", sweepPanics)
	}
	smoke.Step("defect sweep completed under faults (%d attempts panicked first)", sweepPanics)

	// A large async sweep cancelled mid-run must land as error_kind
	// "canceled". Exhaustive enumeration keeps it running for minutes; the
	// same sweep under quickexact finishes in under 100 ms, before the
	// cancel lands. An injected panic can beat the cancel to the job; retry
	// until the cancel wins.
	sweepCanceled := false
	for attempt := 0; attempt < 40 && !sweepCanceled; attempt++ {
		alive("during sweep cancellation")
		code, _, body := smoke.Post(base+"/v1/defects/sweep", map[string]any{
			"densities": []float64{0.5, 1, 2, 4}, "seeds": 8, "workers": 2,
			"solver": "exgs", "async": true,
		})
		if code == http.StatusTooManyRequests {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if code != http.StatusAccepted {
			smoke.Fatalf("async sweep: status %d: %s", code, body)
		}
		var snap struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &snap); err != nil || snap.ID == "" {
			smoke.Fatalf("async sweep: no job id in %s", body)
		}
		time.Sleep(150 * time.Millisecond)
		smoke.Delete(base + "/v1/jobs/" + snap.ID)
		// A panic or completion can beat the cancel; then try again.
		if st := smoke.WaitJob(base, snap.ID, 30*time.Second); st.State == "canceled" {
			if st.ErrorKind != "canceled" {
				smoke.Fatalf("cancelled sweep: error_kind %q, want \"canceled\"", st.ErrorKind)
			}
			sweepCanceled = true
		}
	}
	if !sweepCanceled {
		smoke.Fatalf("no async sweep observed error_kind \"canceled\" in 40 attempts")
	}
	// No leaked workers: jobs_running must drain to zero.
	smoke.Eventually(10*time.Second, 50*time.Millisecond, func() error {
		var hz smoke.Health
		smoke.GetJSON(base+"/healthz", &hz)
		if hz.JobsRunning != 0 {
			return fmt.Errorf("jobs_running = %d after sweep cancellation; workers leaked", hz.JobsRunning)
		}
		return nil
	})
	smoke.Step("mid-sweep cancellation drained cleanly (error_kind canceled, jobs_running 0)")

	smoke.Step("SIGTERM: graceful drain and clean exit under faults")
	daemon.Stop()

	// Phase 2: kill -9 a journaled daemon mid-job; restarts must answer
	// for every pre-crash job id and quarantine corrupted cache entries
	// (see durability.go).
	durabilityScenario(bin, filepath.Join(tmp, "durability"))
}

// flowBurn reads the flow objective's burn rate for the named window from
// /healthz (0 when the section is missing — callers assert on peaks, so a
// transiently unreadable sample only loses one data point).
func flowBurn(base, window string) float64 {
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

// metrics is the daemon's /metrics exposition.
func metrics(d *smoke.Daemon) string {
	_, _, body := smoke.Get(d.URL + "/metrics")
	return string(body)
}
