package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// fourDots is a tiny exact-solvable simulate request payload.
func fourDots() map[string]any {
	return map[string]any{
		"solver": "exgs",
		"dots": []map[string]any{
			{"x": 0, "y": 0},
			{"x": 3, "y": 0, "role": "perturber"},
			{"x": 0, "y": 4},
			{"x": 3, "y": 4, "role": "perturber"},
		},
	}
}

func TestSimulateWarmCacheByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp1, body1 := postJSON(t, ts.URL+"/v1/simulate", fourDots())
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold simulate: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("cold X-Cache = %q", got)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/simulate", fourDots())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm simulate: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("warm X-Cache = %q", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("warm body differs:\n%s\n%s", body1, body2)
	}
	var sr simulateResponse
	if err := json.Unmarshal(body1, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Exact || sr.Dots != 4 || sr.FreeDots != 2 || len(sr.Charges) != 4 {
		t.Fatalf("bad simulate response: %+v", sr)
	}
}

func TestFlowWarmCacheByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := map[string]any{"bench": "xor2", "engine": "ortho", "sqd": true}
	resp1, body1 := postJSON(t, ts.URL+"/v1/flow", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold flow: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("cold X-Cache = %q", got)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/flow", req)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("warm X-Cache = %q", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("warm flow body differs from cold")
	}
	var art struct {
		Name  string `json:"name"`
		SiDBs int    `json:"sidbs"`
		SQD   string `json:"sqd"`
	}
	if err := json.Unmarshal(body1, &art); err != nil {
		t.Fatal(err)
	}
	if art.Name != "xor2" || art.SiDBs == 0 || !strings.Contains(art.SQD, "siqad") {
		t.Fatalf("bad flow artifact: name=%q sidbs=%d", art.Name, art.SiDBs)
	}
}

// TestFlowIgnoresRetiredFields: "cellsim" and "solver" are no
// longer /v1/flow fields, so a request that still sends them is the same
// request as one without them: a memory hit with a byte-identical body.
// The timeout (not part of the cache key) bounds the run should the fields
// ever start a whole-layout simulation again.
func TestFlowIgnoresRetiredFields(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	resp1, body1 := postJSON(t, ts.URL+"/v1/flow", map[string]any{"bench": "xor2", "engine": "ortho"})
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold flow: %d %s", resp1.StatusCode, body1)
	}
	memHits := s.lru.Stats().Hits
	resp2, body2 := postJSON(t, ts.URL+"/v1/flow", map[string]any{
		"bench": "xor2", "engine": "ortho", "cellsim": true, "solver": "exgs", "timeout_ms": 3000,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("flow with retired fields: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" || s.lru.Stats().Hits != memHits+1 {
		t.Fatalf("X-Cache = %q, memory hits %d -> %d; want a memory hit",
			got, memHits, s.lru.Stats().Hits)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("body differs:\n%s\n%s", body1, body2)
	}
	var art map[string]json.RawMessage
	if err := json.Unmarshal(body2, &art); err != nil {
		t.Fatal(err)
	}
	if _, ok := art["cellsim"]; ok {
		t.Fatalf("response carries a cellsim key: %s", body2)
	}
}

// TestColdFlowDeterministic: two cold exact flows of one circuit, with
// the cache bypassed, must return byte-identical bodies, so one flow
// cache key always names one layout.
func TestColdFlowDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := map[string]any{"bench": "c17", "sqd": true, "nocache": true}
	var bodies [2][]byte
	for i := range bodies {
		resp, body := postJSON(t, ts.URL+"/v1/flow", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold flow %d: %d %s", i, resp.StatusCode, body)
		}
		bodies[i] = body
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("cold flow bodies differ:\n%.400s\n%.400s", bodies[0], bodies[1])
	}
}

// TestDiskCacheSurvivesRestart: every cached result kind is written
// through to the disk tier, so a fresh server over the same cache dir
// holds it on disk before anything has reloaded it into memory, and
// serves it warm.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	for _, c := range []struct {
		kind, path string
		req        map[string]any
	}{
		{"flow", "/v1/flow", map[string]any{"bench": "xor2", "engine": "ortho"}},
		{"simulate", "/v1/simulate", fourDots()},
		{"validate", "/v1/gates/validate", map[string]any{"gate": "wire:iNE:oSW"}},
	} {
		t.Run(c.kind, func(t *testing.T) {
			dir := t.TempDir()
			s1, ts1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
			resp1, body1 := postJSON(t, ts1.URL+c.path, c.req)
			if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != "miss" {
				t.Fatalf("cold: %d X-Cache %q: %s", resp1.StatusCode, resp1.Header.Get("X-Cache"), body1)
			}
			raw, _ := json.Marshal(c.req)
			op, err := findRoute(func(rt *opRoute) bool { return rt.path == c.path }).prepare(s1, raw)
			if err != nil {
				t.Fatal(err)
			}
			entry, ok := s1.lru.Get(op.key)
			if !ok {
				t.Fatalf("cold result not cached under %s", op.key)
			}

			s2, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
			b, ok, err := s2.tiers.Disk.Get(context.Background(), op.key)
			if err != nil || !ok || !bytes.Equal(b, entry) {
				t.Fatalf("disk read after restart: ok %v, err %v, entry matches %v", ok, err, bytes.Equal(b, entry))
			}
			resp2, body2 := postJSON(t, ts2.URL+c.path, c.req)
			if got := resp2.Header.Get("X-Cache"); got != "hit" {
				t.Fatalf("restarted server X-Cache = %q", got)
			}
			if !bytes.Equal(body1, body2) {
				t.Fatal("disk-replayed body differs")
			}
			if n := s2.tr.Counter(obs.Labeled("jobs/cold_solves_total", "kind", c.kind)).Value(); n != 0 {
				t.Fatalf("restarted server solved %d times; want 0", n)
			}
		})
	}
}

// slowPNRNetlist is a fixed random 5-input, 14-gate netlist whose exact
// placement and routing is a long SAT size search: 3.5–7 s cold to a 5×15
// layout on a 2-core x86-64 host, while rewriting and mapping take
// milliseconds.
const slowPNRNetlist = `INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(f)
OUTPUT(g)
n0 = NAND(a, b)
n1 = NAND(b, c)
n2 = NAND(c, d)
n3 = XOR(d, e)
n4 = XOR(e, a)
n5 = AND(n1, n3)
n6 = AND(n2, e)
n7 = AND(n3, c)
n8 = NAND(n4, a)
n9 = XOR(n5, n8)
n10 = AND(n7, n0)
n11 = NAND(n9, n5)
g = OR(n11, n7)
f = OR(n10, n1)
`

// TestFlowCancellation is the flow-wide cancellation acceptance test: the
// exact engine on slowPNRNetlist spends seconds cold in the P&R size
// search. The request must come back canceled well under the cold
// runtime, and the run itself, which single-flight detaches from the
// request but which keeps its 200ms deadline, must abort that SAT search
// mid-run: its pnr stage has to end far below the cold runtime too.
func TestFlowCancellation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/flow", map[string]any{
		"source":     slowPNRNetlist,
		"engine":     "exact",
		"timeout_ms": 200,
	})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expected 504, got %d: %s", resp.StatusCode, body)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v; the solver did not stop", elapsed)
	}
	if !strings.Contains(string(body), "canceled") {
		t.Fatalf("body does not report cancellation: %s", body)
	}
	pnr := s.tr.Histogram(obs.Labeled("flow_stage_seconds", "stage", "pnr"), obs.DefBuckets...)
	for stop := time.Now().Add(3 * time.Second); pnr.Count() == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(stop) {
			t.Fatal("the P&R search was still running 3s after the deadline")
		}
	}
	if sec := pnr.Sum(); sec > 1.5 {
		t.Fatalf("the P&R search ran %.2fs; it did not stop at the deadline", sec)
	}
}

// TestAnnealSolverRemoved: "anneal" is no longer a solver name, so a
// request naming it is a 400 that lists the names there are.
func TestAnnealSolverRemoved(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/simulate", map[string]any{"gate": "wire:iNW:oSE", "solver": "anneal"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "quicksim") {
		t.Fatalf("solver anneal: %d %s", resp.StatusCode, body)
	}
}

// TestSimulateDegradesUnderDeadline requests an exhaustive enumeration
// that would otherwise effectively never finish (2^38 configurations)
// under a deadline too small for it. Instead of burning the budget and
// answering 504, the degradation ladder must hand the remaining time to
// QuickSim and answer 200 with degraded:true (and never cache it).
func TestSimulateDegradesUnderDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var dots []map[string]any
	for i := 0; i < 38; i++ {
		dots = append(dots, map[string]any{"x": (i % 8) * 3, "y": (i / 8) * 4})
	}
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"solver":     "exgs",
		"dots":       dots,
		"timeout_ms": 150,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expected 200 degraded, got %d: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("degraded response took %v; the deadline was not honored", elapsed)
	}
	if resp.Header.Get("X-Degraded") != "true" {
		t.Fatalf("missing X-Degraded header; headers: %v", resp.Header)
	}
	var out struct {
		Solver   string `json:"solver"`
		Degraded bool   `json:"degraded"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.Solver != "quicksim" {
		t.Fatalf("expected degraded quicksim result, got %s", body)
	}

	// A degraded result must not poison the cache: the same request again
	// must get the full-quality (exact-capable) path, not a warm copy of
	// the degraded answer. 2^38 is still infeasible, so the retry must be a
	// cache miss that degrades again to a 200.
	resp2, body2 := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"solver":     "exgs",
		"dots":       dots,
		"timeout_ms": 100,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry: expected 200 degraded, got %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("degraded result was cached: X-Cache = %q", got)
	}
}

// TestFlowDegradesUnderDeadline: a flow whose deadline is below the
// degradation margin (sim.DefaultDegradeMargin) skips exact P&R and is
// placed by the ortho router. The answer is a 200 marked degraded, and it
// is not cached: the repeat is a miss again.
func TestFlowDegradesUnderDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := map[string]any{"bench": "xor2", "timeout_ms": 240}
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/flow", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: expected 200 degraded, got %d: %s", i, resp.StatusCode, body)
		}
		var out struct {
			Engine   string `json:"engine_used"`
			Degraded bool   `json:"degraded"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get("X-Degraded") != "true" || resp.Header.Get("X-Cache") != "miss" || !out.Degraded || out.Engine != "ortho" {
			t.Fatalf("request %d: X-Degraded %q X-Cache %q, want true miss and a degraded ortho layout: %s",
				i, resp.Header.Get("X-Degraded"), resp.Header.Get("X-Cache"), body)
		}
	}
}

// TestValidateFallbackIsNotCached: a quickexact validation whose pattern 0
// fell back to QuickSim (an injected shard panic) is served with method
// quicksim, X-Degraded and job error_kind "degraded" but not cached, so
// the repeat solves exactly, is a miss and is not marked degraded.
func TestValidateFallbackIsNotCached(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := map[string]any{"gate": "or:iNW:iNE:oSE", "solver": "quickexact"}
	if err := faults.Arm("quickexact.shard.panic=n:1", 1); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()
	for _, want := range []struct{ method, degraded, kind string }{{"quicksim", "true", ErrKindDegraded}, {"quickexact", "", ""}} {
		resp, body := postJSON(t, ts.URL+"/v1/gates/validate", req)
		var v validateResponse
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || v.Method != want.method || resp.Header.Get("X-Cache") != "miss" ||
			resp.Header.Get("X-Degraded") != want.degraded {
			t.Fatalf("%d X-Cache %q X-Degraded %q method %q, want 200 miss %q %s: %s", resp.StatusCode,
				resp.Header.Get("X-Cache"), resp.Header.Get("X-Degraded"), v.Method, want.degraded, want.method, body)
		}
		if st, _ := jobStatus(t, ts.URL, resp.Header.Get("X-Job-Id")); st.ErrorKind != want.kind {
			t.Fatalf("job %s error_kind %q, want %q", st.ID, st.ErrorKind, want.kind)
		}
	}
}

// TestValidateHonoursDeadline: an exhaustive validation that takes
// seconds cold must stop at its deadline with a 504 timeout, and at a
// DELETE /v1/jobs/{id} with a 504 canceled, instead of holding its worker
// until every pattern is solved.
func TestValidateHonoursDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	req := map[string]any{"gate": "crossing:iNW:iNE:oSW:oSE", "solver": "exgs", "timeout_ms": 100}
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/gates/validate", req)
	if resp.StatusCode != http.StatusGatewayTimeout || !strings.Contains(string(body), `"error_kind":"timeout"`) {
		t.Fatalf("expected 504 timeout, got %d: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timeout answered after %v; the validation did not stop", elapsed)
	}

	delete(req, "timeout_ms")
	type answer struct {
		code int
		body []byte
	}
	done := make(chan answer, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/gates/validate", req)
		done <- answer{resp.StatusCode, body}
	}()
	var j *Job
	waitForCond(t, func() bool {
		j, _ = s.queue.Get("j00000002")
		return j != nil && j.State() == JobRunning
	})
	start = time.Now()
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	select {
	case a := <-done:
		if a.code != http.StatusGatewayTimeout || !strings.Contains(string(a.body), `"error_kind":"canceled"`) {
			t.Fatalf("expected 504 canceled, got %d: %s", a.code, a.body)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("DELETE did not stop the validation within 3s")
	}
	t.Logf("canceled %v after the DELETE", time.Since(start))
}

func TestAsyncFlowJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/flow", map[string]any{
		"bench": "xor2", "engine": "ortho", "async": true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatalf("no job id in %s", body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, b := getURL(t, ts.URL+"/v1/jobs/"+st.ID)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("job get: %d %s", r.StatusCode, b)
		}
		var out struct {
			Job    Status          `json:"job"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		if out.Job.State == JobDone {
			if len(out.Result) == 0 {
				t.Fatal("done job has no result")
			}
			break
		}
		if out.Job.State == JobFailed || out.Job.State == JobCanceled {
			t.Fatalf("job ended %s: %s", out.Job.State, out.Job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", out.Job.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestJobDeleteCancels(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var dots []map[string]any
	for i := 0; i < 38; i++ {
		dots = append(dots, map[string]any{"x": (i % 8) * 3, "y": (i / 8) * 4})
	}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"solver": "exgs", "dots": dots, "async": true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, b := getURL(t, ts.URL+"/v1/jobs/"+st.ID)
		r.Body.Close()
		var out struct {
			Job Status `json:"job"`
		}
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		if out.Job.State == JobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not canceled: %s", out.Job.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Saturate the single worker and the one queue slot with parked jobs.
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
	resp, body := postJSON(t, ts.URL+"/v1/simulate", fourDots())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func waitDepth(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.queue.Depth() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue depth never reached %d", want)
}

func TestGatesValidateAndMetadata(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	r, b := getURL(t, ts.URL+"/v1/gates")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("gates: %d %s", r.StatusCode, b)
	}
	var gl struct {
		Gates []string `json:"gates"`
	}
	if err := json.Unmarshal(b, &gl); err != nil {
		t.Fatal(err)
	}
	if len(gl.Gates) == 0 {
		t.Fatal("no gates listed")
	}
	var wire string
	for _, g := range gl.Gates {
		if strings.HasPrefix(g, "wire:") {
			wire = g
			break
		}
	}
	if wire == "" {
		t.Fatalf("no wire variant in %v", gl.Gates)
	}
	resp1, body1 := postJSON(t, ts.URL+"/v1/gates/validate", map[string]any{"gate": wire})
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("validate: %d %s", resp1.StatusCode, body1)
	}
	var v validateResponse
	if err := json.Unmarshal(body1, &v); err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Fatalf("library wire failed validation: %s", body1)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/gates/validate", map[string]any{"gate": wire})
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("warm validate X-Cache = %q", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("warm validate body differs")
	}

	r, b = getURL(t, ts.URL+"/healthz")
	if r.StatusCode != http.StatusOK || !strings.Contains(string(b), `"ok":true`) {
		t.Fatalf("healthz: %d %s", r.StatusCode, b)
	}
	r, b = getURL(t, ts.URL+"/metrics")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", r.StatusCode)
	}
	for _, want := range []string{"cache_mem_hits", "queue_submitted"} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("metrics missing %q:\n%s", want, b)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		path string
		body map[string]any
	}{
		{"/v1/flow", map[string]any{}},
		{"/v1/flow", map[string]any{"bench": "nope"}},
		{"/v1/flow", map[string]any{"bench": "xor2", "engine": "warp"}},
		{"/v1/simulate", map[string]any{}},
		{"/v1/simulate", map[string]any{"gate": "nope"}},
		{"/v1/simulate", map[string]any{"dots": []map[string]any{{"x": 0, "y": 0, "role": "weird"}}}},
		{"/v1/gates/validate", map[string]any{"gate": "nope"}},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %v: expected 400, got %d: %s", c.path, c.body, resp.StatusCode, body)
		}
	}
	r, _ := getURL(t, ts.URL+"/v1/jobs/j99999999")
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: expected 404, got %d", r.StatusCode)
	}
}

// TestConcurrentRequests hammers the service from many goroutines; under
// -race it is the end-to-end data-race test over the queue, worker pool,
// and sharded cache.
func TestConcurrentRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch i % 3 {
				case 0:
					req := fourDots()
					// Vary the layout so some requests miss and some hit.
					req["dots"] = append(req["dots"].([]map[string]any),
						map[string]any{"x": 6 + g%2, "y": 0})
					resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
						errs <- fmt.Errorf("simulate: %d %s", resp.StatusCode, body)
					}
				case 1:
					r, _ := getURL(t, ts.URL+"/metrics")
					if r.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("metrics: %d", r.StatusCode)
					}
				case 2:
					r, _ := getURL(t, ts.URL+"/healthz")
					if r.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("healthz: %d", r.StatusCode)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
