package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// defectList is a small explicit defect surface in request form.
func defectList(dots ...map[string]any) map[string]any {
	return map[string]any{"list": dots}
}

// TestSimulateDefectsDistinctCache: a defect-bearing simulate must miss
// the cache its pristine twin warmed, produce a different result, and be
// byte-identical on its own warm hit.
func TestSimulateDefectsDistinctCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	pristine := fourDots()
	resp, body := postJSON(t, ts.URL+"/v1/simulate", pristine)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pristine simulate: %d %s", resp.StatusCode, body)
	}

	withDefects := fourDots()
	withDefects["defects"] = defectList(map[string]any{"x": 10, "y": 2, "type": "db"})
	resp1, body1 := postJSON(t, ts.URL+"/v1/simulate", withDefects)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("defect simulate: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("defect request hit the pristine cache: X-Cache = %q", got)
	}
	var sr simulateResponse
	if err := json.Unmarshal(body1, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Dots != 4 || len(sr.Charges) != 4 {
		t.Fatalf("response leaks defect pseudo-dots: dots=%d charges=%d", sr.Dots, len(sr.Charges))
	}
	if sr.Defects != 1 {
		t.Fatalf("defects = %d, want 1", sr.Defects)
	}

	resp2, body2 := postJSON(t, ts.URL+"/v1/simulate", withDefects)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("warm defect X-Cache = %q", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("warm defect body differs:\n%s\n%s", body1, body2)
	}
}

// TestValidateDefectBlocked: a defect inside a gate's exclusion zone must
// fail validation with the distinct defect_blocked taxonomy, while the
// pristine validation of the same gate stays OK (and cached separately).
func TestValidateDefectBlocked(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Solver: "quickexact"})

	resp, body := postJSON(t, ts.URL+"/v1/gates/validate", map[string]any{"gate": "wire:iNW:oSE"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pristine validate: %d %s", resp.StatusCode, body)
	}
	var vr validateResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.OK || vr.FailKind != "" || vr.DefectBlocked {
		t.Fatalf("pristine wire: %+v", vr)
	}

	// The wire design's first pair anchors at cell (15, 0); a DB defect on
	// top of it is inside the exclusion zone.
	req := map[string]any{
		"gate":    "wire:iNW:oSE",
		"defects": defectList(map[string]any{"x": 15, "y": 0, "type": "db"}),
	}
	resp, body = postJSON(t, ts.URL+"/v1/gates/validate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("defect validate: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("defect validate hit the pristine cache: X-Cache = %q", got)
	}
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.OK {
		t.Fatalf("gate validated OK with a defect on a dot: %s", body)
	}
	if vr.FailKind != "defect_blocked" || !vr.DefectBlocked {
		t.Fatalf("fail_kind = %q defect_blocked=%v, want defect_blocked/true", vr.FailKind, vr.DefectBlocked)
	}
}

// TestFlowDefectsDistinctCache: the same netlist with and without defects
// must occupy distinct flow-cache entries.
func TestFlowDefectsDistinctCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	pristine := map[string]any{"bench": "xor2", "engine": "ortho"}
	resp, body := postJSON(t, ts.URL+"/v1/flow", pristine)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pristine flow: %d %s", resp.StatusCode, body)
	}
	// Warm the pristine entry, then issue the defect twin: it must miss.
	resp, _ = postJSON(t, ts.URL+"/v1/flow", pristine)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("warm pristine flow X-Cache = %q", got)
	}

	withDefects := map[string]any{
		"bench": "xor2", "engine": "ortho",
		"defects": map[string]any{
			"seed":      42,
			"densities": map[string]any{"siloxane": 0.2},
			"width":     300, "height": 200,
		},
	}
	resp, body = postJSON(t, ts.URL+"/v1/flow", withDefects)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("defect flow: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("defect flow hit the pristine cache: X-Cache = %q", got)
	}
	resp, body2 := postJSON(t, ts.URL+"/v1/flow", withDefects)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("warm defect flow X-Cache = %q", got)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("warm defect flow body differs from cold")
	}
}

// TestDefectSweepEndpoint: a small synchronous sweep returns a yield
// table; an async sweep cancelled while it runs reports error_kind
// "canceled" and the queue drains (no jobs left running). The async
// sweep runs on a second server whose job-start hook holds the job in
// the running state until the cancel has landed, so the test does not
// depend on how long the sweep takes.
func TestDefectSweepEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Solver: "quickexact"})

	resp, body := postJSON(t, ts.URL+"/v1/defects/sweep", map[string]any{
		"densities": []float64{0.2}, "seeds": 1, "workers": 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var res struct {
		Gates  int `json:"gates"`
		Points []struct {
			Yield float64 `json:"yield"`
			OK    int     `json:"ok"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Gates == 0 || len(res.Points) != 1 {
		t.Fatalf("degenerate sweep result: %s", body)
	}

	s, ts = newTestServer(t, Config{Workers: 2, Solver: "quickexact"})
	running, release := make(chan struct{}), make(chan struct{})
	s.queue.OnStart(func(*Job) {
		close(running)
		<-release
	})
	resp, body = postJSON(t, ts.URL+"/v1/defects/sweep", map[string]any{
		"densities": []float64{0.5, 1, 2, 4}, "seeds": 8, "async": true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async sweep: %d %s", resp.StatusCode, body)
	}
	var snap struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &snap); err != nil || snap.ID == "" {
		t.Fatalf("no job id in %s", body)
	}
	<-running
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	close(release)
	deadline := time.Now().Add(15 * time.Second)
	for {
		j, ok := s.queue.Get(snap.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		st := j.Snapshot()
		if st.State == JobCanceled || st.State == JobDone || st.State == JobFailed {
			if st.State != JobCanceled || st.ErrorKind != ErrKindCanceled {
				t.Fatalf("cancelled sweep: state=%v error_kind=%q", st.State, st.ErrorKind)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep did not cancel in time")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The worker pool must drain: no job may stay running.
	deadline = time.Now().Add(10 * time.Second)
	for s.queue.Running() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue still running %d jobs after cancel", s.queue.Running())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
