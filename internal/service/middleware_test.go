package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRouteLabel(t *testing.T) {
	cases := []struct{ path, want string }{
		{"/v1/flow", "/v1/flow"},
		{"/v1/simulate", "/v1/simulate"},
		{"/v1/gates", "/v1/gates"},
		{"/v1/gates/validate", "/v1/gates/validate"},
		{"/healthz", "/healthz"},
		{"/metrics", "/metrics"},
		{"/v1/jobs/j00000001", "/v1/jobs/{id}"},
		{"/v1/jobs/j00000001/trace", "/v1/jobs/{id}/trace"},
		{"/", "other"},
		{"/v1/unknown", "other"},
		{"/v1/flow/extra", "other"},
	}
	for _, c := range cases {
		if got := routeLabel(c.path); got != c.want {
			t.Errorf("routeLabel(%q) = %q, want %q", c.path, got, c.want)
		}
	}
}

func TestClientRequestID(t *testing.T) {
	long := strings.Repeat("a", 65)
	for _, h := range []string{RequestIDHeader, IdempotencyKeyHeader} {
		mk := func(tok string) *http.Request {
			r := httptest.NewRequest(http.MethodGet, "/healthz", nil)
			if tok != "" {
				r.Header.Set(h, tok)
			}
			return r
		}
		for _, ok := range []string{"abc", "a-b_c.9", "ABC123", long[:64]} {
			if got := clientToken(mk(ok), h); got != ok {
				t.Errorf("clientToken(%s: %q) = %q, want accepted", h, ok, got)
			}
		}
		for _, bad := range []string{"", "has space", "semi;colon", "unié", long} {
			if got := clientToken(mk(bad), h); got != "" {
				t.Errorf("clientToken(%s: %q) = %q, want rejected", h, bad, got)
			}
		}
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	a, b := newRequestID(), newRequestID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("unexpected lengths: %q %q", a, b)
	}
	if a == b {
		t.Fatalf("two IDs collided: %q", a)
	}
}

func TestStatusWriter(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	if _, err := sw.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if sw.status != http.StatusOK || sw.bytes != 2 {
		t.Fatalf("implicit 200 not recorded: status=%d bytes=%d", sw.status, sw.bytes)
	}

	rec = httptest.NewRecorder()
	sw = &statusWriter{ResponseWriter: rec}
	sw.WriteHeader(http.StatusTeapot)
	sw.WriteHeader(http.StatusOK) // second call must not overwrite
	sw.Write([]byte("tea"))
	if sw.status != http.StatusTeapot || sw.bytes != 3 {
		t.Fatalf("explicit status not kept: status=%d bytes=%d", sw.status, sw.bytes)
	}
}

// lockedBuffer is an io.Writer the test can read while the server's
// handler and queue goroutines write log lines to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestLogLines checks what one /v1/flow request logs at info: an
// http_request line with the client's request id, the route, status,
// cache tier and job id, and a job_finish line with the same request id.
func TestRequestLogLines(t *testing.T) {
	var logs lockedBuffer
	_, ts := newTestServer(t, Config{Workers: 1, Logger: obs.NewLogger(&logs, slog.LevelInfo)})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/flow",
		strings.NewReader(`{"bench":"xor2","engine":"ortho"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, "log-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Job-Id") == "" {
		t.Fatalf("flow: %d, X-Job-Id %q", resp.StatusCode, resp.Header.Get("X-Job-Id"))
	}

	// job_finish is written after the job's done channel closes, so it may
	// trail the response.
	lines := map[string]map[string]any{}
	for deadline := time.Now().Add(5 * time.Second); ; {
		for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("log line is not JSON: %q: %v", line, err)
			}
			lines[m["msg"].(string)] = m
		}
		if lines["http_request"] != nil && lines["job_finish"] != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("missing http_request or job_finish line:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	hr := lines["http_request"]
	for k, want := range map[string]any{
		"request_id": "log-test-1", "route": "/v1/flow", "status": float64(200),
		"cache": "miss", "job_id": resp.Header.Get("X-Job-Id"),
	} {
		if hr[k] != want {
			t.Errorf("http_request %s = %v, want %v", k, hr[k], want)
		}
	}
	if got := lines["job_finish"]["request_id"]; got != "log-test-1" {
		t.Errorf("job_finish request_id = %v, want log-test-1", got)
	}
}

// TestSpoofedFleetHeadersIgnored: a single replica has no fleet, so the
// headers replicas once exchanged mean nothing from a client. They must
// not mark the job trace as forwarded, and the fleet's routes must not
// exist.
func TestSpoofedFleetHeadersIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	payload, _ := json.Marshal(fourDots())
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Cluster-Forwarded", "evil.example:1")
	req.Header.Set("X-Cluster-Hop", "3")
	req.Header.Set("X-Parent-Span", "forward-spoofed")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d", resp.StatusCode)
	}

	r, b := getURL(t, ts.URL+"/v1/jobs/"+resp.Header.Get("X-Job-Id")+"/trace")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d %s", r.StatusCode, b)
	}
	var tr struct {
		Trace obs.RunReport `json:"trace"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace decode: %v: %s", err, b)
	}
	var walk func([]*obs.StageReport)
	walk = func(stages []*obs.StageReport) {
		for _, st := range stages {
			if st.Name == "hop" {
				t.Errorf("job trace has a hop span: %s", b)
			}
			for _, k := range []string{"forwarded", "peer", "hop", "parent_span"} {
				if _, ok := st.Attrs[k]; ok {
					t.Errorf("span %q has attribute %q: %s", st.Name, k, b)
				}
			}
			walk(st.Children)
		}
	}
	walk(tr.Trace.Stages)

	for _, path := range []string{
		"/internal/stats",
		"/internal/cache/sim:" + strings.Repeat("ab", 32),
		"/v1/cluster/overview",
	} {
		if r, _ := getURL(t, ts.URL+path); r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, r.StatusCode)
		}
	}

	_, b = getURL(t, ts.URL+"/healthz")
	var hz map[string]json.RawMessage
	if err := json.Unmarshal(b, &hz); err != nil {
		t.Fatal(err)
	}
	if _, ok := hz["cluster"]; ok {
		t.Errorf("/healthz has a cluster key: %s", b)
	}
}
