package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// flightSummary mirrors the /debug/flightrecorder response shape the
// smoke scripts rely on.
type flightSummary struct {
	Retained map[string]int `json:"retained"`
	Traces   []struct {
		ID    string `json:"id"`
		Class string `json:"class"`
		State string `json:"state"`
	} `json:"traces"`
}

// fetchFlight polls /debug/flightrecorder until cond holds; the finish
// hook that records a trace runs just after the job's done channel
// closes, so the trace can land a beat after the HTTP response.
func fetchFlight(t *testing.T, baseURL string, cond func(flightSummary) bool) flightSummary {
	t.Helper()
	var sum flightSummary
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, body := getURL(t, baseURL+"/debug/flightrecorder")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("flightrecorder: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &sum); err != nil {
			t.Fatalf("flightrecorder decode: %v\n%s", err, body)
		}
		if cond(sum) {
			return sum
		}
		if time.Now().After(deadline) {
			t.Fatalf("flightrecorder condition not met in time: %+v", sum)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFlightRecorderRetainsAndServesTraces(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, ts.URL+"/v1/simulate", fourDots())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}
	jobID := resp.Header.Get("X-Job-Id")
	if jobID == "" {
		t.Fatal("simulate response missing X-Job-Id")
	}

	sum := fetchFlight(t, ts.URL, func(s flightSummary) bool { return len(s.Traces) > 0 })
	total := 0
	for _, n := range sum.Retained {
		total += n
	}
	if total != len(sum.Traces) {
		t.Fatalf("retained sum %d != trace count %d", total, len(sum.Traces))
	}

	// The retained trace is retrievable with its full report.
	resp, body = getURL(t, ts.URL+"/v1/traces/"+jobID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: %d %s", resp.StatusCode, body)
	}
	var tr struct {
		ID    string          `json:"id"`
		Trace json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace decode: %v\n%s", err, body)
	}
	if tr.ID != jobID {
		t.Fatalf("trace id = %q, want %q", tr.ID, jobID)
	}
	if len(tr.Trace) == 0 || string(tr.Trace) == "null" {
		t.Fatal("trace payload empty")
	}

	resp, _ = getURL(t, ts.URL+"/v1/traces/nope-123")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: %d, want 404", resp.StatusCode)
	}
}

func TestFlightRecorderKeepsErrorTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// A 1ms deadline with the cache bypassed forces a canceled job: 20
	// dots under blind exgs enumeration is 2^20 states, far beyond a
	// millisecond, and an explicitly selected solver never degrades.
	var dots []map[string]any
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			dots = append(dots, map[string]any{"x": 3 * i, "y": 4 * j})
		}
	}
	// Depending on the degrade margin the job either times out (504) or
	// falls back to QuickSim and returns 200 with X-Degraded — both
	// outcomes are error-class for the flight recorder.
	req := map[string]any{"solver": "exgs", "dots": dots, "timeout_ms": 1, "nocache": true}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode == http.StatusOK && resp.Header.Get("X-Degraded") != "true" {
		t.Fatalf("2^20-state exgs simulate finished cleanly inside 1ms: %s", body)
	}
	jobID := resp.Header.Get("X-Job-Id")
	if jobID == "" {
		t.Fatalf("error response missing X-Job-Id (%d %s)", resp.StatusCode, body)
	}

	sum := fetchFlight(t, ts.URL, func(s flightSummary) bool {
		for _, tr := range s.Traces {
			if tr.ID == jobID {
				return true
			}
		}
		return false
	})
	for _, tr := range sum.Traces {
		if tr.ID == jobID && tr.Class != "error" {
			t.Fatalf("failed job retained with class %q, want error", tr.Class)
		}
	}
	if resp, _ := getURL(t, ts.URL+"/v1/traces/"+jobID); resp.StatusCode != http.StatusOK {
		t.Fatalf("error trace fetch: %d, want 200", resp.StatusCode)
	}
}

func TestHealthzReportsSLO(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// One fast, successful read against the healthz route itself seeds
	// the "read" objective.
	getURL(t, ts.URL+"/healthz")
	resp, body := getURL(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	var hz struct {
		SLO map[string]struct {
			Budget  float64 `json:"error_budget"`
			Windows []struct {
				Window   string  `json:"window"`
				BurnRate float64 `json:"burn_rate"`
			} `json:"windows"`
		} `json:"slo"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz decode: %v\n%s", err, body)
	}
	for _, name := range []string{"flow", "simulate", "validate", "read"} {
		st, ok := hz.SLO[name]
		if !ok {
			t.Fatalf("healthz slo missing objective %q\n%s", name, body)
		}
		if st.Budget <= 0 {
			t.Fatalf("objective %q has budget %v", name, st.Budget)
		}
		if len(st.Windows) == 0 {
			t.Fatalf("objective %q has no burn windows", name)
		}
	}
	// The successful healthz reads must not burn the read budget.
	for _, wb := range hz.SLO["read"].Windows {
		if wb.BurnRate != 0 {
			t.Fatalf("read burn rate = %v after OK reads, want 0", wb.BurnRate)
		}
	}
}

func TestMetricsExposeSLOAndFlightSeries(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	if resp, body := postJSON(t, ts.URL+"/v1/simulate", fourDots()); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}
	fetchFlight(t, ts.URL, func(s flightSummary) bool { return len(s.Traces) > 0 })

	_, metrics := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"slo_burn_rate{",
		"slo_budget_remaining{",
		"flight_admitted_total{",
		"flight_retained{",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestJobTraceDegraded: a finished degraded job reads degraded in the
// flight recorder's shape, whether the recorder keeps it or the queue's
// history serves it.
func TestJobTraceDegraded(t *testing.T) {
	q := NewQueue(1, 1, 0, nil, nil)
	defer q.Drain(context.Background())
	j, err := q.Submit("simulate", 0, func(context.Context) (any, error) {
		return &jobResult{degraded: true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if tr := jobTrace(j); !tr.Degraded || tr.ErrorKind != ErrKindDegraded || tr.State != string(JobDone) {
		t.Fatalf("trace of a degraded job: %+v", tr)
	}
}
