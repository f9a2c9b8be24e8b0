package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/obs"
)

// TestAdmissionShedsByCostClass saturates the queue and checks the shed
// order: flow first, then simulate/validate, while reads always pass.
func TestAdmissionShedsByCostClass(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Fill the worker and the queue slot with blocking jobs: utilization
	// (1 running + 1 queued) / (1 worker + 1 slot) = 1.0.
	release := make(chan struct{})
	block := func(context.Context) (*jobResult, error) {
		<-release
		return nil, nil
	}
	if _, err := s.queue.SubmitWith(SubmitOptions{Kind: "test"}, block); err != nil {
		t.Fatal(err)
	}
	// The queue slot frees only once a worker picks the job up; wait for
	// that before filling the slot itself.
	waitForCond(t, func() bool { return s.queue.Running() == 1 })
	if _, err := s.queue.SubmitWith(SubmitOptions{Kind: "test"}, block); err != nil {
		t.Fatal(err)
	}
	defer close(release)
	waitForCond(t, func() bool { return s.queue.Running() == 1 && s.queue.Depth() == 1 })

	var gl struct {
		Gates []string `json:"gates"`
	}
	resp0, glBody := getURL(t, ts.URL+"/v1/gates")
	if resp0.StatusCode != http.StatusOK || json.Unmarshal(glBody, &gl) != nil || len(gl.Gates) == 0 {
		t.Fatalf("gate list: %d %s", resp0.StatusCode, glBody)
	}

	for _, c := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/flow", map[string]any{"bench": "xor2", "engine": "ortho"}},
		{"/v1/simulate", fourDots()},
		{"/v1/gates/validate", map[string]any{"gate": gl.Gates[0]}},
	} {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s at full utilization: %d %s; want 429", c.path, resp.StatusCode, body)
		}
		var e struct {
			Kind string `json:"error_kind"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Kind != ErrKindShed {
			t.Fatalf("%s: error_kind %q body %s", c.path, e.Kind, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
			t.Fatalf("%s: Retry-After %q; want a positive estimate", c.path, ra)
		}
	}

	// Reads are never shed.
	resp, err := http.Get(ts.URL + "/v1/gates")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read at full utilization: %d; reads must never shed", resp.StatusCode)
	}

	// /healthz reports the saturation and the classes being shed.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Saturation struct {
			QueueDepth  int      `json:"queue_depth"`
			JobsRunning int      `json:"jobs_running"`
			Utilization float64  `json:"utilization"`
			Shedding    []string `json:"shedding"`
		} `json:"saturation"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hz.Saturation.QueueDepth != 1 || hz.Saturation.JobsRunning != 1 {
		t.Fatalf("healthz saturation: %+v", hz.Saturation)
	}
	if hz.Saturation.Utilization < 1 {
		t.Fatalf("healthz utilization %v; want 1", hz.Saturation.Utilization)
	}
	if len(hz.Saturation.Shedding) == 0 || hz.Saturation.Shedding[0] != "flow" {
		t.Fatalf("healthz shedding %v; want flow first", hz.Saturation.Shedding)
	}
	if got := s.tr.Counter(obs.Labeled("admission/shed_total", "class", "flow")).Value(); got != 1 {
		t.Fatalf("admission_shed_total{flow} = %d; want 1", got)
	}
}

func TestSheddingClassOrder(t *testing.T) {
	cases := []struct {
		u    float64
		want []string
	}{
		{0.5, nil},
		{0.8, []string{"flow"}},
		{0.95, []string{"flow", "simulate", "validate"}},
	}
	for _, c := range cases {
		got := sheddingClasses(c.u)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("sheddingClasses(%v) = %v, want %v", c.u, got, c.want)
		}
	}
}
