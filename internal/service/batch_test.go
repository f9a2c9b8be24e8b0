package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

func TestBatchDedupAndFanout(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	sim, err := json.Marshal(fourDots())
	if err != nil {
		t.Fatal(err)
	}
	other := fourDots()
	other["dots"] = append(other["dots"].([]map[string]any), map[string]any{"x": 6, "y": 0, "role": "perturber"})
	sim2, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}

	req := map[string]any{"items": []map[string]any{
		{"op": "simulate", "request": json.RawMessage(sim)},
		{"op": "simulate", "request": json.RawMessage(sim)},
		{"op": "simulate", "request": json.RawMessage(sim2)},
		{"op": "simulate", "request": json.RawMessage(sim)},
		{"op": "bogus"},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 5 {
		t.Fatalf("%d item results; want 5", len(br.Items))
	}
	if br.Unique != 2 || br.Deduplicated != 2 {
		t.Fatalf("unique=%d deduplicated=%d; want 2 and 2", br.Unique, br.Deduplicated)
	}
	if br.Items[0].Status != "ok" || br.Items[0].Cache == "dedup" {
		t.Fatalf("leader item: %+v", br.Items[0])
	}
	for _, i := range []int{1, 3} {
		it := br.Items[i]
		if it.Status != "ok" || it.Cache != "dedup" {
			t.Fatalf("follower item %d: %+v", i, it)
		}
		if !bytes.Equal(it.Result, br.Items[0].Result) {
			t.Fatalf("follower %d result differs from its leader", i)
		}
	}
	if br.Items[2].Status != "ok" || br.Items[2].Cache == "dedup" {
		t.Fatalf("distinct item: %+v", br.Items[2])
	}
	if bytes.Equal(br.Items[2].Result, br.Items[0].Result) {
		t.Fatal("distinct payloads produced identical results")
	}
	if br.Items[4].Status != "error" || !strings.Contains(br.Items[4].Error, "unknown op") {
		t.Fatalf("bad item: %+v", br.Items[4])
	}
	// Three simulate items with one key plus one with another: the solver
	// must have run once per unique key.
	if got := s.tr.Counter(obs.Labeled("jobs/cold_solves_total", "kind", "simulate")).Value(); got != 2 {
		t.Fatalf("cold solves = %d; want 2 (one per unique key)", got)
	}
	if got := s.tr.Counter("batch/deduped_total").Value(); got != 2 {
		t.Fatalf("batch_deduped_total = %d; want 2", got)
	}
}

// TestBatchItemsAfterDeadline pins what batch items answer once the
// batch's shared deadline has passed. Slow exact flows hold every fan-out
// slot past the deadline, so the last two items start after it: the warm
// one still answers ok from memory, the cold one times out, and none is
// skipped.
func TestBatchItemsAfterDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if resp, body := postJSON(t, ts.URL+"/v1/simulate", fourDots()); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: %d %s", resp.StatusCode, body)
	}
	slow, _ := json.Marshal(map[string]any{"source": slowPNRNetlist, "engine": "exact", "nocache": true})
	warm, _ := json.Marshal(fourDots())
	cold := fourDots()
	cold["dots"] = append(cold["dots"].([]map[string]any), map[string]any{"x": 6, "y": 0, "role": "perturber"})
	coldReq, _ := json.Marshal(cold)
	var items []map[string]any
	for range batchConcurrency {
		items = append(items, map[string]any{"op": "flow", "request": json.RawMessage(slow)})
	}
	items = append(items,
		map[string]any{"op": "simulate", "request": json.RawMessage(warm)},
		map[string]any{"op": "simulate", "request": json.RawMessage(coldReq)})
	resp, body := postJSON(t, ts.URL+"/v1/batch", map[string]any{"items": items, "timeout_ms": 200})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != len(items) {
		t.Fatalf("%d item results; want %d", len(br.Items), len(items))
	}
	for i, it := range br.Items[:batchConcurrency] {
		if it.Status != "error" || it.ErrorKind != ErrKindTimeout {
			t.Errorf("slow flow item %d: %+v; want a timeout", i, it)
		}
	}
	if it := br.Items[batchConcurrency]; it.Status != "ok" || it.Cache != "mem" {
		t.Errorf("warm item after the deadline: %+v; want ok from mem", it)
	}
	if it := br.Items[batchConcurrency+1]; it.Status != "error" || it.ErrorKind != ErrKindTimeout {
		t.Errorf("cold item after the deadline: %+v; want a timeout", it)
	}
}

func TestBatchRejectsAsyncItems(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	flowReq, _ := json.Marshal(map[string]any{"bench": "xor2", "engine": "ortho", "async": true})
	resp, body := postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"items": []map[string]any{{"op": "flow", "request": json.RawMessage(flowReq)}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Items[0].Status != "error" || !strings.Contains(br.Items[0].Error, "async") {
		t.Fatalf("async item: %+v", br.Items[0])
	}
}

func TestBatchBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, _ := postJSON(t, ts.URL+"/v1/batch", map[string]any{"items": []map[string]any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", resp.StatusCode)
	}
	items := make([]map[string]any, maxBatchItems+1)
	for i := range items {
		items[i] = map[string]any{"op": "simulate", "request": json.RawMessage(`{}`)}
	}
	resp, _ = postJSON(t, ts.URL+"/v1/batch", map[string]any{"items": items})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: %d", resp.StatusCode)
	}
}

// TestBatchKeylessPanicIsolated: a keyless (nocache) batch item executes
// on a raw fan-out goroutine outside the worker pool's recover; a panic
// there must become that item's error, not kill the process.
func TestBatchKeylessPanicIsolated(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	if err := faults.Arm("service.exec.panic=always", 1); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()

	flowReq, _ := json.Marshal(map[string]any{"bench": "xor2", "engine": "ortho", "nocache": true})
	resp, body := postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"items": []map[string]any{{"op": "flow", "request": json.RawMessage(flowReq)}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Items[0].Status != "error" || br.Items[0].ErrorKind != ErrKindPanic {
		t.Fatalf("keyless panicking item: %+v", br.Items[0])
	}
	if got := s.tr.Counter("jobs/panicked_total").Value(); got == 0 {
		t.Fatal("exec panic not counted in jobs_panicked_total")
	}

	// The daemon survived: a healthy request still completes.
	faults.Disarm()
	resp, body = postJSON(t, ts.URL+"/v1/simulate", fourDots())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request after panic: %d %s", resp.StatusCode, body)
	}
}
