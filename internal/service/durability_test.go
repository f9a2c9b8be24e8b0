package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/journal"
)

// postJSONHeaders is postJSON with extra request headers (the idempotency
// tests need Idempotency-Key on the wire).
func postJSONHeaders(t *testing.T, url string, body any, hdrs map[string]string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdrs {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
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

// seedJournal writes a pre-crash journal: one flow job submitted and
// started, never finished — exactly what a SIGKILL mid-solve leaves.
func seedJournal(t *testing.T, dir, jobID string, body []byte) {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	events := []journal.Event{
		{Type: journal.EventSubmitted, JobID: jobID, Kind: "flow", Path: "/v1/flow", Body: body, RequestID: "req-precrash"},
		{Type: journal.EventStarted, JobID: jobID},
	}
	for _, ev := range events {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: a crash doesn't close files. The tail is record-aligned, so
	// replay sees both events.
}

func jobStatus(t *testing.T, url, id string) (Status, json.RawMessage) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: %d %s", id, resp.StatusCode, b)
	}
	var out struct {
		Job    Status          `json:"job"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("decode job status: %v (%s)", err, b)
	}
	return out.Job, out.Result
}

// TestRecoverInterrupted: default recovery surfaces a crash-stranded job
// as failed/interrupted — the id answers honestly, never 404.
func TestRecoverInterrupted(t *testing.T) {
	dir := t.TempDir()
	body, _ := json.Marshal(map[string]any{"bench": "xor2", "engine": "ortho"})
	seedJournal(t, dir, "j00000001", body)

	_, ts := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	st, _ := jobStatus(t, ts.URL, "j00000001")
	if st.State != JobFailed || st.ErrorKind != ErrKindInterrupted {
		t.Fatalf("recovered job = state %q error_kind %q, want failed/interrupted", st.State, st.ErrorKind)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(mb, []byte(`journal_recovered_total{outcome="interrupted"} 1`)) {
		t.Fatalf("journal_recovered_total{outcome=\"interrupted\"} not exported:\n%s", mb)
	}
}

// TestRecoverResubmit: opt-in recovery re-enqueues the journaled request
// bytes under the pre-crash id and the job runs to completion.
func TestRecoverResubmit(t *testing.T) {
	dir := t.TempDir()
	body, _ := json.Marshal(map[string]any{"bench": "xor2", "engine": "ortho"})
	seedJournal(t, dir, "j00000001", body)

	_, ts := newTestServer(t, Config{Workers: 1, JournalDir: dir, RecoverMode: RecoverResubmit})
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, res := jobStatus(t, ts.URL, "j00000001")
		if st.State == JobDone {
			if len(res) == 0 {
				t.Fatal("resubmitted job finished without a result body")
			}
			break
		}
		if st.State == JobFailed || st.State == JobCanceled {
			t.Fatalf("resubmitted job ended %q (%s)", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("resubmitted job still %q after 30s", st.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// A fresh submission must not collide with the recovered id.
	resp, b := postJSON(t, ts.URL+"/v1/simulate", fourDots())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery simulate: %d %s", resp.StatusCode, b)
	}
	if id := resp.Header.Get("X-Job-Id"); id == "j00000001" {
		t.Fatal("fresh job reused the recovered id")
	}
}

// TestRecoverCompletedStub: a job that finished before the crash answers
// with its terminal state (no 404), though its result bytes are gone.
func TestRecoverCompletedStub(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []journal.Event{
		{Type: journal.EventSubmitted, JobID: "j00000001", Kind: "simulate", Path: "/v1/simulate"},
		{Type: journal.EventStarted, JobID: "j00000001"},
		{Type: journal.EventFinished, JobID: "j00000001"},
	} {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	_, ts := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	st, _ := jobStatus(t, ts.URL, "j00000001")
	if st.State != JobDone {
		t.Fatalf("completed-at-crash job = state %q, want done", st.State)
	}
}

// TestJournalLifecycleAcrossDrain: a clean run journals submitted,
// started, and finished; a re-open recovers only terminal records.
func TestJournalLifecycleAcrossDrain(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	resp, b := postJSON(t, ts.URL+"/v1/simulate", fourDots())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, b)
	}
	id := resp.Header.Get("X-Job-Id")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	j2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs := j2.Recovered()
	found := false
	for _, r := range recs {
		if r.Submitted.JobID != id {
			continue
		}
		found = true
		if !r.Terminal() || r.State != journal.StateDone {
			t.Fatalf("job %s replays as %q, want done", id, r.State)
		}
	}
	if !found {
		t.Fatalf("job %s not in replayed table (%d records)", id, len(recs))
	}
}

// TestJournalSyncsPerJob: a synchronous job journals three events
// (submitted, started, finished) with two fsyncs, the started event
// riding on the finished one's.
func TestJournalSyncsPerJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, JournalDir: t.TempDir()})
	resp, b := postJSON(t, ts.URL+"/v1/simulate", fourDots())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	appends, syncs := s.tr.Counter("journal/appends_total").Value(), s.tr.Counter("journal/syncs_total").Value()
	if appends != 3 || syncs != 2 {
		t.Errorf("one sync job: %d journal appends, %d syncs; want 3, 2", appends, syncs)
	}
}

// TestIdempotencyKeyReattach: the same Idempotency-Key returns the same
// job id and the same bytes, marked as a replay.
func TestIdempotencyKeyReattach(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	hdrs := map[string]string{"Idempotency-Key": "retry-abc-123"}
	resp1, body1 := postJSONHeaders(t, ts.URL+"/v1/simulate", fourDots(), hdrs)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: %d %s", resp1.StatusCode, body1)
	}
	if resp1.Header.Get("X-Idempotent-Replay") != "" {
		t.Fatal("first submission marked as replay")
	}
	resp2, body2 := postJSONHeaders(t, ts.URL+"/v1/simulate", fourDots(), hdrs)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replay submit: %d %s", resp2.StatusCode, body2)
	}
	if resp2.Header.Get("X-Idempotent-Replay") != "true" {
		t.Fatal("second submission not marked as replay")
	}
	id1, id2 := resp1.Header.Get("X-Job-Id"), resp2.Header.Get("X-Job-Id")
	if id1 == "" || id1 != id2 {
		t.Fatalf("job ids differ across idempotent retry: %q vs %q", id1, id2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("replayed body differs:\n%s\n%s", body1, body2)
	}
	// A different key is a fresh job.
	resp3, _ := postJSONHeaders(t, ts.URL+"/v1/simulate", fourDots(), map[string]string{"Idempotency-Key": "other-key"})
	if resp3.Header.Get("X-Job-Id") == id1 {
		t.Fatal("distinct idempotency keys shared a job id")
	}
}

// TestIdempotencyKeyAsync: an async retry reattaches with a 202 pointing
// at the original job, for every compute endpoint that accepts async
// requests (sweeps included: they share the one compute handler).
func TestIdempotencyKeyAsync(t *testing.T) {
	for _, c := range []struct {
		kind, path string
		req        map[string]any
	}{
		{"flow", "/v1/flow", map[string]any{"bench": "xor2", "engine": "ortho", "async": true}},
		{"sweep", "/v1/defects/sweep", map[string]any{"densities": []float64{0.5, 1, 2, 4}, "seeds": 8, "async": true}},
	} {
		t.Run(c.kind, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: 1})
			hdrs := map[string]string{"Idempotency-Key": "async-key-1"}
			resp1, b1 := postJSONHeaders(t, ts.URL+c.path, c.req, hdrs)
			if resp1.StatusCode != http.StatusAccepted {
				t.Fatalf("async submit: %d %s", resp1.StatusCode, b1)
			}
			var st1 Status
			if err := json.Unmarshal(b1, &st1); err != nil {
				t.Fatal(err)
			}
			// Cancel on the way out: the sweep runs far longer than the test.
			del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st1.ID, nil)
			t.Cleanup(func() {
				if r, err := http.DefaultClient.Do(del); err == nil {
					r.Body.Close()
				}
			})
			resp2, b2 := postJSONHeaders(t, ts.URL+c.path, c.req, hdrs)
			if resp2.StatusCode != http.StatusAccepted {
				t.Fatalf("async replay: %d %s", resp2.StatusCode, b2)
			}
			if resp2.Header.Get("X-Idempotent-Replay") != "true" {
				t.Fatal("async replay not marked")
			}
			var st2 Status
			if err := json.Unmarshal(b2, &st2); err != nil {
				t.Fatal(err)
			}
			if st1.ID != st2.ID {
				t.Fatalf("async retry got a different job: %q vs %q", st1.ID, st2.ID)
			}
			if loc := resp2.Header.Get("Location"); loc != "/v1/jobs/"+st1.ID {
				t.Fatalf("replay Location = %q", loc)
			}
		})
	}
}

// TestDrainRetryAfter: 503s from a draining replica advertise when to
// come back, derived from the configured drain grace.
func TestDrainRetryAfter(t *testing.T) {
	grace := 30 * time.Second
	s, ts := newTestServer(t, Config{Workers: 1, DrainGrace: grace})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", fourDots())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d %s", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("draining 503 has no Retry-After")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > int(grace.Seconds()) {
		t.Fatalf("Retry-After = %q, want integer in [1,%d]", ra, int(grace.Seconds()))
	}
}

// TestRecoveredStubAwaitGone exercises await's guard: syncing on a
// recovered done-stub (no result bytes) answers 410, not a panic.
func TestRecoveredStubAwaitGone(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("idem-%s", t.Name())
	for _, ev := range []journal.Event{
		{Type: journal.EventSubmitted, JobID: "j00000001", Kind: "simulate", Path: "/v1/simulate", IdemKey: key},
		{Type: journal.EventFinished, JobID: "j00000001"},
	} {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	s, _ := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	jb, ok := s.queue.Get("j00000001")
	if !ok {
		t.Fatal("stub not restored")
	}
	rec := httptest.NewRecorder()
	req, _ := http.NewRequest(http.MethodGet, "/", nil)
	s.await(rec, req, jb)
	if rec.Code != http.StatusGone {
		t.Fatalf("await on result-less stub = %d, want 410", rec.Code)
	}
}
