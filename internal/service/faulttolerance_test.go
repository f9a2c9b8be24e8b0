package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/defects"
	"repro/internal/faults"
	"repro/internal/obs"
)

// TestJobPanicIsolated proves one panicking job neither kills its worker
// nor leaks into later jobs: the panic becomes a failed job with
// ErrorKind "panic" and a counted jobs_panicked_total, and the same
// worker then completes a healthy job.
func TestJobPanicIsolated(t *testing.T) {
	tr := obs.New()
	q := NewQueue(1, 2, 0, tr, nil)
	defer q.Drain(context.Background())

	j, err := q.Submit("boom", 0, func(ctx context.Context) (any, error) {
		panic("kaboom")
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != JobFailed {
		t.Fatalf("state = %v, want failed", j.State())
	}
	if j.ErrorKind() != ErrKindPanic {
		t.Fatalf("error kind = %q, want %q", j.ErrorKind(), ErrKindPanic)
	}
	if _, msg := j.Result(); msg == "" {
		t.Fatal("panic left no error message")
	}
	if got := tr.Counter("jobs/panicked_total").Value(); got != 1 {
		t.Fatalf("jobs_panicked_total = %d, want 1", got)
	}

	// The single worker survived and still serves jobs.
	j2, err := q.Submit("ok", 0, func(ctx context.Context) (any, error) {
		return "fine", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	if j2.State() != JobDone {
		t.Fatalf("follow-up job state = %v, want done", j2.State())
	}
}

// TestPanicErrorClassification checks the queue's errors.As detection: a
// JobFunc returning a wrapped *PanicError is classified as a panic too.
func TestPanicErrorClassification(t *testing.T) {
	q := NewQueue(1, 1, 0, nil, nil)
	defer q.Drain(context.Background())
	j, err := q.Submit("wrapped", 0, func(ctx context.Context) (any, error) {
		return nil, fmt.Errorf("inner stage: %w", &PanicError{Value: "x"})
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.ErrorKind() != ErrKindPanic {
		t.Fatalf("error kind = %q, want %q", j.ErrorKind(), ErrKindPanic)
	}
}

// TestErrorKindTaxonomy drives one job per failure class and checks the
// recorded kinds.
func TestErrorKindTaxonomy(t *testing.T) {
	q := NewQueue(2, 8, 0, nil, nil)
	defer q.Drain(context.Background())

	cases := []struct {
		name string
		fn   JobFunc
		kind string
	}{
		{"timeout", func(ctx context.Context) (any, error) { return nil, context.DeadlineExceeded }, ErrKindTimeout},
		{"canceled", func(ctx context.Context) (any, error) { return nil, context.Canceled }, ErrKindCanceled},
		{"generic", func(ctx context.Context) (any, error) { return nil, errors.New("nope") }, ErrKindError},
		{"clean", func(ctx context.Context) (any, error) { return &jobResult{}, nil }, ""},
		{"degraded", func(ctx context.Context) (any, error) { return &jobResult{degraded: true}, nil }, ErrKindDegraded},
	}
	for _, tc := range cases {
		j, err := q.Submit(tc.name, 0, tc.fn)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if got := j.ErrorKind(); got != tc.kind {
			t.Errorf("%s: error kind = %q, want %q", tc.name, got, tc.kind)
		}
	}

	// Every failure class reads the same whether a queue job or a batch
	// item returns it. A test-only batch op "fail" returns errs[i] for the
	// request body i.
	errs := []struct {
		err  error
		kind string
	}{
		{fmt.Errorf("inner stage: %w", &PanicError{Value: "x"}), ErrKindPanic},
		{fmt.Errorf("solve: %w", context.DeadlineExceeded), ErrKindTimeout},
		{fmt.Errorf("solve: %w and %w", context.DeadlineExceeded, defects.ErrBlocked), ErrKindTimeout},
		{context.Canceled, ErrKindCanceled},
		{fmt.Errorf("core: placed tile: %w", defects.ErrBlocked), ErrKindDefectBlocked},
		{errors.New("nope"), ErrKindError},
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	defer func(rows []opRoute) { opRoutes = rows }(opRoutes)
	opRoutes = append(opRoutes[:len(opRoutes):len(opRoutes)], opRoute{kind: "fail", batch: true,
		prepare: func(_ *Server, body []byte) (*preparedOp, error) {
			i, err := strconv.Atoi(string(body))
			if err != nil {
				return nil, err
			}
			return &preparedOp{kind: "fail", compute: func(context.Context, *obs.Tracer) (*jobResult, []byte, error) {
				return nil, nil, errs[i].err
			}}, nil
		}})
	var items []map[string]any
	for i := range errs {
		items = append(items, map[string]any{"op": "fail", "request": json.RawMessage(strconv.Itoa(i))})
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", map[string]any{"items": items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		j, err := q.Submit("fail", 0, func(ctx context.Context) (any, error) { return nil, e.err })
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if got := j.ErrorKind(); got != e.kind {
			t.Errorf("job failing with %q: error kind = %q, want %q", e.err, got, e.kind)
		}
		if it := br.Items[i]; it.Status != "error" || it.ErrorKind != e.kind {
			t.Errorf("batch item failing with %q: %+v, want error kind %q", e.err, it, e.kind)
		}
	}
}

// TestDrainRacesPanickingJobs floods a small pool with a mix of panicking,
// degrading, slow, and healthy jobs and drains mid-flight. Run under
// -race, this is the regression net for the recover/terminal-state/drain
// interleavings: every job must reach a terminal state and Drain must
// return.
func TestDrainRacesPanickingJobs(t *testing.T) {
	if err := faults.Arm("service.job.panic=every:3", 42); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()

	tr := obs.New()
	q := NewQueue(4, 64, 0, tr, nil)

	var jobs []*Job
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn := func(ctx context.Context) (any, error) {
				switch i % 4 {
				case 0:
					return &jobResult{degraded: true}, nil
				case 1:
					select {
					case <-time.After(time.Duration(i%7) * time.Millisecond):
					case <-ctx.Done():
						return nil, ctx.Err()
					}
					return &jobResult{}, nil
				case 2:
					panic(fmt.Sprintf("direct panic %d", i))
				default:
					return &jobResult{}, nil
				}
			}
			j, err := q.Submit("mix", 50*time.Millisecond, fn)
			if err != nil {
				return // queue full or draining: fine under this race
			}
			mu.Lock()
			jobs = append(jobs, j)
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s not terminal after drain (state %v)", j.ID, j.State())
		}
		if j.State() == JobFailed && j.ErrorKind() == "" {
			t.Fatalf("failed job %s has no error kind", j.ID)
		}
	}
	if tr.Counter("jobs/panicked_total").Value() == 0 {
		t.Fatal("fault injection never fired; the chaos mix is not exercising the recover path")
	}
}
