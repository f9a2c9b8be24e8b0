package service

import (
	"context"
	"errors"
	"testing"
	"time"
)

// blockingJob returns a JobFunc that parks until released (or its context
// is canceled).
func blockingJob(release <-chan struct{}) JobFunc {
	return func(ctx context.Context) (*jobResult, error) {
		select {
		case <-release:
			return &jobResult{body: []byte(`"done"`)}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	q := NewQueue(1, 1, 0, nil, nil)
	release := make(chan struct{})
	j1, err := q.SubmitWith(SubmitOptions{Kind: "t"}, blockingJob(release))
	if err != nil {
		t.Fatal(err)
	}
	// Give the single worker time to pick up j1 so j2 occupies the buffer.
	waitState(t, j1, JobRunning)
	j2, err := q.SubmitWith(SubmitOptions{Kind: "t"}, blockingJob(release))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.SubmitWith(SubmitOptions{Kind: "t"}, blockingJob(release)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	close(release)
	<-j1.Done()
	<-j2.Done()
	if j1.State() != JobDone || j2.State() != JobDone {
		t.Fatalf("states: %s %s", j1.State(), j2.State())
	}
}

func TestQueueCancelQueuedJob(t *testing.T) {
	q := NewQueue(1, 2, 0, nil, nil)
	release := make(chan struct{})
	defer close(release)
	j1, err := q.SubmitWith(SubmitOptions{Kind: "t"}, blockingJob(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, JobRunning)
	j2, err := q.SubmitWith(SubmitOptions{Kind: "t"}, blockingJob(release))
	if err != nil {
		t.Fatal(err)
	}
	j2.Cancel()
	<-j2.Done()
	if j2.State() != JobCanceled {
		t.Fatalf("queued job after Cancel: %s", j2.State())
	}
}

func TestQueueJobTimeout(t *testing.T) {
	q := NewQueue(1, 2, 0, nil, nil)
	j, err := q.SubmitWith(SubmitOptions{Kind: "t", Timeout: 20 * time.Millisecond}, blockingJob(make(chan struct{})))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job did not time out")
	}
	if j.State() != JobCanceled {
		t.Fatalf("timed-out job state: %s", j.State())
	}
}

func TestQueueDrain(t *testing.T) {
	q := NewQueue(2, 4, 0, nil, nil)
	release := make(chan struct{})
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := q.SubmitWith(SubmitOptions{Kind: "t"}, blockingJob(release))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range jobs {
		if j.State() != JobDone {
			t.Fatalf("in-flight job not drained: %s", j.State())
		}
	}
	if _, err := q.SubmitWith(SubmitOptions{Kind: "t"}, blockingJob(nil)); !errors.Is(err, ErrDraining) {
		t.Fatalf("expected ErrDraining, got %v", err)
	}
}

func TestQueueDrainForceCancels(t *testing.T) {
	q := NewQueue(1, 1, 0, nil, nil)
	j, err := q.SubmitWith(SubmitOptions{Kind: "t"}, blockingJob(make(chan struct{}))) // never released
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected deadline error, got %v", err)
	}
	if j.State() != JobCanceled {
		t.Fatalf("force-canceled job state: %s", j.State())
	}
}

func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job never reached %s (now %s)", want, j.State())
}
