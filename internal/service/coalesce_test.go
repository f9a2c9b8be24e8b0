package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSingleflightDedup: N concurrent callers of the same key trigger
// exactly one execution, and all receive the identical value.
func TestSingleflightDedup(t *testing.T) {
	var g group[any]
	var execs atomic.Int64
	release := make(chan struct{})

	const n = 32
	var wg sync.WaitGroup
	vals := make([]any, n)
	shared := make([]bool, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], shared[i], errs[i] = g.Do(context.Background(), "k", func(context.Context) (any, error) {
				execs.Add(1)
				<-release // hold every caller in flight so all must coalesce
				return "result", nil
			})
		}(i)
	}
	// Hold the execution open until every caller has joined it, so no
	// goroutine can arrive after completion and start a second one.
	waitWaiters(t, &g, "k", n)
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions for %d concurrent callers; want 1", got, n)
	}
	sharedCount := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if vals[i] != "result" {
			t.Fatalf("caller %d got %v", i, vals[i])
		}
		if shared[i] {
			sharedCount++
		}
	}
	if sharedCount != n-1 {
		t.Fatalf("%d callers reported shared; want %d (everyone but the starter)", sharedCount, n-1)
	}
}

// TestSingleflightSequential: after an execution completes, the next call
// runs fresh instead of reusing the stale result.
func TestSingleflightSequential(t *testing.T) {
	var g group[any]
	for i := 0; i < 3; i++ {
		v, shared, err := g.Do(context.Background(), "k", func(context.Context) (any, error) {
			return i, nil
		})
		if err != nil || shared || v != i {
			t.Fatalf("call %d: v=%v shared=%v err=%v", i, v, shared, err)
		}
	}
}

// TestSingleflightLeaderCancelHandsOff: the caller that started the
// execution cancels and leaves, but the execution keeps running and the
// remaining waiter still gets the result.
func TestSingleflightLeaderCancelHandsOff(t *testing.T) {
	var g group[any]
	release := make(chan struct{})
	var execs atomic.Int64

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(leaderCtx, "k", func(ctx context.Context) (any, error) {
			execs.Add(1)
			select {
			case <-release:
				return "ok", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
		leaderDone <- err
	}()
	waitInFlight(t, &g, "k")

	followerDone := make(chan struct{})
	var followerVal any
	var followerErr error
	go func() {
		defer close(followerDone)
		followerVal, _, followerErr = g.Do(context.Background(), "k", func(context.Context) (any, error) {
			execs.Add(1)
			return "second execution", nil
		})
	}()
	// Cancel the leader only once the follower has joined the call.
	waitWaiters(t, &g, "k", 2)
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader got %v; want context.Canceled", err)
	}

	close(release)
	<-followerDone
	if followerErr != nil {
		t.Fatalf("follower: %v", followerErr)
	}
	if followerVal != "ok" {
		t.Fatalf("follower got %v; want the original execution's result", followerVal)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions; the leader's departure must not restart the work", got)
	}
}

// TestSingleflightAllCancelAbandons: when every waiter leaves, the work
// context is canceled and the key is unpublished so the next caller
// starts fresh.
func TestSingleflightAllCancelAbandons(t *testing.T) {
	var g group[any]
	started := make(chan struct{})
	abandoned := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(runCtx context.Context) (any, error) {
			close(started)
			<-runCtx.Done() // must fire once the last waiter leaves
			close(abandoned)
			return nil, runCtx.Err()
		})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v; want context.Canceled", err)
	}
	select {
	case <-abandoned:
	case <-time.After(2 * time.Second):
		t.Fatal("work context never canceled after the last waiter left")
	}
	// The key must be free for a fresh execution immediately.
	v, _, err := g.Do(context.Background(), "k", func(context.Context) (any, error) {
		return "fresh", nil
	})
	if err != nil || v != "fresh" {
		t.Fatalf("fresh call after abandon: v=%v err=%v", v, err)
	}
}

// TestSingleflightPreservesDeadline: the detached work context keeps the
// starter's deadline — it is a resource bound, not caller interest.
func TestSingleflightPreservesDeadline(t *testing.T) {
	var g group[any]
	deadline := time.Now().Add(time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	_, _, err := g.Do(ctx, "k", func(runCtx context.Context) (any, error) {
		d, ok := runCtx.Deadline()
		if !ok {
			return nil, fmt.Errorf("work context lost the deadline")
		}
		if !d.Equal(deadline) {
			return nil, fmt.Errorf("deadline %v; want %v", d, deadline)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSingleflightAnswerAtDeadline: work that answers right after its
// deadline (a degradation ladder's cheap result) reaches the starter,
// whose deadline the run shares, instead of a DeadlineExceeded.
func TestSingleflightAnswerAtDeadline(t *testing.T) {
	var g group[any]
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	v, _, err := g.Do(ctx, "k", func(runCtx context.Context) (any, error) {
		<-runCtx.Done()
		time.Sleep(20 * time.Millisecond) // finish just after the deadline
		return "late answer", nil
	})
	if err != nil || v != "late answer" {
		t.Fatalf("starter got (%v, %v); want the run's late answer", v, err)
	}
}

// TestSingleflightDistinctKeys: different keys never coalesce.
func TestSingleflightDistinctKeys(t *testing.T) {
	var g group[any]
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := g.Do(context.Background(), fmt.Sprintf("k%d", i), func(context.Context) (any, error) {
				execs.Add(1)
				return i, nil
			})
			if err != nil || v != i {
				t.Errorf("key k%d: v=%v err=%v", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	if got := execs.Load(); got != 8 {
		t.Fatalf("%d executions; want 8", got)
	}
}

// waitInFlight blocks until an execution for key is running.
func waitInFlight(t *testing.T, g *group[any], key string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		g.mu.Lock()
		_, running := g.m[key]
		g.mu.Unlock()
		if running {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("execution never started")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitWaiters blocks until n callers are participating in key's call.
func waitWaiters(t *testing.T, g *group[any], key string, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		g.mu.Lock()
		c := g.m[key]
		w := 0
		if c != nil {
			w = c.waiters
		}
		g.mu.Unlock()
		if w == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers joined", w, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentIdenticalRequestsCoalesce is the single-flight
// acceptance test: N concurrent identical cold requests produce exactly
// one solver invocation and byte-identical responses.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})

	const n = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	caches := make([]string, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/simulate", fourDots())
			codes[i], bodies[i], caches[i] = resp.StatusCode, body, resp.Header.Get("X-Cache")
		}(i)
	}
	wg.Wait()

	misses := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs:\n%s\n%s", i, bodies[i], bodies[0])
		}
		if caches[i] == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d X-Cache misses across %d identical concurrent requests; want exactly 1", misses, n)
	}
	if got := s.tr.Counter(obs.Labeled("jobs/cold_solves_total", "kind", "simulate")).Value(); got != 1 {
		t.Fatalf("cold solves = %d; want exactly 1 solver invocation", got)
	}
}

// TestRunCoalescedRerunsAfterLeaderDeadline: a joiner with a longer
// budget than the starter must not inherit the starter's
// DeadlineExceeded — it retries once under its own deadline.
func TestRunCoalescedRerunsAfterLeaderDeadline(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	started := make(chan struct{})
	op := &preparedOp{kind: "simulate", key: "sim:deadline-test"}
	op.compute = func(ctx context.Context, jtr *obs.Tracer) (*jobResult, []byte, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done() // burn the starter's whole (short) budget
			return nil, nil, ctx.Err()
		}
		return &jobResult{body: []byte("ok")}, nil, nil
	}

	leaderErr := make(chan error, 1)
	ctxA, cancelA := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancelA()
	go func() {
		_, err := s.runCoalesced(ctxA, op, obs.New())
		leaderErr <- err
	}()
	<-started

	ctxB, cancelB := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelB()
	jr, err := s.runCoalesced(ctxB, op, obs.New())
	if err != nil {
		t.Fatalf("joiner with live budget failed: %v", err)
	}
	if string(jr.body) != "ok" {
		t.Fatalf("joiner result %q; want the rerun's result", jr.body)
	}
	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("starter error = %v; want DeadlineExceeded", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("exec calls = %d; want 2 (expired run + rerun)", got)
	}
	if got := s.tr.Counter("cluster/singleflight_rerun_total").Value(); got != 1 {
		t.Fatalf("singleflight rerun count = %d; want 1", got)
	}
}
