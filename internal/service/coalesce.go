package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// group coalesces concurrent calls with the same key onto one execution.
//
// Unlike the classic singleflight, the function runs in its own goroutine
// under a context owned by the group, not the first caller's context: a
// canceled caller — including the one that started the work — simply
// leaves, and the execution keeps running for the remaining waiters. The
// work context is canceled only when the last participant has left, so
// nobody pays for an answer nobody wants anymore.
type group[T any] struct {
	mu sync.Mutex
	m  map[string]*call[T]
}

type call[T any] struct {
	done     chan struct{} // closed when fn returns
	cancel   context.CancelFunc
	deadline time.Time // the run's deadline (the starter's); zero if none
	waiters  int       // participants still waiting; guarded by group.mu

	val T
	err error
}

// Do executes fn for key, coalescing with any in-flight execution of the
// same key. It returns fn's result, whether the result was shared with
// other callers, and an error. If ctx is canceled while waiting, Do
// returns ctx.Err() immediately; the execution continues for any other
// waiters and is abandoned (its context canceled) only when the last
// waiter leaves.
//
// A caller whose deadline expires no earlier than the run's is an
// exception: the run's own deadline has passed too, so Do waits for fn
// to return and hands over its outcome, exactly as if the caller had run
// fn itself. Work that answers at its deadline (a degraded result rather
// than an error) thus reaches the caller that paid for it. A joiner with
// a shorter deadline still leaves at once.
//
// The run inherits the deadline of the caller that started it, and a
// context deadline cannot be extended afterwards — so a joiner with a
// longer budget shares the starter's (shorter) one and may receive
// DeadlineExceeded while its own context is still live. A joiner that
// observes shared == true, a DeadlineExceeded error, and a live ctx
// should call Do again to run under its own budget (the service layer
// does exactly this; see runCoalesced).
//
// fn must not panic-propagate: it runs on a group-owned goroutine, so a
// panic there would crash the process. Wrap recovery inside fn.
func (g *group[T]) Do(ctx context.Context, key string, fn func(ctx context.Context) (T, error)) (T, bool, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call[T])
	}
	c, joined := g.m[key]
	if !joined {
		// The run detaches from the starter's cancellation (so a departing
		// starter doesn't fail the others) but keeps its deadline: the
		// deadline is a resource bound that downstream degradation ladders
		// read, while cancellation is just one caller losing interest.
		parent := context.WithoutCancel(ctx)
		var runCtx context.Context
		var cancel context.CancelFunc
		d, hasDeadline := ctx.Deadline()
		if hasDeadline {
			runCtx, cancel = context.WithDeadline(parent, d)
		} else {
			runCtx, cancel = context.WithCancel(parent)
		}
		c = &call[T]{done: make(chan struct{}), cancel: cancel, deadline: d}
		g.m[key] = c
		go func() {
			val, err := fn(runCtx)
			g.mu.Lock()
			// Only this call's entry may be deleted: a late joiner after
			// completion would have created a new entry under the same key.
			if g.m[key] == c {
				delete(g.m, key)
			}
			c.val, c.err = val, err
			g.mu.Unlock()
			close(c.done)
			cancel()
		}()
	}
	c.waiters++
	g.mu.Unlock()

	select {
	case <-c.done:
	case <-ctx.Done():
		if c.sharesDeadline(ctx) {
			// The run's deadline has passed too, so fn is about to return;
			// its outcome is this caller's answer.
			<-c.done
			break
		}
		g.mu.Lock()
		c.waiters--
		last := c.waiters == 0
		if last {
			// Last participant gone: abandon the execution and unpublish the
			// key so a fresh caller starts a fresh execution instead of
			// joining a canceled one.
			if g.m[key] == c {
				delete(g.m, key)
			}
		}
		g.mu.Unlock()
		if last {
			c.cancel()
		}
		var zero T
		return zero, joined, ctx.Err()
	}
	g.mu.Lock()
	c.waiters--
	g.mu.Unlock()
	return c.val, joined, c.err
}

// sharesDeadline reports whether ctx ended at a deadline no earlier than
// the run's, so that the run's context has expired as well.
func (c *call[T]) sharesDeadline(ctx context.Context) bool {
	if c.deadline.IsZero() || ctx.Err() != context.DeadlineExceeded {
		return false
	}
	d, _ := ctx.Deadline()
	return !d.Before(c.deadline)
}

// safeExec runs execOp with panic isolation, converting a panic into
// the queue's PanicError so it surfaces as error_kind "panic" instead of
// killing the process. Two execution paths run outside safeRun's
// worker-scoped recover and depend on this guard: single-flight runs
// (group-owned goroutines) and batch fan-out (internal/pool goroutines
// inside one queue job, which would re-raise the panic and fail the whole
// batch) — including keyless items, which skip the group entirely.
func (s *Server) safeExec(ctx context.Context, op *preparedOp, jtr *obs.Tracer) (jr *jobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			jr, err = nil, recoverPanic(r, s.tr.Counter("jobs/panicked_total"), s.log,
				"kind", op.kind,
				"request_id", obs.RequestIDFromContext(ctx))
		}
	}()
	// Stands in for any latent bug an exec path can tickle; chaos tests
	// arm it to prove the recovery above (safeRun's point only covers the
	// worker goroutine itself).
	if faults.Should("service.exec.panic") {
		panic("injected fault: service.exec.panic")
	}
	return s.execOp(ctx, op, jtr)
}

// runCoalesced executes the op through the single-flight group
// when the op has a cache key: concurrent identical executions — from
// requests and batch items alike — collapse onto one run whose result every participant shares byte for byte. A
// caller whose context ends leaves without failing the others; the run
// itself is abandoned only when its last participant is gone.
func (s *Server) runCoalesced(ctx context.Context, op *preparedOp, jtr *obs.Tracer) (*jobResult, error) {
	if op.key == "" {
		// Keyless ops (nocache, custom library) skip coalescing but still
		// need the panic guard: batch fan-out reaches here on pool
		// goroutines, and one item's panic must not fail its siblings.
		return s.safeExec(ctx, op, jtr)
	}
	fn := func(runCtx context.Context) (*jobResult, error) {
		return s.safeExec(runCtx, op, jtr)
	}
	jr, shared, err := s.single.Do(ctx, string(op.key), fn)
	if err != nil && shared && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		// The run this caller joined inherited its starter's deadline,
		// which may have been shorter than ours: the starter timing out
		// must not fail a joiner that still has budget. Retry once under
		// our own deadline (the fresh run may itself be joined by others).
		// The metric keeps its cluster_ family name so /metrics is unchanged.
		s.tr.Counter("cluster/singleflight_rerun_total").Inc()
		jr, shared, err = s.single.Do(ctx, string(op.key), fn)
	}
	if err != nil {
		return nil, err
	}
	if shared {
		s.tr.Counter("cluster/singleflight_merged_total").Inc()
		// Same bytes, distinct result struct: the source marker tells the
		// caller (and the X-Cache header) this answer rode along on another
		// request's solve.
		cp := *jr
		cp.source = sourceCoalesced
		return &cp, nil
	}
	return jr, nil
}

// sourceCoalesced marks a jobResult that shared another request's
// execution; cacheHeader reports it as a hit (no local work was done).
const sourceCoalesced = "coalesced"
