// Package service exposes the Bestagon design flow as a long-running HTTP
// JSON service: a bounded job queue with a worker pool executes flow runs,
// ground-state simulations, and gate validations under per-job deadlines,
// with content-addressed result caching (internal/cache) in front of every
// compute path and cooperative cancellation (context) threaded through
// every solver loop underneath.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/defects"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/obslog"
)

// JobState is the lifecycle state of a queued job.
type JobState string

// Job lifecycle states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Queue submission errors.
var (
	// ErrQueueFull is returned when the bounded queue has no free slot;
	// the HTTP layer maps it to 429 with a Retry-After header.
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrDraining is returned once Drain has begun; the HTTP layer maps it
	// to 503.
	ErrDraining = errors.New("service: queue is draining")
)

// JobFunc is the work a job performs. It must honor ctx: cancellation or
// deadline expiry is expected to abort the computation promptly (every
// solver underneath the service is context-aware).
type JobFunc func(ctx context.Context) (any, error)

// PanicError is the error a job fails with when its JobFunc panicked. The
// worker recovers the panic (keeping the pool alive), captures the stack,
// and records the job as failed with ErrorKind "panic".
type PanicError struct {
	// Value is what was passed to panic().
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

// Error renders the panic value (the stack is kept out of the error string
// — it goes to the structured log, not to API clients).
func (p *PanicError) Error() string { return fmt.Sprintf("job panicked: %v", p.Value) }

// recoverPanic captures a recovered panic value with its stack, counts it
// in jobs_panicked_total and logs the stack. Every path that isolates
// panics calls it from its deferred recover: the queue's workers
// (safeRun) and the executions that run outside them (safeExec).
func recoverPanic(v any, panicked *obs.Counter, log *obslog.Logger, fields ...obslog.Field) *PanicError {
	pe := &PanicError{Value: v, Stack: debug.Stack()}
	panicked.Inc()
	log.Error("job_panic", append(fields,
		obslog.F("panic", fmt.Sprint(v)),
		obslog.F("stack", string(pe.Stack)))...)
	return pe
}

// DegradedResult is implemented by job results that carry a degradation
// marker (deadline pressure forced a cheaper engine); the queue surfaces
// it as ErrorKind "degraded" on otherwise-successful jobs.
type DegradedResult interface{ DegradedResult() bool }

// Error kinds, the machine-readable failure taxonomy of the jobs API.
const (
	ErrKindPanic    = "panic"
	ErrKindTimeout  = "timeout"
	ErrKindCanceled = "canceled"
	ErrKindDegraded = "degraded"
	ErrKindError    = "error"
	ErrKindNotFound = "not_found"
	// ErrKindDefectBlocked marks jobs that failed because surface defects
	// made the layout infeasible (errors wrapping defects.ErrBlocked) —
	// the design is sound, the surface is not.
	ErrKindDefectBlocked = "defect_blocked"
	// ErrKindInterrupted marks jobs that were queued or running when the
	// daemon died and were not resubmitted on restart: the work was lost to
	// the crash, not to anything wrong with the request.
	ErrKindInterrupted = "interrupted"
)

// JobMeta is the submission payload the write-ahead journal records with a
// job: everything a restarted daemon needs to re-create the work (or to
// answer honestly that it cannot).
type JobMeta struct {
	// Path is the endpoint the request arrived on ("/v1/flow", ...), the
	// dispatch key recovery re-prepares the body under.
	Path string
	// Body is the canonical request body, verbatim.
	Body []byte
	// Key is the op's content-addressed cache key ("" when uncacheable).
	Key string
	// IdemKey is the client's Idempotency-Key header value, if any.
	IdemKey string
	// TimeoutMS is the request's own deadline field (pre-clamping).
	TimeoutMS int64
}

// Job is one unit of queued work.
type Job struct {
	ID   string
	Kind string

	fn      JobFunc
	timeout time.Duration
	// requestID is the id of the HTTP request that submitted the job and
	// queue is the owning queue; both are set before enqueue and never
	// mutated, so they are read without the lock.
	requestID string
	queue     *Queue
	tracer    *obs.Tracer
	// meta is the journaled submission payload (nil for unjournaled
	// submissions); set before enqueue and never mutated.
	meta *JobMeta

	mu       sync.Mutex
	state    JobState
	err      string
	errKind  string
	result   any
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc

	// done is closed exactly once when the job reaches a terminal state.
	done chan struct{}
}

// Tracer returns the per-job tracer attached at submission (nil when the
// job kind records no trace).
func (j *Job) Tracer() *obs.Tracer { return j.tracer }

// RequestID returns the id of the HTTP request that submitted the job
// ("" for untraced submissions), the join key between the request log,
// the job-lifecycle log lines, and the flight-recorder trace.
func (j *Job) RequestID() string { return j.requestID }

// Meta returns the journaled submission payload (nil for unjournaled
// submissions).
func (j *Job) Meta() *JobMeta { return j.meta }

// CreatedAt returns the submission time.
func (j *Job) CreatedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.created
}

// RunSeconds returns the execution wall time in seconds: 0 until the job
// starts, elapsed-so-far while running, total once terminal.
func (j *Job) RunSeconds() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() {
		return 0
	}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	return end.Sub(j.started).Seconds()
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the job outcome once done; before a terminal state it
// returns (nil, "").
func (j *Job) Result() (any, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// ErrorKind returns the machine-readable failure class ("panic",
// "timeout", "canceled", "degraded", "error"), or "" for a clean success
// or a job not yet terminal.
func (j *Job) ErrorKind() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errKind
}

// Cancel requests cancellation: a queued job completes immediately as
// canceled; a running job has its context canceled and finishes when the
// computation unwinds.
func (j *Job) Cancel() {
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		j.state = JobCanceled
		j.err = context.Canceled.Error()
		j.errKind = ErrKindCanceled
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
		if j.queue != nil {
			j.queue.finishJob(j)
		}
		return
	case JobRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return
	}
	j.mu.Unlock()
}

// Status is a serializable job snapshot.
type Status struct {
	ID         string   `json:"id"`
	Kind       string   `json:"kind"`
	RequestID  string   `json:"request_id,omitempty"`
	State      JobState `json:"state"`
	Error      string   `json:"error,omitempty"`
	ErrorKind  string   `json:"error_kind,omitempty"`
	CreatedAt  string   `json:"created_at"`
	StartedAt  string   `json:"started_at,omitempty"`
	FinishedAt string   `json:"finished_at,omitempty"`
	// RunMS is the execution time (running: so far; terminal: total).
	RunMS int64 `json:"run_ms,omitempty"`
}

// Snapshot renders the job for /v1/jobs responses.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.ID,
		Kind:      j.Kind,
		RequestID: j.requestID,
		State:     j.state,
		Error:     j.err,
		ErrorKind: j.errKind,
		CreatedAt: j.created.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RunMS = end.Sub(j.started).Milliseconds()
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return st
}

// maxRetainedJobs bounds the finished-job history kept for /v1/jobs
// lookups; the oldest finished jobs are pruned beyond it.
const maxRetainedJobs = 1024

// Queue is a bounded job queue executed by a fixed worker pool. Submit
// never blocks: when the buffer is full it fails fast with ErrQueueFull so
// the HTTP layer can apply backpressure instead of stacking goroutines.
type Queue struct {
	ch      chan *Job
	timeout time.Duration

	mu     sync.Mutex
	byID   map[string]*Job
	order  []string // submission order, for pruning
	nextID int
	closed bool
	// drainStarted is when Drain began ("zero" before), the basis for the
	// Retry-After a draining replica advertises.
	drainStarted time.Time

	wg       sync.WaitGroup
	runningN atomic.Int64

	tr                                               *obs.Tracer
	log                                              *obslog.Logger
	submitted, completed, failed, canceled, rejected *obs.Counter
	panicked                                         *obs.Counter
	depth, running                                   *obs.Gauge
	waitHist                                         *obs.Histogram

	// onFinish is invoked once per job as it reaches a terminal state
	// (after its done channel closes), from the finishing goroutine. The
	// service hooks the flight recorder here. Set before the first
	// Submit; it is not synchronized for later swaps.
	onFinish func(*Job)
	// onSubmit is invoked under q.mu, after the job id is assigned but
	// BEFORE the job becomes visible to any worker — the write-ahead
	// ordering the journal depends on: the submission is durable before
	// the work can start. Set before the first Submit.
	onSubmit func(*Job)
	// onStart is invoked as a worker picks the job up (after its state is
	// running), from the worker goroutine. Set before the first Submit.
	onStart func(*Job)
}

// OnFinish registers the terminal-state hook (see the field doc).
func (q *Queue) OnFinish(fn func(*Job)) { q.onFinish = fn }

// OnSubmit registers the pre-visibility submission hook (see the field
// doc). The hook runs under the queue lock; it must not call back into
// the queue.
func (q *Queue) OnSubmit(fn func(*Job)) { q.onSubmit = fn }

// OnStart registers the job-start hook (see the field doc).
func (q *Queue) OnStart(fn func(*Job)) { q.onStart = fn }

// NewQueue starts a queue with the given worker count, buffer depth, and
// default per-job timeout (0 = no deadline). The tracer (nil-safe)
// receives queue metrics under "queue/"; the logger (nil-safe) receives
// panic stacks and failure records.
func NewQueue(workers, depth int, timeout time.Duration, tr *obs.Tracer, log *obslog.Logger) *Queue {
	if workers <= 0 {
		workers = 1
	}
	if depth <= 0 {
		depth = 16
	}
	q := &Queue{
		ch:        make(chan *Job, depth),
		timeout:   timeout,
		byID:      make(map[string]*Job),
		tr:        tr,
		log:       log,
		waitHist:  tr.Histogram("queue/wait_seconds", obs.DefBuckets...),
		panicked:  tr.Counter("jobs/panicked_total"),
		submitted: tr.Counter("queue/submitted"),
		completed: tr.Counter("queue/completed"),
		failed:    tr.Counter("queue/failed"),
		canceled:  tr.Counter("queue/canceled"),
		rejected:  tr.Counter("queue/rejected"),
		depth:     tr.Gauge("queue/depth"),
		running:   tr.Gauge("queue/running"),
	}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// Submit enqueues work. timeout overrides the queue default when positive.
func (q *Queue) Submit(kind string, timeout time.Duration, fn JobFunc) (*Job, error) {
	return q.SubmitWith(SubmitOptions{Kind: kind, Timeout: timeout}, fn)
}

// SubmitOptions parameterizes SubmitWith.
type SubmitOptions struct {
	Kind      string
	RequestID string
	Tracer    *obs.Tracer
	// Timeout overrides the queue default when positive.
	Timeout time.Duration
	// Meta is the journaled submission payload (nil = unjournaled).
	Meta *JobMeta
	// ID reuses an explicit job id instead of assigning the next one —
	// crash recovery resubmits journaled jobs under their pre-crash ids so
	// clients polling across the restart keep a valid handle. The caller
	// must have advanced the id sequence past it (see EnsureNextID).
	ID string
}

// SubmitWith enqueues work. The capacity check, id assignment, onSubmit
// hook, and channel insert all happen under one critical section, so the
// submission hook (the journal append) is guaranteed to complete before
// any worker can observe the job, and a journaled job can never be
// rejected after the fact.
func (q *Queue) SubmitWith(opts SubmitOptions, fn JobFunc) (*Job, error) {
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = q.timeout
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrDraining
	}
	if len(q.ch) == cap(q.ch) {
		q.mu.Unlock()
		q.rejected.Inc()
		return nil, ErrQueueFull
	}
	id := opts.ID
	if id == "" {
		q.nextID++
		id = fmt.Sprintf("j%08d", q.nextID)
	}
	j := &Job{
		ID:        id,
		Kind:      opts.Kind,
		fn:        fn,
		timeout:   timeout,
		requestID: opts.RequestID,
		queue:     q,
		tracer:    opts.Tracer,
		meta:      opts.Meta,
		state:     JobQueued,
		created:   time.Now(),
		done:      make(chan struct{}),
	}
	if q.onSubmit != nil {
		q.onSubmit(j)
	}
	// Cannot block: capacity was checked under this same lock and only
	// submitters (serialized by it) fill the channel.
	q.ch <- j
	q.byID[j.ID] = j
	q.order = append(q.order, j.ID)
	q.pruneLocked()
	q.mu.Unlock()
	q.submitted.Inc()
	q.depth.Set(float64(len(q.ch)))
	q.log.Debug("job_enqueued",
		obslog.F("job_id", j.ID),
		obslog.F("kind", j.Kind),
		obslog.F("request_id", j.requestID))
	return j, nil
}

// EnsureNextID advances the job-id sequence past id (a "j%08d" string),
// so ids assigned after crash recovery never collide with pre-crash ids
// resubmitted verbatim. Unparseable ids are ignored.
func (q *Queue) EnsureNextID(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "j%08d", &n); err != nil || n <= 0 {
		return
	}
	q.mu.Lock()
	if n > q.nextID {
		q.nextID = n
	}
	q.mu.Unlock()
}

// Restore inserts a pre-built terminal job into the lookup table without
// ever enqueueing it — crash recovery's way of making a pre-crash job id
// answer honestly on /v1/jobs/{id} instead of 404ing. It returns nil when
// the id already exists. fireFinish routes the job through the normal
// terminal hook (journal + flight recorder); recovery sets it only for
// newly-interrupted jobs, whose terminal state the journal has not yet
// witnessed.
func (q *Queue) Restore(id, kind, requestID string, state JobState, errKind, errMsg string, created time.Time, fireFinish bool) *Job {
	if created.IsZero() {
		created = time.Now()
	}
	j := &Job{
		ID:        id,
		Kind:      kind,
		requestID: requestID,
		queue:     q,
		state:     state,
		err:       errMsg,
		errKind:   errKind,
		created:   created,
		finished:  time.Now(),
		done:      make(chan struct{}),
	}
	close(j.done)
	q.mu.Lock()
	if _, ok := q.byID[id]; ok {
		q.mu.Unlock()
		return nil
	}
	q.byID[id] = j
	q.order = append(q.order, id)
	q.pruneLocked()
	q.mu.Unlock()
	if state == JobFailed {
		q.failed.Inc()
	}
	if fireFinish {
		q.finishJob(j)
	}
	return j
}

// finishJob emits the terminal lifecycle log line and fires the OnFinish
// hook. Called exactly once per job, after its done channel closes.
func (q *Queue) finishJob(j *Job) {
	st := j.Snapshot()
	q.log.Info("job_finish",
		obslog.F("job_id", st.ID),
		obslog.F("kind", st.Kind),
		obslog.F("request_id", st.RequestID),
		obslog.F("state", string(st.State)),
		obslog.F("error_kind", st.ErrorKind),
		obslog.F("run_ms", st.RunMS))
	if q.onFinish != nil {
		q.onFinish(j)
	}
}

// pruneLocked drops the oldest finished jobs beyond the retention cap.
// Caller holds q.mu.
func (q *Queue) pruneLocked() {
	for len(q.order) > maxRetainedJobs {
		pruned := false
		for i, id := range q.order {
			j := q.byID[id]
			j.mu.Lock()
			terminal := j.state == JobDone || j.state == JobFailed || j.state == JobCanceled
			j.mu.Unlock()
			if terminal {
				delete(q.byID, id)
				q.order = append(q.order[:i], q.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			return // everything live; keep over cap rather than lose state
		}
	}
}

// Get looks a job up by ID.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byID[id]
	return j, ok
}

// GetByRequestID returns the most recently submitted job whose submitting
// request carried the given request id. Job ids are per-replica; the
// request id is the fleet-wide key trace federation looks up by.
func (q *Queue) GetByRequestID(rid string) (*Job, bool) {
	if rid == "" {
		return nil, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := len(q.order) - 1; i >= 0; i-- {
		if j := q.byID[q.order[i]]; j != nil && j.requestID == rid {
			return j, true
		}
	}
	return nil, false
}

// Depth returns the number of queued (not yet running) jobs.
func (q *Queue) Depth() int { return len(q.ch) }

// Running returns the number of jobs currently executing.
func (q *Queue) Running() int { return int(q.runningN.Load()) }

// Draining reports whether Drain has begun (new submissions are being
// rejected with ErrDraining).
func (q *Queue) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// DrainStarted returns when Drain began (zero before it has).
func (q *Queue) DrainStarted() time.Time {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.drainStarted
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.ch {
		q.depth.Set(float64(len(q.ch)))
		q.run(j)
	}
}

func (q *Queue) run(j *Job) {
	j.mu.Lock()
	if j.state != JobQueued { // canceled while waiting
		j.mu.Unlock()
		return
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	started, created := j.started, j.created
	j.mu.Unlock()
	wait := started.Sub(created)
	q.waitHist.Observe(wait.Seconds())
	q.running.Set(float64(q.runningN.Add(1)))
	if q.onStart != nil {
		q.onStart(j)
	}
	q.log.Debug("job_start",
		obslog.F("job_id", j.ID),
		obslog.F("kind", j.Kind),
		obslog.F("request_id", j.requestID),
		obslog.F("wait_ms", wait.Milliseconds()))

	res, err := q.safeRun(j, ctx)
	cancel()
	q.running.Set(float64(q.runningN.Add(-1)))
	q.tr.Histogram(obs.Labeled("job/duration_seconds", "kind", j.Kind), obs.DefBuckets...).
		Observe(time.Since(started).Seconds())

	j.mu.Lock()
	j.finished = time.Now()
	j.result = res
	if err == nil {
		j.state = JobDone
		if d, ok := res.(DegradedResult); ok && d.DegradedResult() {
			j.errKind = ErrKindDegraded
		}
		q.completed.Inc()
	} else {
		j.err = err.Error()
		j.errKind = errorKind(err)
		if j.errKind == ErrKindTimeout || j.errKind == ErrKindCanceled {
			j.state = JobCanceled
			q.canceled.Inc()
		} else {
			j.state = JobFailed
			q.failed.Inc()
		}
	}
	close(j.done)
	j.mu.Unlock()
	q.finishJob(j)
}

// errorKind classifies a failed job's or batch item's error with the jobs
// API's taxonomy. The order matters: a panic or a deadline can wrap other
// errors, so they are tested first.
func errorKind(err error) string {
	var pe *PanicError
	switch {
	case errors.As(err, &pe):
		return ErrKindPanic
	case errors.Is(err, context.DeadlineExceeded):
		return ErrKindTimeout
	case errors.Is(err, context.Canceled):
		return ErrKindCanceled
	case errors.Is(err, defects.ErrBlocked):
		return ErrKindDefectBlocked
	default:
		return ErrKindError
	}
}

// safeRun executes the job function with panic isolation: a panicking job
// is converted into a *PanicError (stack captured for the structured log)
// instead of tearing down the worker — one poisoned request must not take
// the pool, and with it the whole daemon, down.
func (q *Queue) safeRun(j *Job, ctx context.Context) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, recoverPanic(r, q.panicked, q.log,
				obslog.F("job_id", j.ID),
				obslog.F("kind", j.Kind),
				obslog.F("request_id", j.requestID))
		}
	}()
	// The fault point stands in for any latent bug a request can tickle;
	// chaos tests arm it to prove the recovery path above.
	if faults.Should("service.job.panic") {
		panic("injected fault: service.job.panic")
	}
	return j.fn(ctx)
}

// Drain stops accepting work and waits for in-flight jobs. If ctx expires
// first, running jobs are canceled and Drain waits for them to unwind (the
// solvers abort at their next cancellation check).
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	q.drainStarted = time.Now()
	close(q.ch)
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Grace expired: force-cancel everything still live.
	q.mu.Lock()
	for _, j := range q.byID {
		j.Cancel()
	}
	q.mu.Unlock()
	<-done
	return ctx.Err()
}
