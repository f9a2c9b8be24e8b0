package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/gatelib"
	"repro/internal/journal"
	"repro/internal/lattice"
	"repro/internal/logic/bench"
	"repro/internal/logic/network"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/slo"
	"repro/internal/sidb"
	"repro/internal/sim"
)

// Config tunes the design service.
type Config struct {
	// Workers is the job worker pool size (default 2).
	Workers int
	// QueueDepth bounds queued-but-not-running jobs (default 4*Workers).
	QueueDepth int
	// JobTimeout is the default per-job deadline; requests can shorten it
	// via timeout_ms but never extend it. Zero means no deadline.
	JobTimeout time.Duration
	// CacheBytes bounds the in-memory result cache (default 64 MiB).
	CacheBytes int64
	// CacheDir, when set, enables the persistent cache tier: flow
	// artifacts, ground states and gate validations all survive restarts.
	CacheDir string
	// Solver is the default ground-state solver name ("" = automatic
	// dispatch; see sim.SolverNames).
	Solver string
	// MaxBodyBytes bounds request bodies (default 1 MiB); oversized
	// requests are rejected with 413 and a JSON error.
	MaxBodyBytes int64
	// Tracer receives server-wide metrics (queue depth, cache hit rates,
	// request counters, latency histograms). Per-job flow spans use their
	// own tracers whose stage durations are aggregated back onto this one
	// via an obs.StageObserver, so the shared tracer only ever sees
	// concurrency-safe metric types.
	Tracer *obs.Tracer
	// Logger receives structured JSON request/job logs (nil disables).
	Logger *slog.Logger
	// SLOWindows are the burn-rate evaluation windows (default 5m and 1h).
	// Chaos tests shrink them so budget burn and recovery are observable
	// within a smoke run.
	SLOWindows []time.Duration
	// JournalDir, when set, enables the write-ahead job journal: every
	// submission is fsynced to disk before its id is returned, and on
	// restart the journal is replayed so pre-crash job ids answer honestly
	// instead of 404ing (see internal/journal and RecoverMode).
	JournalDir string
	// RecoverMode decides what happens to jobs the journal shows queued or
	// running at crash: RecoverFail (default) surfaces them as failed with
	// error_kind "interrupted"; RecoverResubmit re-enqueues them from
	// their journaled request bytes under their pre-crash ids.
	RecoverMode string
	// DrainGrace is the shutdown grace period the daemon gives Drain; the
	// 503s a draining replica answers with advertise the remainder of it
	// as Retry-After.
	DrainGrace time.Duration
}

// defaultObjectives declares the service's latency/error objectives per
// cost class. Budgets are error budgets: the tolerated fraction of bad
// (5xx or over-latency-threshold) requests.
func defaultObjectives() []slo.Objective {
	return []slo.Objective{
		{Name: "flow", Latency: 30 * time.Second, Budget: 0.01},
		{Name: "simulate", Latency: 5 * time.Second, Budget: 0.01},
		{Name: "validate", Latency: 5 * time.Second, Budget: 0.01},
		{Name: "read", Latency: 250 * time.Millisecond, Budget: 0.01},
	}
}

// Server is the bestagond HTTP service: a JSON API over the design flow,
// simulation, and gate validation, backed by a bounded job queue and a
// content-addressed result cache.
type Server struct {
	cfg       Config
	tr        *obs.Tracer
	log       *slog.Logger
	queue     *Queue
	lru       *cache.LRU
	tiers     *cache.Tiers
	lib       *gatelib.Library
	mux       *http.ServeMux
	handler   http.Handler
	started   time.Time
	window    *obs.RollingWindow
	stageSink *obs.StageObserver
	flight    *flight.Recorder
	slo       *slo.Engine
	inFlight  atomic.Int64

	// single coalesces identical in-flight executions; admission applies
	// cost-class load shedding.
	single    group[*jobResult]
	admission *admission

	// jrnl is the write-ahead job journal (nil when JournalDir is unset);
	// idem maps Idempotency-Key values to job ids so client retries
	// reattach instead of re-solving.
	jrnl *journal.Journal
	idem idemTable
}

// New builds a server (it does not listen; see Handler).
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.Tracer == nil {
		// The server always carries a tracer so /metrics has content even
		// when the daemon was started without observability flags.
		cfg.Tracer = obs.New()
	}
	if cfg.Solver != "" {
		if _, err := sim.Lookup(cfg.Solver); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	switch cfg.RecoverMode {
	case "", RecoverFail:
		cfg.RecoverMode = RecoverFail
	case RecoverResubmit:
	default:
		return nil, fmt.Errorf("service: unknown recover mode %q (want %s or %s)",
			cfg.RecoverMode, RecoverFail, RecoverResubmit)
	}
	s := &Server{
		cfg:     cfg,
		tr:      cfg.Tracer,
		log:     cmp.Or(cfg.Logger, obs.Discard),
		lru:     cache.NewLRU(cfg.CacheBytes),
		lib:     gatelib.NewLibrary(),
		started: time.Now(),
		window:  obs.NewRollingWindow(512),
	}
	s.stageSink = &obs.StageObserver{
		Tracer: s.tr,
		Family: "flow_stage_seconds",
		// Solver-depth telemetry: numeric span attributes recorded by the
		// SAT size search are folded into server-wide histograms labeled by
		// stage, so /metrics exposes search-effort distributions (how hard
		// solves are, not just how long).
		Attrs: []obs.AttrHistogram{
			{Key: "conflicts", Family: "sat_conflicts_per_solve",
				Bounds: []float64{0, 10, 100, 1e3, 1e4, 1e5, 1e6}},
			{Key: "decisions", Family: "sat_decisions_per_solve",
				Bounds: []float64{0, 10, 100, 1e3, 1e4, 1e5, 1e6}},
			{Key: "propagations", Family: "sat_propagations_per_solve",
				Bounds: []float64{0, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}},
			{Key: "restarts", Family: "sat_restarts_per_solve",
				Bounds: []float64{0, 1, 2, 5, 10, 20, 50, 100}},
			{Key: "solve_seconds", Family: "pnr_exact_size_solve_seconds"},
		},
	}
	s.slo = slo.New(defaultObjectives(), cfg.SLOWindows...)
	s.flight = flight.NewRecorder(s.tr)
	s.lru.Instrument(s.tr, "cache/mem")
	s.tiers = &cache.Tiers{Mem: s.lru}
	if cfg.CacheDir != "" {
		d, err := cache.NewDisk(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		d.Instrument(s.tr, s.log)
		// The resilient wrapper retries transient I/O twice and trips a
		// breaker to memory-only caching when the disk keeps failing, so
		// cache storage trouble degrades throughput instead of
		// availability.
		s.tiers.Disk = cache.NewResilient(d, s.tr, s.log)
	}
	s.admission = newAdmission(s.tr)
	s.queue = NewQueue(cfg.Workers, cfg.QueueDepth, cfg.JobTimeout, s.tr, s.log)
	s.queue.OnFinish(func(j *Job) {
		// Every terminal job is offered to the flight recorder, which keeps
		// all error/degraded/slow traces and a sample of fast successes.
		s.flight.Record(jobTrace(j))
		s.admission.observe(j.RunSeconds())
		s.journalFinish(j)
	})
	if cfg.JournalDir != "" {
		// Opened after the queue so the lifecycle hooks have a queue to
		// hang off, and recovery (which may resubmit) has workers to run
		// on — but before the mux exists, so no request can race replay.
		if err := s.initJournal(cfg); err != nil {
			return nil, err
		}
		s.recoverJournal(cfg.RecoverMode)
	}

	s.mux = http.NewServeMux()
	for i := range opRoutes {
		s.mux.HandleFunc("POST "+opRoutes[i].path, s.handleOp(&opRoutes[i]))
	}
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/gates", s.handleGates)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	s.mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = s.instrument(s.mux)
	return s, nil
}

// Handler returns the HTTP handler (routes wrapped in the observability
// middleware: request IDs, latency histograms, structured logs).
func (s *Server) Handler() http.Handler { return s.handler }

// CacheStats snapshots the in-memory result cache.
func (s *Server) CacheStats() cache.Stats { return s.lru.Stats() }

// Drain stops accepting jobs and waits for in-flight work (see
// Queue.Drain).
func (s *Server) Drain(ctx context.Context) error {
	err := s.queue.Drain(ctx)
	if s.jrnl != nil {
		// After Drain every job has journaled its terminal event; closing
		// here fsyncs the tail so a clean shutdown replays to nothing.
		s.jrnl.Close()
	}
	return err
}

// ---- request/response plumbing ----

// jobResult is what every job kind stores on completion: the canonical
// response body plus where it came from. Serving the stored bytes verbatim
// is what makes warm responses byte-identical to cold ones.
type jobResult struct {
	// body is one JSON value without the response's trailing newline:
	// await writes it and then '\n', and a batch item or a job snapshot
	// embeds it. A flow hit's body is the cache tier's own slice, shared
	// with every concurrent hit, so it is read-only: never append to it.
	body []byte
	// source is a cache.Source* tier label, sourceCoalesced, or a batch's
	// aggregate "hit"/"miss".
	source string
	// degraded mirrors the artifact's degraded marker so the queue can
	// tag the job with ErrorKind "degraded" (the body carries the full
	// detail; this drives the X-Degraded header and job snapshots). A
	// degraded result is never cached (see execOp).
	degraded bool
	// solver names the ground-state backend that produced a simulate
	// result, labeling its sim_solve_seconds observation.
	solver string
}

// cacheHeader is the X-Cache value: "miss" when this request's job
// computed the result, "hit" otherwise. A coalesced ride-along did no
// solving of its own; from the client's perspective it is a cache hit.
func (r *jobResult) cacheHeader() string {
	switch r.source {
	case cache.SourceMiss, cache.SourceBypass:
		return "miss"
	default:
		return "hit"
	}
}

// jsonResult renders v as a job response body.
func jsonResult(v any) (*jobResult, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return &jobResult{body: b}, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeErrKind is writeErr plus the machine-readable error_kind field
// ("not_found", "panic", "timeout", "canceled", "degraded", "error") so
// clients can branch on failure class without parsing prose.
func writeErrKind(w http.ResponseWriter, code int, kind, format string, args ...any) {
	writeJSON(w, code, map[string]string{
		"error":      fmt.Sprintf(format, args...),
		"error_kind": kind,
	})
}

// readBody reads the bounded raw request body. It returns ok=false after
// writing the error response itself: 413 with a JSON error when the body
// exceeds the configured bound. The raw bytes are kept because the
// journal stores them verbatim.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
			return nil, false
		}
		writeErr(w, http.StatusBadRequest, "bad request: %v", err)
		return nil, false
	}
	return b, true
}

// unmarshalBody decodes body into v, writing the 400 itself on failure.
func unmarshalBody(w http.ResponseWriter, body []byte, v any) bool {
	if err := json.Unmarshal(body, v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request: %v", err)
		return false
	}
	return true
}

// preparedOp is a parsed, validated compute request. Its canonical cache
// key (empty when the request is not content-addressable: nocache, or a
// sweep) drives single-flight coalescing and the cache tiers. prepare* functions do all request-shape validation up front, so
// compute can only fail for compute reasons.
type preparedOp struct {
	kind      string // "flow", "simulate", "validate", "sweep"
	key       cache.Key
	timeoutMS int64
	async     bool
	// span names the job-trace span execOp wraps the op in, annotated with
	// attrs; empty for the flow, which opens its own "flow" span.
	span  string
	attrs []obs.Attr
	// compute runs the op cold. It returns the response and the cache
	// entry to store, nil when the result must not be cached. execOp
	// drops the entry of a degraded response.
	compute func(ctx context.Context, jtr *obs.Tracer) (*jobResult, []byte, error)
	// replay renders a cached entry as the response; source names the
	// tier that holds it (cache.Source*), and an error makes the entry a
	// miss. The entry is shared with the tier: read-only. Keyless ops
	// never replay.
	replay func(source string, entry []byte) (*jobResult, error)
}

// opRoute is one compute endpoint: every row of opRoutes is served by
// handleOp, and the same row prepares batch items and journaled requests.
type opRoute struct {
	path    string
	kind    string
	class   string // admission class
	counter string // request counter
	batch   bool   // allowed as a /v1/batch item
	prepare func(s *Server, body []byte) (*preparedOp, error)
}

var opRoutes = []opRoute{
	{"/v1/flow", "flow", "flow", "http/flow", true, decodeThen((*Server).prepareFlow)},
	{"/v1/simulate", "simulate", "simulate", "http/simulate", true, decodeThen((*Server).prepareSimulate)},
	{"/v1/gates/validate", "validate", "validate", "http/validate", true, decodeThen((*Server).prepareValidate)},
	// Sweeps are billed as flow-class work: they hold a worker for longer
	// than any other job kind.
	{"/v1/defects/sweep", "sweep", "flow", "http/defect_sweep", false, decodeThen((*Server).prepareSweep)},
}

// findRoute returns the first opRoutes row matching, or nil.
func findRoute(match func(*opRoute) bool) *opRoute {
	for i := range opRoutes {
		if match(&opRoutes[i]) {
			return &opRoutes[i]
		}
	}
	return nil
}

// decodeThen adapts a typed prepare function to raw request bodies.
func decodeThen[R any](prepare func(*Server, *R) (*preparedOp, error)) func(*Server, []byte) (*preparedOp, error) {
	return func(s *Server, body []byte) (*preparedOp, error) {
		var req R
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("bad request: %w", err)
		}
		return prepare(s, &req)
	}
}

// handleOp serves one compute endpoint: prepare, Idempotency-Key replay,
// admission, then a queued job (answered when done, or 202 for async
// requests).
func (s *Server) handleOp(rt *opRoute) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.tr.Counter(rt.counter).Inc()
		body, ok := s.readBody(w, r)
		if !ok {
			return
		}
		op, err := rt.prepare(s, body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		// An Idempotency-Key that matches an earlier submission reattaches to
		// that job.
		ik := clientToken(r, IdempotencyKeyHeader)
		if s.idempotentReplay(w, r, ik, op.async) {
			return
		}
		if !s.admit(w, rt.class) {
			return
		}
		j, ok := s.submit(w, r, op.kind,
			&JobMeta{Path: rt.path, Body: body, Key: string(op.key), IdemKey: ik, TimeoutMS: op.timeoutMS},
			s.opJob(op))
		if ok {
			s.reply(w, r, j, op.async)
		}
	}
}

// execOp runs a prepared op through the cache tiers. It is the one place
// that counts cold solves, times ground-state solves, and records in the
// job trace which tier served the result (a "cache" span with a source
// attribute).
func (s *Server) execOp(ctx context.Context, op *preparedOp, jtr *obs.Tracer) (*jobResult, error) {
	if op.span != "" {
		sp := jtr.Start(op.span)
		defer sp.End()
		if rid := obs.RequestIDFromContext(ctx); rid != "" {
			sp.SetAttr("request_id", rid)
		}
		for _, a := range op.attrs {
			sp.SetAttr(a.Key, a.Value)
		}
	}
	var jr *jobResult
	source, err := s.tiers.Do(ctx, op.key,
		func(source string, entry []byte) (err error) {
			jr, err = op.replay(source, entry)
			return err
		},
		func() ([]byte, error) {
			start := time.Now()
			res, entry, err := op.compute(ctx, jtr)
			if err != nil {
				return nil, err
			}
			if res.solver != "" {
				s.tr.Histogram(obs.Labeled("sim/solve_seconds", "solver", res.solver), obs.DefBuckets...).
					Observe(time.Since(start).Seconds())
			}
			jr = res
			if res.degraded {
				// A degraded answer reflects this request's deadline, not
				// the problem content: served, never cached, so a
				// well-budgeted repeat gets the full-quality path.
				return nil, nil
			}
			return entry, nil
		})
	if err != nil {
		return nil, err
	}
	sp := jtr.Start("cache")
	sp.SetAttr("source", source)
	sp.End()
	if source == cache.SourceMiss || source == cache.SourceBypass {
		// A genuine computation: no cache tier and no coalescing served
		// it.
		s.tr.Counter(obs.Labeled("jobs/cold_solves_total", "kind", op.kind)).Inc()
	}
	jr.source = source
	return jr, nil
}

// jobRun is the body of a compute job: it runs under the job's context
// (which carries the request id) and records into the job's tracer.
type jobRun func(ctx context.Context, jtr *obs.Tracer) (*jobResult, error)

// opJob is the job body of one op: it routes the execution through the
// single-flight group.
func (s *Server) opJob(op *preparedOp) jobRun {
	return func(ctx context.Context, jtr *obs.Tracer) (*jobResult, error) {
		return s.runCoalesced(ctx, op, jtr)
	}
}

// jobTimeout is the deadline of a job whose request asked for timeoutMS:
// the request's own value, clamped to JobTimeout (which also applies when
// the request names none). Zero means no deadline.
func (s *Server) jobTimeout(timeoutMS int64) time.Duration {
	t := time.Duration(timeoutMS) * time.Millisecond
	if s.cfg.JobTimeout > 0 && (t <= 0 || t > s.cfg.JobTimeout) {
		t = s.cfg.JobTimeout
	}
	return t
}

// enqueue is the one submission path of every compute job: a request, a
// batch, or a journaled job resubmitted after a crash. opts names the
// kind, the request id and the journal payload (Meta, never nil); enqueue
// clamps the deadline and gives the job its own tracer, whose span sink
// aggregates every stage duration into the server-wide flow_stage_seconds
// histograms. The queue hands a job a fresh context, so run's context
// gets the request id back. A successful submission with an
// Idempotency-Key claims the key, so a client retry reattaches to this
// job.
func (s *Server) enqueue(opts SubmitOptions, run jobRun) (*Job, error) {
	jtr := obs.New()
	jtr.SetSink(s.stageSink)
	opts.Tracer = jtr
	opts.Timeout = s.jobTimeout(opts.Meta.TimeoutMS)
	j, err := s.queue.SubmitWith(opts, func(ctx context.Context) (*jobResult, error) {
		return run(obs.ContextWithRequestID(ctx, opts.RequestID), jtr)
	})
	if err == nil && opts.Meta.IdemKey != "" {
		s.idem.claim(opts.Meta.IdemKey, j.ID)
	}
	return j, err
}

// submit enqueues the job of request r, writing the backpressure response
// itself when the queue refuses it.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind string, meta *JobMeta, run jobRun) (*Job, bool) {
	j, err := s.enqueue(SubmitOptions{
		Kind: kind, RequestID: obs.RequestIDFromContext(r.Context()), Meta: meta,
	}, run)
	switch err {
	case nil:
		return j, true
	case ErrQueueFull:
		// Same honest estimate as admission control: backlog times the
		// smoothed job duration across the pool, not a blind constant.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeErrKind(w, http.StatusTooManyRequests, ErrKindShed,
			"job queue is full (depth %d)", s.cfg.QueueDepth)
	case ErrDraining:
		// The replica is going away; the remainder of the drain grace is
		// the honest estimate of when its replacement answers.
		w.Header().Set("Retry-After", strconv.Itoa(s.drainRetryAfterSeconds()))
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
	return nil, false
}

// reply answers a submitted (or reattached) job: 202 with the job's
// snapshot and poll URL for an async request, otherwise the job's own
// response once it finishes.
func (s *Server) reply(w http.ResponseWriter, r *http.Request, j *Job, async bool) {
	if async {
		w.Header().Set("Location", "/v1/jobs/"+j.ID)
		writeJSON(w, http.StatusAccepted, j.Snapshot())
		return
	}
	s.await(w, r, j)
}

// await blocks until the job finishes or the client goes away (which
// cancels the job), then writes the job's canonical response.
func (s *Server) await(w http.ResponseWriter, r *http.Request, j *Job) {
	select {
	case <-j.Done():
	case <-r.Context().Done():
		j.Cancel()
		<-j.Done()
	}
	jr, errMsg := j.Result()
	kind := j.ErrorKind()
	switch j.State() {
	case JobDone:
		if jr == nil {
			// A recovered terminal stub has no result body (only the journal
			// survived the crash, not the bytes); 410 tells the caller the
			// job finished but the answer must be re-requested.
			w.Header().Set("X-Job-Id", j.ID)
			writeErrKind(w, http.StatusGone, ErrKindInterrupted,
				"job %s completed before a daemon restart; its result was not retained", j.ID)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(jr.body)+1))
		w.Header().Set("X-Job-Id", j.ID)
		w.Header().Set("X-Cache", jr.cacheHeader())
		if jr.degraded {
			// Deadline pressure forced a cheaper engine; the body carries
			// degraded:true and the header lets clients spot it without
			// parsing. Still a 200: the result is usable.
			w.Header().Set("X-Degraded", "true")
		}
		w.WriteHeader(http.StatusOK)
		w.Write(jr.body)
		w.Write(newline)
	case JobCanceled:
		w.Header().Set("X-Job-Id", j.ID)
		writeErrKind(w, http.StatusGatewayTimeout, kind, "job %s canceled: %s", j.ID, errMsg)
	default:
		code := http.StatusUnprocessableEntity
		if kind == ErrKindPanic {
			// A panic is the server's bug, not the request's fault.
			code = http.StatusInternalServerError
		}
		w.Header().Set("X-Job-Id", j.ID)
		writeErrKind(w, code, kind, "job %s failed: %s", j.ID, errMsg)
	}
}

// newline ends every job response body (see jobResult.body).
var newline = []byte{'\n'}

// ---- /v1/flow ----

type flowRequest struct {
	// Bench names a built-in Table 1 benchmark; Source provides an inline
	// netlist instead (Format "bench" or "verilog").
	Bench  string `json:"bench,omitempty"`
	Source string `json:"source,omitempty"`
	Format string `json:"format,omitempty"`
	Name   string `json:"name,omitempty"`
	// Engine is "auto" (default), "exact", or "ortho".
	Engine string `json:"engine,omitempty"`
	// MaxArea / ConflictBudget tune the exact engine.
	MaxArea        int   `json:"max_area,omitempty"`
	ConflictBudget int64 `json:"conflict_budget,omitempty"`
	// SQD / Report request the SiQAD file and the stage report.
	SQD    bool `json:"sqd,omitempty"`
	Report bool `json:"report,omitempty"`
	// Defects describes surface defects to design around (nil = pristine).
	Defects *defectsSpec `json:"defects,omitempty"`
	// TimeoutMS shortens the job deadline; NoCache bypasses the result
	// cache; Async returns 202 with a job ID instead of waiting.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	NoCache   bool  `json:"nocache,omitempty"`
	Async     bool  `json:"async,omitempty"`
}

func (s *Server) parseSpec(req *flowRequest) (*network.XAG, error) {
	switch {
	case req.Bench != "" && req.Source != "":
		return nil, fmt.Errorf("bench and source are mutually exclusive")
	case req.Bench != "":
		return bench.Load(req.Bench)
	case req.Source == "":
		return nil, fmt.Errorf("one of bench or source is required")
	case req.Format == "verilog":
		return bench.ParseVerilog(req.Source)
	case req.Format == "" || req.Format == "bench":
		name := req.Name
		if name == "" {
			name = "inline"
		}
		return bench.ParseBench(name, req.Source)
	default:
		return nil, fmt.Errorf("unknown format %q (want bench or verilog)", req.Format)
	}
}

// prepareFlow validates a flow request and packages it as a preparedOp.
func (s *Server) prepareFlow(req *flowRequest) (*preparedOp, error) {
	spec, err := s.parseSpec(req)
	if err != nil {
		return nil, err
	}
	engine, err := core.ParseEngine(req.Engine)
	if err != nil {
		return nil, err
	}
	surf, err := req.Defects.surface()
	if err != nil {
		return nil, err
	}
	baseOpts := core.Options{Engine: engine, Surface: surf}
	baseOpts.Exact.MaxArea = req.MaxArea
	baseOpts.Exact.ConflictBudget = req.ConflictBudget

	var key cache.Key
	if !req.NoCache {
		key = cache.FlowKey(spec, baseOpts, req.SQD, req.Report)
	}
	sqd, report := req.SQD, req.Report
	op := &preparedOp{kind: "flow", key: key, timeoutMS: req.TimeoutMS, async: req.Async}
	op.compute = func(ctx context.Context, jtr *obs.Tracer) (*jobResult, []byte, error) {
		opts := baseOpts
		opts.Tracer = jtr
		art, err := cache.RunFlow(ctx, spec, opts, sqd, report)
		if err != nil {
			return nil, nil, err
		}
		entry, err := json.Marshal(art)
		if err != nil {
			return nil, nil, err
		}
		return &jobResult{body: entry, degraded: art.Degraded}, entry, nil
	}
	// A hit serves the entry's own bytes. A memory entry was checked when
	// it entered the process (computed here or read from disk), so only a
	// disk entry is decoded, and one that is not a FlowArtifact is a miss.
	op.replay = func(source string, entry []byte) (*jobResult, error) {
		if source != cache.SourceMem {
			if err := cache.CheckFlowEntry(entry); err != nil {
				return nil, err
			}
		}
		return &jobResult{body: entry}, nil
	}
	return op, nil
}

// ---- /v1/simulate ----

type dotRequest struct {
	X    int    `json:"x"`
	Y    int    `json:"y"`
	Role string `json:"role,omitempty"`
}

// solveRequest is the part of a simulate or validate request that picks
// the physics and the ground-state engine.
type solveRequest struct {
	// Params are the physical parameters (default: the paper's Fig. 5).
	Params *struct {
		MuMinus  float64 `json:"mu_minus"`
		EpsR     float64 `json:"eps_r"`
		LambdaTF float64 `json:"lambda_tf"`
	} `json:"params,omitempty"`
	// Solver names the ground-state engine (default: Config.Solver).
	Solver string `json:"solver,omitempty"`
}

// solve resolves the request's physical parameters and its solver, which
// defaults to the server's.
func (r *solveRequest) solve(s *Server) (sim.Params, string, sim.GroundStateSolver, error) {
	params := sim.ParamsFig5
	if r.Params != nil {
		params = sim.Params{MuMinus: r.Params.MuMinus, EpsR: r.Params.EpsR, LambdaTF: r.Params.LambdaTF}
	}
	name := r.Solver
	if name == "" {
		name = s.cfg.Solver
	}
	solver, err := sim.Lookup(name)
	return params, name, solver, err
}

type simulateRequest struct {
	// Gate names a library tile by variant key (see GET /v1/gates); Dots
	// gives an explicit layout instead.
	Gate string       `json:"gate,omitempty"`
	Dots []dotRequest `json:"dots,omitempty"`
	solveRequest
	// Defects adds charged surface defects as fixed perturbers (nil =
	// pristine surface).
	Defects   *defectsSpec `json:"defects,omitempty"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
	Async     bool         `json:"async,omitempty"`
}

type simulateResponse struct {
	Solver   string  `json:"solver"`
	Exact    bool    `json:"exact"`
	Dots     int     `json:"dots"`
	FreeDots int     `json:"free_dots"`
	EnergyEV float64 `json:"energy_ev"`
	// Defects counts the charged surface defects simulated as fixed
	// perturbers (omitted when pristine).
	Defects int `json:"defects,omitempty"`
	// Degraded reports that the deadline forced a cheaper engine than
	// requested; the result is best-effort, not provably minimal.
	Degraded bool `json:"degraded,omitempty"`
	// Charges[i] is 1 when dot i (request order) is DB- in the ground
	// state. Defect pseudo-dots are not reported.
	Charges []int `json:"charges"`
}

func parseRole(role string) (sidb.Role, error) {
	switch role {
	case "", "normal":
		return sidb.RoleNormal, nil
	case "perturber":
		return sidb.RolePerturber, nil
	case "input":
		return sidb.RoleInput, nil
	case "output":
		return sidb.RoleOutput, nil
	default:
		return 0, fmt.Errorf("unknown dot role %q", role)
	}
}

func (s *Server) simLayout(req *simulateRequest) (*sidb.Layout, error) {
	switch {
	case req.Gate != "" && len(req.Dots) > 0:
		return nil, fmt.Errorf("gate and dots are mutually exclusive")
	case req.Gate != "":
		d, _, ok := s.lib.Design(req.Gate)
		if !ok {
			return nil, fmt.Errorf("unknown gate %q (see GET /v1/gates)", req.Gate)
		}
		return d.Layout(0, 0), nil
	case len(req.Dots) == 0:
		return nil, fmt.Errorf("one of gate or dots is required")
	default:
		l := &sidb.Layout{Name: "request"}
		for _, d := range req.Dots {
			role, err := parseRole(d.Role)
			if err != nil {
				return nil, err
			}
			l.Add(lattice.FromCell(d.X, d.Y), role)
		}
		return l, nil
	}
}

// prepareSimulate validates a simulate request and packages it as a
// preparedOp, computing the canonical sim key up front for routing.
func (s *Server) prepareSimulate(req *simulateRequest) (*preparedOp, error) {
	layout, err := s.simLayout(req)
	if err != nil {
		return nil, err
	}
	params, _, inner, err := req.solve(s)
	if err != nil {
		return nil, err
	}
	surf, err := req.Defects.surface()
	if err != nil {
		return nil, err
	}
	// Cache outside the ladder: warm hits skip the degradation logic
	// entirely, and degraded solutions are never stored, so cached entries
	// are always full-quality.
	degrading := &sim.Degrading{Inner: inner, Tracer: s.tr}
	keyEng := sim.NewEngineOn(layout, params, surf)
	key, order := cache.SimKey(keyEng, degrading.Name())
	// Report layout dots only: defect pseudo-dots sit past index
	// NumLayoutDots-1 and are an implementation detail of the engine.
	nl, defectDots, freeDots := keyEng.NumLayoutDots(), keyEng.NumDots()-keyEng.NumLayoutDots(), len(keyEng.FreeIndices())
	respond := func(sol sim.Solution) (*jobResult, error) {
		resp := simulateResponse{
			Solver:   sol.Solver,
			Exact:    sol.Exact,
			Dots:     nl,
			FreeDots: freeDots,
			EnergyEV: sol.EnergyEV,
			Defects:  defectDots,
			Degraded: sol.Degraded,
			Charges:  make([]int, nl),
		}
		for i, c := range sol.Charges[:nl] {
			if c {
				resp.Charges[i] = 1
			}
		}
		jr, err := jsonResult(resp)
		if err != nil {
			return nil, err
		}
		jr.degraded, jr.solver = sol.Degraded, sol.Solver
		return jr, nil
	}

	op := &preparedOp{kind: "simulate", key: key, timeoutMS: req.TimeoutMS, async: req.Async, span: "simulate",
		attrs: []obs.Attr{{Key: "dots", Value: keyEng.NumDots()}}}
	if defectDots > 0 {
		op.attrs = append(op.attrs, obs.Attr{Key: "defect_dots", Value: defectDots})
	}
	op.compute = func(ctx context.Context, jtr *obs.Tracer) (*jobResult, []byte, error) {
		sol, err := degrading.Solve(sim.NewEngineOn(layout, params, surf), sim.SolveOptions{Ctx: ctx, Tracer: jtr})
		if err != nil {
			return nil, nil, err
		}
		jr, err := respond(sol)
		if err != nil {
			return nil, nil, err
		}
		return jr, cache.EncodeSolution(sol, order), nil
	}
	op.replay = func(_ string, entry []byte) (*jobResult, error) {
		sol, err := cache.DecodeSolution(entry, order)
		if err != nil {
			return nil, err
		}
		if err := knownEngine(sol.Solver); err != nil {
			return nil, err
		}
		return respond(sol)
	}
	return op, nil
}

// ---- /v1/gates and /v1/gates/validate ----

type validateRequest struct {
	Gate string `json:"gate"`
	solveRequest
	// Defects places surface defects in tile-local coordinates (the
	// gate's own frame, matching GET /v1/gates geometry).
	Defects   *defectsSpec `json:"defects,omitempty"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
}

type validateResponse struct {
	Gate     string  `json:"gate"`
	OK       bool    `json:"ok"`
	Outputs  []int   `json:"outputs"`
	MinGapEV float64 `json:"min_gap_ev"`
	Method   string  `json:"method"`
	// FailKind distinguishes why a gate failed: "defect_blocked" when the
	// gate is correct on a pristine surface but broken by the requested
	// defects, "logic" otherwise. Empty on success.
	FailKind string `json:"fail_kind,omitempty"`
	// DefectBlocked mirrors FailKind == "defect_blocked".
	DefectBlocked bool `json:"defect_blocked,omitempty"`
}

// prepareValidate validates a gate-validation request and packages it as
// a preparedOp.
func (s *Server) prepareValidate(req *validateRequest) (*preparedOp, error) {
	d, f, ok := s.lib.Design(req.Gate)
	if !ok {
		return nil, fmt.Errorf("unknown gate %q (see GET /v1/gates)", req.Gate)
	}
	params, solverName, solver, err := req.solve(s)
	if err != nil {
		return nil, err
	}
	surf, err := req.Defects.surface()
	if err != nil {
		return nil, err
	}
	truth := gatelib.TruthOf(f)
	key := cache.ValidationKey(d, truth, params, solverName, surf)
	gate := req.Gate
	respond := func(v gatelib.Validation) (*jobResult, error) {
		return jsonResult(validateResponse{
			Gate: gate, OK: v.OK, Outputs: v.Outputs,
			MinGapEV: v.MinGapEV, Method: v.Method,
			FailKind: v.FailKind, DefectBlocked: v.FailKind == gatelib.FailDefectBlocked,
		})
	}

	op := &preparedOp{kind: "validate", key: key, timeoutMS: req.TimeoutMS, span: "validate",
		attrs: []obs.Attr{{Key: "gate", Value: gate}}}
	op.compute = func(ctx context.Context, jtr *obs.Tracer) (*jobResult, []byte, error) {
		v, err := gatelib.ValidateWith(d, truth, params, gatelib.ValidateOptions{Solver: solverName, Surface: surf, Ctx: ctx})
		if err != nil {
			return nil, nil, err
		}
		jr, err := respond(v)
		if err != nil {
			return nil, nil, err
		}
		// An exact solver that failed on a pattern fell back to QuickSim:
		// served as degraded, never cached under the exact solver's key.
		// A defect-blocked validation runs no solver and names none; it is
		// a full answer.
		jr.degraded = solver.IsExact() && v.Method == "quicksim"
		// The cached value is the full Validation, including the
		// per-pattern outputs and the minimum energy gap.
		entry, err := json.Marshal(v)
		return jr, entry, err
	}
	op.replay = func(_ string, entry []byte) (*jobResult, error) {
		var v gatelib.Validation
		if err := json.Unmarshal(entry, &v); err != nil {
			return nil, err
		}
		if err := knownEngine(v.Method); err != nil {
			return nil, err
		}
		return respond(v)
	}
	return op, nil
}

// knownEngine rejects a cached answer produced by an engine this build no
// longer has (an annealed `auto` entry on a disk cache written before
// QuickSim), so the tier reads as a miss and the re-solved answer
// replaces it. The cache key names only the requested solver, which is
// unchanged.
func knownEngine(name string) error {
	_, err := sim.Lookup(name)
	return err
}

func (s *Server) handleGates(w http.ResponseWriter, r *http.Request) {
	keys := s.lib.Variants()
	sort.Strings(keys)
	writeJSON(w, http.StatusOK, map[string]any{"gates": keys})
}

// ---- jobs, health, metrics ----

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeErrKind(w, http.StatusNotFound, ErrKindNotFound, "no such job")
		return
	}
	st := j.Snapshot()
	out := map[string]any{"job": st}
	if jr, _ := j.Result(); jr != nil {
		out["cache"] = jr.cacheHeader()
		out["result"] = json.RawMessage(jr.body)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeErrKind(w, http.StatusNotFound, ErrKindNotFound, "no such job")
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

// handleJobTrace serves the per-job stage timeline: the RunReport of the
// job's tracer (span tree with durations and attributes, including the
// request_id of the request that submitted it, plus any solver metrics
// the stages recorded). A running job reports its elapsed stages so far.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeErrKind(w, http.StatusNotFound, ErrKindNotFound, "no such job")
		return
	}
	jtr := j.Tracer()
	if jtr == nil {
		writeErrKind(w, http.StatusNotFound, ErrKindNotFound, "no trace recorded for job %s", j.ID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job":   j.Snapshot(),
		"trace": jtr.Report(j.ID),
	})
}

// handleFlightRecorder serves the flight-recorder summary: retention
// counts per class, sampling policy, and the headers of every retained
// trace (newest first). Full traces are at /v1/traces/{id}.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.flight.Summary())
}

// handleTraceGet serves a retained trace by job id OR request id. It
// prefers the flight recorder (which outlives the job history), then the
// recorder's request-id index, then live jobs.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if t, ok := s.localTrace(id); ok {
		writeJSON(w, http.StatusOK, t)
		return
	}
	writeErrKind(w, http.StatusNotFound, ErrKindNotFound, "no retained trace for %s", id)
}

// localTrace resolves id against every local trace store, in durability
// order: flight recorder by trace id, flight recorder by request id, live
// jobs by job id, live jobs by request id.
func (s *Server) localTrace(id string) (flight.Trace, bool) {
	if t, ok := s.flight.Get(id); ok {
		return t, true
	}
	if t, ok := s.flight.GetByRequestID(id); ok {
		return t, true
	}
	if j, ok := s.queue.Get(id); ok {
		return jobTrace(j), true
	}
	if j, ok := s.queue.GetByRequestID(id); ok {
		return jobTrace(j), true
	}
	return flight.Trace{}, false
}

// jobTrace renders a job in the flight recorder's Trace shape: the record
// the recorder keeps of a finished job, and the answer for a job still in
// the queue's history, so every trace lookup speaks one type.
func jobTrace(j *Job) flight.Trace {
	st := j.Snapshot()
	t := flight.Trace{
		ID:        j.ID,
		Kind:      j.Kind,
		State:     string(st.State),
		ErrorKind: st.ErrorKind,
		Degraded:  st.ErrorKind == ErrKindDegraded,
		RequestID: j.RequestID(),
		StartedAt: j.CreatedAt(),
		Seconds:   j.RunSeconds(),
	}
	if jtr := j.Tracer(); jtr != nil {
		t.Report = jtr.Report(j.ID)
	}
	return t
}

// handleHealthz reports liveness plus an operational snapshot: queue and
// worker state, lifetime request latency percentiles derived from the
// Prometheus histograms, a rolling-window latency/error view of the most
// recent requests, and the draining state. While draining it answers 503
// so load balancers stop routing to an instance that is shutting down.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	draining := s.queue.Draining()
	code := http.StatusOK
	if draining {
		code = http.StatusServiceUnavailable
	}

	// Merge the per-route request-duration histograms (identical bounds)
	// into lifetime percentiles.
	var bounds []float64
	var counts []int64
	var reqTotal, errs5xx int64
	if rep := s.tr.Report("healthz"); rep != nil {
		for name, m := range rep.Metrics {
			switch {
			case m.Type == "histogram" && strings.HasPrefix(name, "http/request_duration_seconds{"):
				if bounds == nil {
					bounds = m.Bounds
					counts = append([]int64(nil), m.Buckets...)
				} else if len(m.Buckets) == len(counts) {
					for i, c := range m.Buckets {
						counts[i] += c
					}
				}
			case m.Type == "counter" && strings.HasPrefix(name, "http/requests_total{"):
				reqTotal += int64(m.Value)
				if strings.Contains(name, `code="5`) {
					errs5xx += int64(m.Value)
				}
			}
		}
	}
	var obsCount int64
	for _, c := range counts {
		obsCount += c
	}
	win := s.window.Snapshot()
	sat := s.saturation()
	out := map[string]any{
		"ok":             !draining,
		"draining":       draining,
		"uptime_seconds": time.Since(s.started).Seconds(),
		"workers":        sat.Workers,
		"queue_depth":    sat.QueueDepth,
		"jobs_running":   sat.JobsRunning,
		"requests": map[string]any{
			"total":      reqTotal,
			"errors_5xx": errs5xx,
			"in_flight":  s.inFlight.Load(),
		},
		// Saturation is what admission control keys on and what load
		// balancers read: how full the queue+workers are and which cost
		// classes are currently being shed.
		// The map, not the struct, keeps "shedding" present when empty.
		"saturation": map[string]any{
			"queue_depth":    sat.QueueDepth,
			"queue_capacity": sat.QueueCapacity,
			"jobs_running":   sat.JobsRunning,
			"workers":        sat.Workers,
			"in_flight":      sat.InFlight,
			"utilization":    sat.Utilization,
			"shedding":       sat.Shedding,
		},
		"latency": map[string]any{
			"count":  obsCount,
			"p50_ms": 1e3 * obs.QuantileFromBuckets(bounds, counts, 0.50),
			"p90_ms": 1e3 * obs.QuantileFromBuckets(bounds, counts, 0.90),
			"p99_ms": 1e3 * obs.QuantileFromBuckets(bounds, counts, 0.99),
		},
		"window": map[string]any{
			"size":       win.Size,
			"errors":     win.Errors,
			"error_rate": win.ErrorRate,
			"p50_ms":     1e3 * win.P50,
			"p90_ms":     1e3 * win.P90,
			"p99_ms":     1e3 * win.P99,
		},
		"slo": s.slo.Snapshot(),
	}
	writeJSON(w, code, out)
}

// metricHelp maps sanitized Prometheus family names to their HELP text.
var metricHelp = map[string]string{
	"http_requests_total":                "HTTP requests by method, normalized route, and status code.",
	"http_request_duration_seconds":      "HTTP request latency in seconds by normalized route.",
	"http_in_flight_requests":            "Requests currently being served.",
	"queue_submitted":                    "Jobs accepted into the queue.",
	"queue_completed":                    "Jobs that finished successfully.",
	"queue_failed":                       "Jobs that finished with an error.",
	"queue_canceled":                     "Jobs canceled or timed out.",
	"queue_rejected":                     "Jobs rejected with 429 because the queue was full.",
	"queue_depth":                        "Queued-but-not-running jobs (sampled at enqueue/dequeue).",
	"queue_depth_now":                    "Queued-but-not-running jobs at scrape time.",
	"queue_running":                      "Jobs currently executing on the worker pool.",
	"queue_wait_seconds":                 "Time jobs spent queued before a worker picked them up.",
	"job_duration_seconds":               "Job execution time by kind (flow, simulate, validate).",
	"flow_stage_seconds":                 "Per-stage latency aggregated across jobs (rewrite, pnr, verify, simulate, ...).",
	"sim_solve_seconds":                  "Ground-state solve latency by solver backend (cache misses only).",
	"cache_mem_hits":                     "In-memory result cache hits.",
	"cache_mem_misses":                   "In-memory result cache misses.",
	"cache_mem_evictions":                "In-memory result cache evictions.",
	"cache_mem_bytes":                    "Bytes held by the in-memory result cache.",
	"cache_mem_entries":                  "Entries held by the in-memory result cache.",
	"cache_mem_hit_rate":                 "Lifetime hit rate of the in-memory result cache.",
	"jobs_panicked_total":                "Jobs whose function panicked; the worker recovered and recorded the job as failed.",
	"sim_degraded_total":                 "Ground-state solves degraded to a cheaper engine by deadline pressure, by from/to.",
	"flow_degraded_total":                "Flow runs whose physical design degraded to the ortho router under deadline pressure.",
	"cache_disk_breaker_state":           "Disk-cache circuit breaker state: 0 closed, 1 half-open, 2 open (memory-only).",
	"cache_disk_breaker_trips_total":     "Times the disk-cache breaker tripped open.",
	"cache_disk_retries_total":           "Disk-cache operations retried after a transient failure.",
	"cache_disk_io_errors_total":         "Disk-cache I/O failures (each attempt, before retry).",
	"cache_disk_short_circuits_total":    "Disk-cache operations skipped because the breaker was open.",
	"faults_armed":                       "1 when the fault-injection registry is armed (chaos testing), else absent.",
	"slo_burn_rate":                      "Error-budget burn rate per objective and window (1 = burning exactly the budget).",
	"slo_budget_remaining":               "Lifetime error-budget fraction remaining per objective (negative = overspent).",
	"flight_admitted_total":              "Traces admitted to the flight recorder, by retention class.",
	"flight_dropped_total":               "Fast-OK traces not sampled by the flight recorder.",
	"flight_evicted_total":               "Traces evicted from a full flight-recorder ring, by class.",
	"flight_retained":                    "Traces currently retained by the flight recorder, by class.",
	"sat_conflicts_per_solve":            "SAT solver conflicts per solve call, by stage.",
	"sat_decisions_per_solve":            "SAT solver decisions per solve call, by stage.",
	"sat_propagations_per_solve":         "SAT solver unit propagations per solve call, by stage.",
	"sat_restarts_per_solve":             "SAT solver restarts per solve call, by stage.",
	"pnr_exact_size_solve_seconds":       "Exact P&R per-aspect-ratio SAT solve time, by stage.",
	"cluster_singleflight_merged_total":  "Executions that coalesced onto another identical in-flight execution.",
	"cluster_singleflight_rerun_total":   "Coalesced executions retried under the joiner's own deadline after the starter's shorter deadline expired.",
	"admission_shed_total":               "Requests shed by cost-class admission control, by class.",
	"admission_utilization":              "Queue+worker utilization sampled at admission decisions (1 = saturated).",
	"jobs_cold_solves_total":             "Jobs that performed real local computation (no cache tier or coalescing served them), by kind.",
	"batch_items_total":                  "Batch sub-requests by outcome (ok/error).",
	"batch_deduped_total":                "Batch sub-requests answered by another identical item in the same batch.",
	"journal_appends_total":              "Job lifecycle events appended to the write-ahead journal.",
	"journal_syncs_total":                "Journal fsyncs by appends and rotations: submitted, finished and canceled events are synced; a started event rides on the next sync.",
	"journal_append_errors_total":        "Journal appends that failed (durability degraded; the job still ran).",
	"journal_rotations_total":            "Journal segment rotations (each compacts completed jobs away).",
	"journal_torn_tails_truncated_total": "Torn journal tails (half-written final records) truncated on open.",
	"journal_replay_skipped_total":       "Journal records skipped during replay (undecodable or fault-injected).",
	"journal_segments":                   "Journal segments currently on disk.",
	"journal_recovered_total":            "Jobs recovered from the journal at startup, by outcome (completed/resubmitted/interrupted).",
	"cache_disk_corrupt_total":           "Disk-cache entries that failed checksum verification and were quarantined as *.corrupt.",
	"idempotency_replayed_total":         "Requests answered by replaying an earlier submission with the same Idempotency-Key.",
}

// handleMetrics renders every tracer metric in the Prometheus text
// exposition format: counters and gauges as single series, histograms
// with full cumulative _bucket/_sum/_count series (the previous ad-hoc
// renderer silently dropped all bucket data). Point-in-time cache and
// queue gauges are refreshed just before rendering.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.lru.Stats()
	s.tr.Gauge("cache/mem/hit_rate").Set(st.HitRate())
	s.tr.Gauge("queue/depth_now").Set(float64(s.queue.Depth()))
	s.slo.Export(s.tr)
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	s.tr.WriteExposition(w, metricHelp)
}
