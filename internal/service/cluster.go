package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/obslog"
)

// clusterPeerHeader tells the client which replica actually served a
// forwarded request.
const clusterPeerHeader = "X-Cluster-Peer"

// routeCluster forwards a compute request to the replica that owns its
// cache key, so identical requests landing anywhere in the fleet converge
// on one replica — where the local single-flight group collapses them
// onto one solve and the local cache serves everyone afterwards.
//
// Forwarding is skipped (returns false; caller handles locally) when: the
// fleet is disabled, the op has no cache key (nocache/bypass), the
// request was already forwarded once (loop prevention), this replica owns
// the key, or the entry is already warm in the local memory cache (warm
// hits are cheaper served here than over the wire). A transport failure
// also falls back to local handling — the fleet degrades to independent
// replicas, never to unavailability.
//
// The forward is bounded by the same deadline the owner would apply to
// the job (timeout_ms clamped to JobTimeout) plus slack for queueing and
// transfer: an owner that accepts the connection but never answers (a
// stopped process holds its listener open, invisible to probes until the
// next round) must time out into the local fallback, not hang the client
// — local execution is deadline-bounded, so forwarding must be too.
func (s *Server) routeCluster(w http.ResponseWriter, r *http.Request, op *preparedOp, body []byte) bool {
	if s.node == nil || op.key == "" {
		return false
	}
	if r.Header.Get(cluster.ForwardedHeader) != "" {
		return false
	}
	owner, self := s.node.Owner(string(op.key))
	if self || owner == "" {
		return false
	}
	if s.lru.Contains(op.key) {
		return false
	}
	ctx := r.Context()
	if d := s.forwardTimeout(op.timeoutMS); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+owner+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	rid := obs.RequestIDFromContext(r.Context())
	fwdSpan := "forward-" + cluster.NewHopID()
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardedHeader, s.node.Self())
	req.Header.Set(cluster.ParentSpanHeader, fwdSpan)
	req.Header.Set(cluster.HopHeader, "1")
	if rid != "" {
		req.Header.Set(cluster.RequestIDHeader, rid)
	}
	if ik := idempotencyKey(r); ik != "" {
		// The key travels with the forward so the mapping lands on the
		// key's owner replica — where every retry of this request, from
		// any entry replica, converges.
		req.Header.Set(IdempotencyKeyHeader, ik)
	}
	start := time.Now()
	resp, err := s.node.Client().Do(req)
	if err != nil {
		outcome := "error"
		if errors.Is(err, context.DeadlineExceeded) {
			outcome = "timeout"
		}
		s.tr.Counter(obs.Labeled("cluster/forwarded_total", "outcome", outcome)).Inc()
		// No entry-side flight record here: the local fallback job runs next
		// and records under the same request id with the real outcome.
		return false
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "X-Cache", "X-Degraded", "X-Job-Id", "Retry-After", idempotentReplayHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(clusterPeerHeader, owner)
	w.WriteHeader(resp.StatusCode)
	errKind := ""
	if resp.StatusCode >= 400 {
		// Buffer the (bounded) error body so the owner's error_kind can be
		// recorded on this side too, then relay the bytes unchanged.
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		w.Write(b)
		errKind = errorKindFromBody(b, resp.StatusCode)
	} else {
		io.Copy(w, resp.Body)
	}
	s.tr.Counter(obs.Labeled("cluster/forwarded_total", "outcome", "ok")).Inc()
	s.recordForward(op, owner, rid, fwdSpan, errKind, resp, start)
	return true
}

// errorKindFromBody extracts the error_kind from an owner's JSON error
// payload, falling back to a status-derived kind so the entry replica
// still classifies opaque failures.
func errorKindFromBody(b []byte, status int) string {
	var e struct {
		ErrorKind string `json:"error_kind"`
	}
	if err := json.Unmarshal(b, &e); err == nil && e.ErrorKind != "" {
		return e.ErrorKind
	}
	if status == http.StatusGatewayTimeout {
		return ErrKindTimeout
	}
	return ErrKindError
}

// recordForward retains the entry replica's view of a forwarded request in
// the local flight recorder: a one-stage synthetic trace ("fwd-"+rid, so
// it can never collide with local j%08d job ids) whose stage attributes
// name the owner, the hop index, and the parent span the owner's trace
// nests under. A forwarded panic or timeout therefore lands in the ENTRY
// replica's error ring too — the replica the client actually talked to —
// and GET /v1/traces/{rid} here finds the stub and federates for the
// owner's half.
func (s *Server) recordForward(op *preparedOp, owner, rid, fwdSpan, errKind string, resp *http.Response, start time.Time) {
	if s.flight == nil || rid == "" {
		return
	}
	elapsed := time.Since(start).Seconds()
	state := "done"
	if errKind != "" {
		state = "failed"
	}
	degraded := resp.Header.Get("X-Degraded") == "true"
	s.flight.Record(flight.Trace{
		ID:        "fwd-" + rid,
		Kind:      op.kind,
		State:     state,
		ErrorKind: errKind,
		Degraded:  degraded,
		RequestID: rid,
		StartedAt: start,
		Seconds:   elapsed,
		Report: &obs.RunReport{
			Name:        "fwd-" + rid,
			StartedAt:   start,
			WallSeconds: elapsed,
			Stages: []*obs.StageReport{{
				Name:    "forward",
				Seconds: elapsed,
				Attrs: map[string]any{
					"peer":       owner,
					"hop":        1,
					"span_id":    fwdSpan,
					"forwarded":  true,
					"status":     resp.StatusCode,
					"request_id": rid,
				},
			}},
		},
	})
}

// forwardSlack is the headroom a forwarded request gets beyond the job
// deadline the owner will apply, covering the owner's queue wait and the
// response transfer. A var so tests can shrink it.
var forwardSlack = 2 * time.Second

// forwardTimeout returns the deadline budget for one forwarded request:
// the job timeout the owner replica would apply (jobTimeout) plus
// forwardSlack. Zero means no bound is configured anywhere — the
// operator ran the daemon without deadlines, and forwarding inherits
// that choice.
func (s *Server) forwardTimeout(timeoutMS int64) time.Duration {
	t := s.jobTimeout(timeoutMS)
	if t <= 0 {
		return 0
	}
	return t + forwardSlack
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
				obslog.F("kind", op.kind),
				obslog.F("request_id", obs.RequestIDFromContext(ctx)))
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

// runCoalesced executes the op through the fleet single-flight group
// when the op has a cache key: concurrent identical executions — from
// direct requests, forwarded requests, and batch items alike — collapse
// onto one run whose result every participant shares byte for byte. A
// caller whose context ends leaves without failing the others; the run
// itself is abandoned only when its last participant is gone.
func (s *Server) runCoalesced(ctx context.Context, op *preparedOp, jtr *obs.Tracer) (*jobResult, error) {
	if op.key == "" {
		// Keyless ops (nocache, custom library) skip coalescing but still
		// need the panic guard: batch fan-out reaches here on pool
		// goroutines, and one item's panic must not fail its siblings.
		return s.safeExec(ctx, op, jtr)
	}
	fn := func(runCtx context.Context) (any, error) {
		jr, err := s.safeExec(runCtx, op, jtr)
		if err != nil {
			// Untyped nil: a typed-nil *jobResult inside the any would pass
			// the type assertion below.
			return nil, err
		}
		return jr, nil
	}
	v, shared, err := s.single.Do(ctx, string(op.key), fn)
	if err != nil && shared && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		// The run this caller joined inherited its starter's deadline,
		// which may have been shorter than ours: the starter timing out
		// must not fail a joiner that still has budget. Retry once under
		// our own deadline (the fresh run may itself be joined by others).
		s.tr.Counter("cluster/singleflight_rerun_total").Inc()
		v, shared, err = s.single.Do(ctx, string(op.key), fn)
	}
	if err != nil {
		return nil, err
	}
	jr := v.(*jobResult)
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

// ---- /internal/cache/{key}: the peer-cache protocol endpoint ----

// validCacheKey checks the canonical key shape (tag:hex64) so the
// internal endpoint never touches the cache with attacker-shaped keys.
func validCacheKey(k string) bool {
	tag, hex, ok := strings.Cut(k, ":")
	if !ok || len(hex) != 64 {
		return false
	}
	switch tag {
	case "sim", "flow", "gate", "xag":
	default:
		return false
	}
	for i := 0; i < len(hex); i++ {
		c := hex[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// authorizeInternal guards the peer-cache endpoint: shared secret when
// the fleet has one, loopback-only otherwise.
func (s *Server) authorizeInternal(r *http.Request) bool {
	secret := ""
	if s.node != nil {
		secret = s.node.Secret()
	}
	return cluster.AuthorizeInternal(r, secret)
}

// handleInternalCacheGet serves raw cache entries to peers from the local
// tiers (see cache.Tiers.Peek): memory without promotion, then disk, so
// entries that aged out of memory or predate a restart still serve.
func (s *Server) handleInternalCacheGet(w http.ResponseWriter, r *http.Request) {
	if !s.authorizeInternal(r) {
		writeErr(w, http.StatusForbidden, "cluster secret required")
		return
	}
	key := r.PathValue("key")
	if !validCacheKey(key) {
		writeErr(w, http.StatusBadRequest, "malformed cache key")
		return
	}
	b, ok := s.tiers.Peek(r.Context(), cache.Key(key))
	if !ok {
		writeErrKind(w, http.StatusNotFound, ErrKindNotFound, "no cache entry")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// maxInternalEntryBytes bounds one pushed cache entry.
const maxInternalEntryBytes = 8 << 20

// handleInternalCachePut stores a pushed cache entry from a peer in the
// local tiers. Peers only push non-degraded results (the tiers never
// store degraded ones at the source), so nothing accepted here can serve
// a reduced-quality answer.
func (s *Server) handleInternalCachePut(w http.ResponseWriter, r *http.Request) {
	if !s.authorizeInternal(r) {
		writeErr(w, http.StatusForbidden, "cluster secret required")
		return
	}
	key := r.PathValue("key")
	if !validCacheKey(key) {
		writeErr(w, http.StatusBadRequest, "malformed cache key")
		return
	}
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxInternalEntryBytes))
	if err != nil {
		// Only an actual size overrun is a 413; a peer disconnecting or a
		// transport read error is a plain bad request (mirroring readBody),
		// so logs and peer metrics don't misreport entry sizes.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				"cache entry exceeds %d bytes", mbe.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	s.tiers.PutLocal(r.Context(), cache.Key(key), b)
	w.WriteHeader(http.StatusNoContent)
}
