package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/pool"
)

// maxBatchItems bounds one batch so a single request cannot monopolize
// the worker pool indefinitely.
const maxBatchItems = 64

// batchConcurrency bounds how many unique sub-requests one batch job
// executes at once. The batch occupies a single worker slot; this is its
// internal fan-out width.
const batchConcurrency = 4

type batchItem struct {
	// Op selects the sub-request type: "flow", "simulate", or "validate".
	Op string `json:"op"`
	// Request is the corresponding single-endpoint request body.
	Request json.RawMessage `json:"request"`
}

type batchRequest struct {
	Items []batchItem `json:"items"`
	// TimeoutMS is the shared deadline for the whole batch (bounded by
	// the server's job timeout, like any job).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

type batchItemResult struct {
	Index     int    `json:"index"`
	Status    string `json:"status"` // "ok" | "error"
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
	// Cache is the sub-result's source: the cache tier that served it
	// (mem, disk), miss (computed and cached), bypass (computed, not
	// cacheable), coalesced (shared another request's execution), or dedup
	// (answered by an identical item in this same batch).
	Cache    string          `json:"cache,omitempty"`
	Degraded bool            `json:"degraded,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

type batchResponse struct {
	Items []batchItemResult `json:"items"`
	// Unique is how many distinct cache keys the batch contained;
	// Deduplicated is how many items shared another item's execution.
	Unique       int `json:"unique"`
	Deduplicated int `json:"deduplicated"`
}

// batchClass is the admission class of the whole batch: its most
// expensive member class (flow > simulate > validate).
func batchClass(ops []*preparedOp) string {
	class := "validate"
	for _, op := range ops {
		if op == nil {
			continue
		}
		switch op.kind {
		case "flow":
			return "flow"
		case "simulate":
			class = "simulate"
		}
	}
	return class
}

// handleBatch canonicalizes, deduplicates, and fans out sub-requests
// inside one job with a shared deadline. Duplicate items (same canonical
// cache key) execute once and share the result; unique items run on
// internal/pool (batchConcurrency at a time), each through the
// single-flight group, so a batch coalesces with identical work from other
// requests too.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.tr.Counter("http/batch").Inc()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req batchRequest
	if !unmarshalBody(w, body, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeErr(w, http.StatusBadRequest, "batch has no items")
		return
	}
	if len(req.Items) > maxBatchItems {
		writeErr(w, http.StatusBadRequest, "batch exceeds %d items", maxBatchItems)
		return
	}

	// Parse and canonicalize every item up front, through its endpoint's
	// row of opRoutes; shape errors are per-item results, not batch
	// failures.
	n := len(req.Items)
	ops := make([]*preparedOp, n)
	results := make([]batchItemResult, n)
	for i, it := range req.Items {
		results[i] = batchItemResult{Index: i}
		var op *preparedOp
		err := fmt.Errorf("unknown op %q (want flow, simulate, or validate)", it.Op)
		if rt := findRoute(func(rt *opRoute) bool { return rt.batch && rt.kind == it.Op }); rt != nil {
			op, err = rt.prepare(s, it.Request)
		}
		if err == nil && op.async {
			err = errors.New("async is not supported inside a batch")
		}
		if err != nil {
			results[i].Status = "error"
			results[i].Error = err.Error()
			results[i].ErrorKind = ErrKindError
			continue
		}
		ops[i] = op
	}

	// Deduplicate on canonical keys: the first item with a given key is
	// its group's leader; followers share the leader's result. Keyless
	// items (nocache, custom library) always run themselves.
	leaders := make([]int, 0, n)
	followerOf := make(map[int]int, n)
	leaderByKey := make(map[string]int, n)
	for i, op := range ops {
		if op == nil {
			continue
		}
		if op.key != "" {
			if l, ok := leaderByKey[string(op.key)]; ok {
				followerOf[i] = l
				continue
			}
			leaderByKey[string(op.key)] = i
		}
		leaders = append(leaders, i)
	}

	if !s.admit(w, batchClass(ops)) {
		return
	}
	run := func(ctx context.Context, jtr *obs.Tracer) (*jobResult, error) {
		sp := jtr.Start("batch")
		sp.SetAttr("items", n)
		sp.SetAttr("unique", len(leaders))
		defer sp.End()

		type outcome struct {
			jr  *jobResult
			err error
		}
		outcomes := make([]outcome, n)
		// The pool's own context never ends: every leader runs, under the job's
		// ctx, so a warm hit still answers after the deadline has passed.
		pool.Run(context.Background(), len(leaders), batchConcurrency, "", func(_, k int) {
			i := leaders[k]
			jr, err := s.runCoalesced(ctx, ops[i], jtr)
			outcomes[i] = outcome{jr, err}
		})

		degraded := false
		okItems, errItems, deduped := 0, 0, 0
		for i := range results {
			if results[i].Status == "error" {
				errItems++
				continue
			}
			src := ""
			o := outcomes[i]
			if l, ok := followerOf[i]; ok {
				o = outcomes[l]
				src = "dedup"
				deduped++
			}
			if o.err != nil {
				results[i].Status = "error"
				results[i].Error = o.err.Error()
				results[i].ErrorKind = errorKind(o.err)
				errItems++
				continue
			}
			if src == "" {
				src = o.jr.source
			}
			results[i].Status = "ok"
			results[i].Cache = src
			results[i].Degraded = o.jr.degraded
			results[i].Result = json.RawMessage(o.jr.body)
			if o.jr.degraded {
				degraded = true
			}
			okItems++
		}
		s.tr.Counter(obs.Labeled("batch/items_total", "outcome", "ok")).Add(int64(okItems))
		s.tr.Counter(obs.Labeled("batch/items_total", "outcome", "error")).Add(int64(errItems))
		s.tr.Counter("batch/deduped_total").Add(int64(deduped))

		body, err := json.Marshal(batchResponse{
			Items:        results,
			Unique:       len(leaders),
			Deduplicated: deduped,
		})
		if err != nil {
			return nil, err
		}
		source := "miss"
		if okItems > 0 && errItems == 0 && allHits(results) {
			source = "hit"
		}
		return &jobResult{body: body, source: source, degraded: degraded}, nil
	}

	j, ok := s.submit(w, r, "batch", &JobMeta{Path: "/v1/batch", Body: body, TimeoutMS: req.TimeoutMS}, run)
	if !ok {
		return
	}
	s.await(w, r, j)
}

// allHits reports whether every successful item was served from a cache
// tier (the batch's X-Cache header).
func allHits(results []batchItemResult) bool {
	for _, r := range results {
		if r.Status != "ok" {
			continue
		}
		switch r.Cache {
		case cache.SourceMem, cache.SourceDisk, sourceCoalesced, "dedup":
		default:
			return false
		}
	}
	return true
}
