// Package flight implements a flight recorder for job traces: a bounded
// in-memory store of recent obs.RunReports with tail-based retention.
// Head-based sampling (decide at admission with a coin flip) loses
// exactly the traces an operator wants when answering "why was 14:03
// slow?" — the rare failures and the latency tail. The recorder instead
// classifies every finished trace by outcome:
//
//   - error: failed, canceled, or degraded work — always admitted;
//   - slow: successful but at or above the 90th percentile of recent OK
//     latencies — always admitted;
//   - sampled: fast and successful — admitted once every 16 traces
//     (deterministic, not random, so tests and replays agree).
//
// Each class has its own ring, so a flood of fast-OK traffic can never
// evict a retained panic trace; a ring only evicts its own oldest entry.
package flight

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Class is a retention class of the recorder.
type Class string

// Retention classes, from most to least precious.
const (
	ClassError   Class = "error"
	ClassSlow    Class = "slow"
	ClassSampled Class = "sampled"
)

// Trace is one retained job trace: outcome metadata (the retention key
// and the log-join key) plus the job's full RunReport.
type Trace struct {
	ID        string         `json:"id"`
	Kind      string         `json:"kind"`
	State     string         `json:"state"`
	ErrorKind string         `json:"error_kind,omitempty"`
	Degraded  bool           `json:"degraded,omitempty"`
	RequestID string         `json:"request_id,omitempty"`
	Class     Class          `json:"class"`
	StartedAt time.Time      `json:"started_at"`
	Seconds   float64        `json:"seconds"`
	Report    *obs.RunReport `json:"trace,omitempty"`
}

// Retention policy.
const (
	// errorCapacity, slowCapacity and sampleCapacity bound the per-class
	// rings.
	errorCapacity  = 256
	slowCapacity   = 128
	sampleCapacity = 64
	// sampleEvery admits every Nth fast-OK trace.
	sampleEvery = 16
	// slowQuantile is the recent-OK-latency quantile at or above which a
	// successful trace is always retained.
	slowQuantile = 0.90
	// warmup is the number of OK traces admitted unconditionally before
	// the slow threshold has enough samples to mean anything.
	warmup = 16
	// windowSize is the number of recent OK latencies the slow threshold
	// is computed over.
	windowSize = 256
)

// ring is a fixed-capacity FIFO of traces; pushing over capacity evicts
// the oldest entry and returns it.
type ring struct {
	buf  []*Trace
	next int
	size int
}

func (r *ring) push(t *Trace) (evicted *Trace) {
	if r.size == len(r.buf) {
		evicted = r.buf[r.next]
	} else {
		r.size++
	}
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	return evicted
}

// Recorder is the flight recorder. Safe for concurrent use.
type Recorder struct {
	tr *obs.Tracer

	mu       sync.Mutex
	rings    map[Class]*ring
	byID     map[string]*Trace
	byReq    map[string]*Trace  // latest retained trace per request id
	okWindow *obs.RollingWindow // recent OK latencies (slow threshold source)
	okSeen   int64
	fastSeen int64
	admitted map[Class]int64
	dropped  int64
	evicted  int64
}

// NewRecorder builds a recorder. tr receives flight_admitted_total /
// flight_dropped_total / flight_evicted_total counters and flight_retained
// gauges; nil disables them.
func NewRecorder(tr *obs.Tracer) *Recorder {
	return &Recorder{
		tr: tr,
		rings: map[Class]*ring{
			ClassError:   {buf: make([]*Trace, errorCapacity)},
			ClassSlow:    {buf: make([]*Trace, slowCapacity)},
			ClassSampled: {buf: make([]*Trace, sampleCapacity)},
		},
		byID:     map[string]*Trace{},
		byReq:    map[string]*Trace{},
		okWindow: obs.NewRollingWindow(windowSize),
		admitted: map[Class]int64{},
	}
}

// Record classifies and (maybe) retains a finished trace. It returns the
// assigned retention class, or "" when the trace was not sampled. A nil
// Recorder is a valid no-op.
func (r *Recorder) Record(t Trace) Class {
	if r == nil {
		return ""
	}
	tr := r.tr
	r.mu.Lock()
	class := r.classifyLocked(&t)
	if class == "" {
		r.dropped++
		r.mu.Unlock()
		tr.Counter("flight/dropped_total").Inc()
		return ""
	}
	t.Class = class
	stored := t
	if old := r.byID[stored.ID]; old != nil {
		// Re-recording an id (should not happen with queue-issued ids)
		// replaces the payload in place; the ring keeps the old slot.
		oldReq := old.RequestID
		*old = stored
		if oldReq != "" && oldReq != stored.RequestID && r.byReq[oldReq] == old {
			delete(r.byReq, oldReq)
		}
		if stored.RequestID != "" {
			r.byReq[stored.RequestID] = old
		}
		r.mu.Unlock()
		return class
	}
	r.byID[stored.ID] = &stored
	if stored.RequestID != "" {
		// Latest wins: a client may reuse one request id, which then names
		// its newest trace.
		r.byReq[stored.RequestID] = &stored
	}
	evictedOne := false
	if ev := r.rings[class].push(&stored); ev != nil {
		delete(r.byID, ev.ID)
		if ev.RequestID != "" && r.byReq[ev.RequestID] == ev {
			delete(r.byReq, ev.RequestID)
		}
		r.evicted++
		evictedOne = true
	}
	r.admitted[class]++
	retained := r.rings[class].size
	r.mu.Unlock()

	if evictedOne {
		tr.Counter(obs.Labeled("flight/evicted_total", "class", string(class))).Inc()
	}
	tr.Counter(obs.Labeled("flight/admitted_total", "class", string(class))).Inc()
	tr.Gauge(obs.Labeled("flight/retained", "class", string(class))).Set(float64(retained))
	return class
}

// classifyLocked assigns the retention class ("" = drop) and feeds the
// OK-latency window. Caller holds r.mu.
func (r *Recorder) classifyLocked(t *Trace) Class {
	if t.ErrorKind != "" || t.Degraded || t.State == "failed" || t.State == "canceled" {
		return ClassError
	}
	// Threshold from the window as it was BEFORE this trace, so a trace
	// never competes against itself.
	threshold := r.okWindow.Quantile(slowQuantile)
	warm := r.okSeen >= warmup
	r.okWindow.Observe(t.Seconds, false)
	r.okSeen++
	if warm && threshold > 0 && t.Seconds >= threshold {
		return ClassSlow
	}
	if !warm {
		return ClassSampled // everything is interesting until we can rank
	}
	r.fastSeen++
	if r.fastSeen%sampleEvery == 0 {
		return ClassSampled
	}
	return ""
}

// Get returns a copy of the retained trace with the given id.
func (r *Recorder) Get(id string) (Trace, bool) {
	if r == nil {
		return Trace{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byID[id]
	if !ok {
		return Trace{}, false
	}
	return *t, true
}

// GetByRequestID returns a copy of the most recently retained trace whose
// originating request carried the given request id.
func (r *Recorder) GetByRequestID(rid string) (Trace, bool) {
	if r == nil || rid == "" {
		return Trace{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byReq[rid]
	if !ok {
		return Trace{}, false
	}
	return *t, true
}

// TraceInfo is the Report-free header of a retained trace, for listings.
type TraceInfo struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	Class     Class     `json:"class"`
	State     string    `json:"state"`
	ErrorKind string    `json:"error_kind,omitempty"`
	Degraded  bool      `json:"degraded,omitempty"`
	RequestID string    `json:"request_id,omitempty"`
	StartedAt time.Time `json:"started_at"`
	Seconds   float64   `json:"seconds"`
}

// Summary is the recorder's operational snapshot, served by
// GET /debug/flightrecorder.
type Summary struct {
	Retained             map[Class]int   `json:"retained"`
	Capacity             map[Class]int   `json:"capacity"`
	Admitted             map[Class]int64 `json:"admitted"`
	Dropped              int64           `json:"dropped"`
	Evicted              int64           `json:"evicted"`
	SampleEvery          int             `json:"sample_every"`
	SlowQuantile         float64         `json:"slow_quantile"`
	SlowThresholdSeconds float64         `json:"slow_threshold_seconds"`
	// Traces lists every retained trace header, newest first.
	Traces []TraceInfo `json:"traces"`
}

// Summary snapshots retention state and the retained trace headers.
func (r *Recorder) Summary() Summary {
	if r == nil {
		return Summary{}
	}
	r.mu.Lock()
	s := Summary{
		Retained:             map[Class]int{},
		Capacity:             map[Class]int{},
		Admitted:             map[Class]int64{},
		Dropped:              r.dropped,
		Evicted:              r.evicted,
		SampleEvery:          sampleEvery,
		SlowQuantile:         slowQuantile,
		SlowThresholdSeconds: r.okWindow.Quantile(slowQuantile),
	}
	for c, rg := range r.rings {
		s.Retained[c] = rg.size
		s.Capacity[c] = len(rg.buf)
	}
	for c, n := range r.admitted {
		s.Admitted[c] = n
	}
	for _, t := range r.byID {
		s.Traces = append(s.Traces, TraceInfo{
			ID: t.ID, Kind: t.Kind, Class: t.Class, State: t.State,
			ErrorKind: t.ErrorKind, Degraded: t.Degraded,
			RequestID: t.RequestID, StartedAt: t.StartedAt, Seconds: t.Seconds,
		})
	}
	r.mu.Unlock()
	sort.Slice(s.Traces, func(i, j int) bool {
		if !s.Traces[i].StartedAt.Equal(s.Traces[j].StartedAt) {
			return s.Traces[i].StartedAt.After(s.Traces[j].StartedAt)
		}
		return s.Traces[i].ID > s.Traces[j].ID
	})
	return s
}
