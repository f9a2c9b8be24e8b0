package obs

import (
	"math"
	"sort"
	"sync"
)

// RollingWindow keeps the last N latency observations with an error flag
// each, for rolling-window health snapshots (cumulative histograms answer
// "since process start"; the window answers "right now"). A nil
// *RollingWindow is a valid no-op; non-nil windows are safe for
// concurrent use.
//
// Beside the ring the window keeps its latencies in sort.Float64s order,
// so Observe moves one value in and one out and Quantile and Snapshot are
// lookups, not a copy and a sort per call.
type RollingWindow struct {
	mu     sync.Mutex
	buf    []windowSample // ring in arrival order; the first len(sorted) are held
	sorted []float64      // the held latencies, ascending (NaN first)
	next   int
	errs   int // held observations flagged as errors
}

type windowSample struct {
	seconds float64
	err     bool
}

// NewRollingWindow builds a window over the last n observations (n <= 0
// defaults to 256).
func NewRollingWindow(n int) *RollingWindow {
	if n <= 0 {
		n = 256
	}
	return &RollingWindow{buf: make([]windowSample, n), sorted: make([]float64, 0, n)}
}

// Observe records one request outcome, evicting the oldest once full.
func (w *RollingWindow) Observe(seconds float64, isError bool) {
	if w == nil {
		return
	}
	w.mu.Lock()
	if len(w.sorted) == len(w.buf) {
		old := w.buf[w.next]
		i := searchSorted(w.sorted, old.seconds)
		w.sorted = append(w.sorted[:i], w.sorted[i+1:]...)
		if old.err {
			w.errs--
		}
	}
	i := searchSorted(w.sorted, seconds)
	w.sorted = append(w.sorted, 0)
	copy(w.sorted[i+1:], w.sorted[i:])
	w.sorted[i] = seconds
	if isError {
		w.errs++
	}
	w.buf[w.next] = windowSample{seconds: seconds, err: isError}
	w.next = (w.next + 1) % len(w.buf)
	w.mu.Unlock()
}

// searchSorted is the first index of sorted whose value is not below x in
// sort.Float64s order, where NaN sorts before every number.
func searchSorted(sorted []float64, x float64) int {
	return sort.Search(len(sorted), func(j int) bool {
		a := sorted[j]
		return !(a < x || (math.IsNaN(a) && !math.IsNaN(x)))
	})
}

// WindowSnapshot summarizes the current window contents.
type WindowSnapshot struct {
	// Size is the number of observations currently held.
	Size int `json:"size"`
	// Errors counts observations flagged as errors.
	Errors int `json:"errors"`
	// ErrorRate is Errors/Size (0 when empty).
	ErrorRate float64 `json:"error_rate"`
	// P50/P90/P99 are latency percentiles in seconds (0 when empty).
	P50 float64 `json:"p50_seconds"`
	P90 float64 `json:"p90_seconds"`
	P99 float64 `json:"p99_seconds"`
}

// Snapshot computes the rolling percentiles and error rate.
func (w *RollingWindow) Snapshot() WindowSnapshot {
	if w == nil {
		return WindowSnapshot{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.sorted)
	snap := WindowSnapshot{Size: n, Errors: w.errs}
	if n == 0 {
		return snap
	}
	snap.ErrorRate = float64(w.errs) / float64(n)
	snap.P50 = percentile(w.sorted, 0.50)
	snap.P90 = percentile(w.sorted, 0.90)
	snap.P99 = percentile(w.sorted, 0.99)
	return snap
}

// Quantile returns the nearest-rank latency quantile (0 < q <= 1) over
// the window's current contents, 0 when empty. Callers that need one
// threshold (e.g. the flight recorder's slow-trace cutoff) skip the full
// summary.
func (w *RollingWindow) Quantile(q float64) float64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return percentile(w.sorted, q)
}

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
