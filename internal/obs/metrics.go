package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. A nil *Counter is a valid
// no-op; non-nil counters are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that records the last value set. A nil *Gauge is a
// valid no-op; non-nil gauges are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value set (zero if never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets. An observation v
// lands in the first bucket whose upper bound satisfies v <= bound; values
// above every bound land in the implicit +Inf overflow bucket. A nil
// *Histogram is a valid no-op; non-nil histograms are safe for concurrent
// use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds
	counts []int64   // len(bounds)+1; last is the overflow bucket
	sum    float64
	count  int64
}

// NewHistogram builds a histogram with the given bucket upper bounds (they
// are sorted and deduplicated).
func NewHistogram(bounds ...float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	out := bs[:0]
	for i, b := range bs {
		if i == 0 || b != out[len(out)-1] {
			out = append(out, b)
		}
	}
	return &Histogram{bounds: out, counts: make([]int64, len(out)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Buckets returns the bucket bounds and per-bucket counts (the final count
// is the +Inf overflow bucket).
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.bounds...), append([]int64(nil), h.counts...)
}

// Counter returns the named counter, creating it on first use. Nil tracers
// return a nil (no-op) counter.
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.counters[name]
	if !ok {
		c = &Counter{}
		t.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil tracers
// return a nil (no-op) gauge.
func (t *Tracer) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	g, ok := t.gauges[name]
	if !ok {
		g = &Gauge{}
		t.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use. The bounds contract is first-caller-wins: the first
// caller for a name fixes the buckets, and later callers may pass no
// bounds at all to retrieve the existing histogram. Passing different
// bounds for an existing name panics — silently ignoring the mismatch
// (the old behavior) corrupts every aggregate computed from the buckets,
// because the caller believes observations land in buckets that do not
// exist. Nil tracers return a nil (no-op) histogram.
func (t *Tracer) Histogram(name string, bounds ...float64) *Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.histograms[name]
	if !ok {
		h = NewHistogram(bounds...)
		t.histograms[name] = h
		return h
	}
	if len(bounds) > 0 && !h.sameBounds(bounds) {
		// Copy before formatting so the variadic slice does not escape on
		// the non-panicking path (the nil-tracer fast path must stay
		// allocation-free).
		given := append([]float64(nil), bounds...)
		panic(fmt.Sprintf("obs: histogram %q redeclared with bounds %v (first caller fixed %v)",
			name, given, h.bounds))
	}
	return h
}

// sameBounds reports whether the given raw bounds normalize (sort +
// dedup, as NewHistogram does) to this histogram's bounds. The bounds
// slice is immutable after construction, so no lock is needed.
func (h *Histogram) sameBounds(bounds []float64) bool {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	n := 0
	for i, b := range bs {
		if i == 0 || b != bs[n-1] {
			bs[n] = b
			n++
		}
	}
	bs = bs[:n]
	if len(bs) != len(h.bounds) {
		return false
	}
	for i, b := range bs {
		if b != h.bounds[i] {
			return false
		}
	}
	return true
}

// QuantileFromBuckets estimates the q-quantile (0 ≤ q ≤ 1) of a histogram
// from its raw bucket data (bounds plus per-bucket counts with one trailing
// overflow bucket), usable on merged or reported histograms. It
// interpolates linearly within the containing bucket (the Prometheus
// histogram_quantile estimate); values in the overflow bucket clamp to the
// highest bound. Returns 0 when the histogram is empty.
func QuantileFromBuckets(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if i >= len(bounds) {
			break // overflow bucket: clamp below
		}
		prev := cum
		cum += c
		if float64(cum) >= rank {
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			upper := bounds[i]
			if c == 0 {
				return upper
			}
			frac := (rank - float64(prev)) / float64(c)
			return lower + (upper-lower)*frac
		}
	}
	return bounds[len(bounds)-1]
}
