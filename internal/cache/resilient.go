package cache

import (
	"cmp"
	"context"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// Layer is the interface of the cache tier behind the in-memory LRU: the
// raw Disk store, or a Resilient wrapper adding retries and a circuit
// breaker to it. Get reports a clean miss as (nil, false, nil).
type Layer interface {
	Get(ctx context.Context, key Key) ([]byte, bool, error)
	Put(ctx context.Context, key Key, val []byte) error
}

// BreakerState is the circuit breaker's position.
type BreakerState int32

// Breaker states, in gauge order: the cache_disk_breaker_state gauge
// exposes these numeric values.
const (
	BreakerClosed   BreakerState = 0 // normal operation
	BreakerHalfOpen BreakerState = 1 // cooldown elapsed; one probe allowed
	BreakerOpen     BreakerState = 2 // disk bypassed; memory-only caching
)

// String names the state for logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	default:
		return "unknown"
	}
}

// The retry and breaker policy of the Resilient wrapper.
const (
	// maxRetries is how many times a failed Get/Put is retried before the
	// failure counts against the breaker.
	maxRetries = 2
	// retryBase is the first backoff delay; each retry doubles it and adds
	// up to 50% deterministic jitter.
	retryBase = 2 * time.Millisecond
	// failThreshold is how many consecutive failed operations (after
	// retries) trip the breaker open.
	failThreshold = 5
	// cooldown is how long the breaker stays open before half-opening to
	// probe the layer again.
	cooldown = 5 * time.Second
	// jitterSeed fixes the jitter sequence.
	jitterSeed = 1
)

// Resilient wraps any Layer with exponential-backoff retries for
// transient failures and a circuit breaker that degrades the service to
// the remaining cache tiers after repeated failures. While the breaker is
// open every operation short-circuits (Get reports a miss, Put drops the
// write); after a cooldown it half-opens and lets a single probe through —
// success closes it, failure re-opens it for another cooldown.
type Resilient struct {
	inner Layer

	now   func() time.Time      // test hook
	sleep func(d time.Duration) // test hook

	mu       sync.Mutex
	rng      *rand.Rand
	state    BreakerState
	fails    int       // consecutive failed operations
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight

	stateGauge                            *obs.Gauge
	trips, retries, ioErrors, shortCircts *obs.Counter
	log                                   *slog.Logger
}

// NewResilient wraps the disk layer inner. tr receives breaker and retry
// metrics (nil-safe) under cache/disk/*, and log the state-transition
// events (nil disables). Metrics are registered immediately so the
// breaker gauges are present in /metrics from process start.
func NewResilient(inner Layer, tr *obs.Tracer, log *slog.Logger) *Resilient {
	r := &Resilient{
		inner:       inner,
		now:         time.Now,
		sleep:       time.Sleep,
		rng:         rand.New(rand.NewSource(jitterSeed)),
		stateGauge:  tr.Gauge("cache/disk/breaker_state"),
		trips:       tr.Counter("cache/disk/breaker_trips_total"),
		retries:     tr.Counter("cache/disk/retries_total"),
		ioErrors:    tr.Counter("cache/disk/io_errors_total"),
		shortCircts: tr.Counter("cache/disk/short_circuits_total"),
		log:         cmp.Or(log, obs.Discard),
	}
	r.stateGauge.Set(float64(BreakerClosed))
	return r
}

// State returns the breaker's current position (cooldown expiry is only
// observed by the next operation, not by State).
func (r *Resilient) State() BreakerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// allow decides whether an operation may reach the disk. It performs the
// open→half-open transition when the cooldown has elapsed.
func (r *Resilient) allow() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if r.now().Sub(r.openedAt) < cooldown {
			return false
		}
		r.setStateLocked(BreakerHalfOpen)
		r.probing = true
		return true
	default: // half-open: a single probe at a time
		if r.probing {
			return false
		}
		r.probing = true
		return true
	}
}

// onResult records an operation outcome and drives the state machine.
func (r *Resilient) onResult(failed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	wasProbe := r.state == BreakerHalfOpen
	r.probing = false
	if !failed {
		r.fails = 0
		if wasProbe {
			r.setStateLocked(BreakerClosed)
		}
		return
	}
	r.fails++
	if wasProbe || (r.state == BreakerClosed && r.fails >= failThreshold) {
		r.openedAt = r.now()
		if r.state != BreakerOpen {
			r.trips.Inc()
			r.setStateLocked(BreakerOpen)
		}
	}
}

// setStateLocked transitions the breaker, updating the gauge and logging
// the change. Caller holds r.mu.
func (r *Resilient) setStateLocked(s BreakerState) {
	if r.state == s {
		return
	}
	from := r.state
	r.state = s
	r.stateGauge.Set(float64(s))
	switch s {
	case BreakerOpen:
		r.log.Warn("cache_disk_breaker_open",
			"from", from.String(),
			"consecutive_failures", r.fails,
			"cooldown", cooldown.String(),
			"effect", "layer bypassed; remaining cache tiers serve")
	case BreakerHalfOpen:
		r.log.Info("cache_disk_breaker_half_open", "from", from.String())
	case BreakerClosed:
		r.log.Info("cache_disk_breaker_closed", "from", from.String())
	}
}

// backoff returns the delay before retry attempt n (0-based): an
// exponential base with up to 50% deterministic jitter.
func (r *Resilient) backoff(n int) time.Duration {
	d := retryBase << uint(n)
	r.mu.Lock()
	j := time.Duration(r.rng.Int63n(int64(d)/2 + 1))
	r.mu.Unlock()
	return d + j
}

// Get reads through the breaker with retries. While the breaker is open
// it reports a miss so the cache silently degrades to its other tiers.
func (r *Resilient) Get(ctx context.Context, key Key) ([]byte, bool, error) {
	if !r.allow() {
		r.shortCircts.Inc()
		return nil, false, nil
	}
	var b []byte
	var ok bool
	err := r.withRetry(func() error {
		var e error
		b, ok, e = r.inner.Get(ctx, key)
		return e
	})
	if err != nil {
		return nil, false, err
	}
	return b, ok, nil
}

// Put writes through the breaker with retries. While the breaker is open
// the write is dropped (the memory layer still holds the entry).
func (r *Resilient) Put(ctx context.Context, key Key, val []byte) error {
	if !r.allow() {
		r.shortCircts.Inc()
		return nil
	}
	return r.withRetry(func() error { return r.inner.Put(ctx, key, val) })
}

// withRetry runs op with the retry policy, then reports the final outcome
// to the breaker.
func (r *Resilient) withRetry(op func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil {
			r.onResult(false)
			return nil
		}
		r.ioErrors.Inc()
		if attempt >= maxRetries {
			break
		}
		r.retries.Inc()
		r.sleep(r.backoff(attempt))
	}
	r.onResult(true)
	return err
}
