package cache

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeDisk is a scriptable Layer: it fails while failing is set and
// otherwise stores entries in a map.
type fakeDisk struct {
	failing bool
	gets    int
	puts    int
	data    map[Key][]byte
}

var errFakeIO = errors.New("fake I/O failure")

func newFakeDisk() *fakeDisk { return &fakeDisk{data: map[Key][]byte{}} }

func (f *fakeDisk) Get(_ context.Context, key Key) ([]byte, bool, error) {
	f.gets++
	if f.failing {
		return nil, false, errFakeIO
	}
	b, ok := f.data[key]
	return b, ok, nil
}

func (f *fakeDisk) Put(_ context.Context, key Key, val []byte) error {
	f.puts++
	if f.failing {
		return errFakeIO
	}
	f.data[key] = val
	return nil
}

// newTestResilient wires a Resilient with instant sleeps and a
// controllable clock.
func newTestResilient(inner Layer) (*Resilient, *time.Time) {
	r := NewResilient(inner, nil, nil)
	now := time.Unix(1000, 0)
	r.now = func() time.Time { return now }
	r.sleep = func(time.Duration) {}
	return r, &now
}

func TestResilientRetriesTransientFailure(t *testing.T) {
	f := newFakeDisk()
	attempts := 0
	flaky := &flakyDisk{inner: f, failFirst: 2, attempts: &attempts}
	r, _ := newTestResilient(flaky)
	if err := r.Put(context.Background(), Key("k"), []byte("v")); err != nil {
		t.Fatalf("Put should have succeeded after retries: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two failures + success)", attempts)
	}
	if b, ok, err := r.Get(context.Background(), Key("k")); err != nil || !ok || string(b) != "v" {
		t.Fatalf("Get = %q, %v, %v", b, ok, err)
	}
	if r.State() != BreakerClosed {
		t.Fatalf("breaker = %v after recovered retries, want closed", r.State())
	}
}

// flakyDisk fails the first failFirst operations, then delegates.
type flakyDisk struct {
	inner     Layer
	failFirst int
	attempts  *int
}

func (f *flakyDisk) Get(ctx context.Context, key Key) ([]byte, bool, error) {
	*f.attempts++
	if *f.attempts <= f.failFirst {
		return nil, false, errFakeIO
	}
	return f.inner.Get(ctx, key)
}

func (f *flakyDisk) Put(ctx context.Context, key Key, val []byte) error {
	*f.attempts++
	if *f.attempts <= f.failFirst {
		return errFakeIO
	}
	return f.inner.Put(ctx, key, val)
}

func TestBreakerTripHalfOpenClose(t *testing.T) {
	f := newFakeDisk()
	f.failing = true
	// Each op, its retries included, is one breaker strike.
	r, now := newTestResilient(f)

	// Five consecutive failures trip the breaker open; four do not.
	for i := 1; i <= 5; i++ {
		if err := r.Put(context.Background(), Key("k"), []byte("v")); err == nil {
			t.Fatal("Put should fail while the disk is failing")
		}
		if f.puts != i*(1+maxRetries) {
			t.Fatalf("disk saw %d puts after %d failed ops, want %d", f.puts, i, i*(1+maxRetries))
		}
		want := BreakerClosed
		if i == 5 {
			want = BreakerOpen
		}
		if r.State() != want {
			t.Fatalf("breaker = %v after %d failures, want %v", r.State(), i, want)
		}
	}

	// Open: operations short-circuit without touching the disk. A Get is a
	// silent miss, a Put a silent drop.
	before := f.puts + f.gets
	if _, ok, err := r.Get(context.Background(), Key("k")); ok || err != nil {
		t.Fatalf("open-breaker Get = %v, %v; want silent miss", ok, err)
	}
	if err := r.Put(context.Background(), Key("k"), []byte("v")); err != nil {
		t.Fatalf("open-breaker Put = %v; want silent drop", err)
	}
	if f.puts+f.gets != before {
		t.Fatal("open breaker still reached the disk")
	}

	// The 5 s cooldown elapses; the next operation is a half-open probe.
	// The disk is still failing, so the probe re-opens the breaker.
	*now = now.Add(5 * time.Second)
	if err := r.Put(context.Background(), Key("k"), []byte("v")); err == nil {
		t.Fatal("probe should have failed")
	}
	if r.State() != BreakerOpen {
		t.Fatalf("breaker = %v after failed probe, want open again", r.State())
	}

	// Second cooldown; disk recovered; the probe closes the breaker.
	f.failing = false
	*now = now.Add(5 * time.Second)
	if err := r.Put(context.Background(), Key("k"), []byte("v")); err != nil {
		t.Fatalf("recovered probe failed: %v", err)
	}
	if r.State() != BreakerClosed {
		t.Fatalf("breaker = %v after successful probe, want closed", r.State())
	}
	if b, ok, err := r.Get(context.Background(), Key("k")); err != nil || !ok || string(b) != "v" {
		t.Fatalf("Get after recovery = %q, %v, %v", b, ok, err)
	}
}

func TestBreakerHalfOpenAllowsSingleProbe(t *testing.T) {
	f := newFakeDisk()
	f.failing = true
	r, now := newTestResilient(f)
	for i := 0; i < 5; i++ {
		_ = r.Put(context.Background(), Key("k"), []byte("v"))
	}
	if r.State() != BreakerOpen {
		t.Fatalf("breaker = %v, want open", r.State())
	}
	*now = now.Add(5*time.Second - time.Millisecond)
	if r.allow() {
		t.Fatal("caller let through before the 5 s cooldown elapsed")
	}
	*now = now.Add(time.Millisecond)
	if !r.allow() { // first caller becomes the probe
		t.Fatal("first post-cooldown caller should be allowed through")
	}
	if r.allow() { // concurrent second caller must be short-circuited
		t.Fatal("second caller during an in-flight probe should be blocked")
	}
	r.onResult(false)
	if r.State() != BreakerClosed {
		t.Fatalf("breaker = %v after probe success, want closed", r.State())
	}
}

func TestBackoffGrowsExponentially(t *testing.T) {
	r, _ := newTestResilient(newFakeDisk())
	for n := 0; n < 4; n++ {
		d := r.backoff(n)
		base := 2 * time.Millisecond << uint(n)
		if d < base || d > base+base/2 {
			t.Fatalf("backoff(%d) = %v, want in [%v, %v]", n, d, base, base+base/2)
		}
	}
}
