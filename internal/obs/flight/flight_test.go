package flight

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func okTrace(id string, secs float64) Trace {
	return Trace{ID: id, Kind: "flow", State: "done", Seconds: secs,
		StartedAt: time.Unix(1700000000, 0).Add(time.Duration(len(id)) * time.Millisecond)}
}

func errTrace(id string) Trace {
	return Trace{ID: id, Kind: "flow", State: "failed", ErrorKind: "timeout", Seconds: 0.01}
}

// TestErrorsAlwaysKept floods the recorder with fast-OK traffic and
// checks that every error trace stays retrievable: error traces live in
// their own ring and sampled traffic can never evict them.
func TestErrorsAlwaysKept(t *testing.T) {
	r := NewRecorder(obs.New())
	errIDs := make([]string, 0, 50)
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("err-%d", i)
		errIDs = append(errIDs, id)
		if got := r.Record(errTrace(id)); got != ClassError {
			t.Fatalf("Record(%s) class = %q, want error", id, got)
		}
	}
	for i := 0; i < 5000; i++ {
		r.Record(okTrace(fmt.Sprintf("ok-%d", i), 0.001))
	}
	for _, id := range errIDs {
		tr, ok := r.Get(id)
		if !ok {
			t.Fatalf("error trace %s evicted by fast-OK flood", id)
		}
		if tr.Class != ClassError || tr.ErrorKind != "timeout" {
			t.Fatalf("Get(%s) = %+v, want error class with timeout kind", id, tr)
		}
	}
}

func TestDegradedIsErrorClass(t *testing.T) {
	r := NewRecorder(nil)
	tr := Trace{ID: "deg-1", Kind: "flow", State: "done", Degraded: true, Seconds: 0.5}
	if got := r.Record(tr); got != ClassError {
		t.Fatalf("degraded trace class = %q, want error", got)
	}
}

// TestSamplingCadence verifies the deterministic fast-OK cadence: after
// the 16-trace warmup, exactly every 16th fast trace is admitted.
func TestSamplingCadence(t *testing.T) {
	r := NewRecorder(nil)
	// Warmup traces are all admitted as sampled.
	for i := 0; i < warmup; i++ {
		if got := r.Record(okTrace(fmt.Sprintf("warm-%d", i), 0.001)); got != ClassSampled {
			t.Fatalf("warmup trace %d class = %q, want sampled", i, got)
		}
	}
	kept := 0
	for i := 0; i < 160; i++ {
		// Strictly decreasing latencies: each trace is faster than every
		// prior one, so it is always below the recent-OK p90 (the slow
		// comparison is >=, so a constant latency would read as slow once
		// it dominates the window).
		lat := 0.001 / float64(i+2)
		if got := r.Record(okTrace(fmt.Sprintf("fast-%d", i), lat)); got == ClassSampled {
			kept++
		} else if got == ClassSlow {
			t.Fatalf("fast trace %d classified slow", i)
		}
	}
	if kept != 10 {
		t.Fatalf("kept %d of 160 fast traces, want 10 (1 in %d)", kept, sampleEvery)
	}
	if s := r.Summary(); s.SampleEvery != 16 || s.SlowQuantile != 0.90 {
		t.Fatalf("Summary reports sample_every %d, slow_quantile %v; want 16, 0.9", s.SampleEvery, s.SlowQuantile)
	}
}

// TestSlowAlwaysKept checks that a trace at or above the recent-OK p90
// is retained regardless of the sampling cadence.
func TestSlowAlwaysKept(t *testing.T) {
	r := NewRecorder(nil)
	for i := 0; i < 20; i++ {
		r.Record(okTrace(fmt.Sprintf("base-%d", i), 0.001))
	}
	if got := r.Record(okTrace("slowpoke", 5.0)); got != ClassSlow {
		t.Fatalf("slow outlier class = %q, want slow", got)
	}
	if _, ok := r.Get("slowpoke"); !ok {
		t.Fatal("slow trace not retrievable")
	}
}

// TestEvictionUpdatesByID fills the error ring past its 256 entries and
// checks evicted ids 404 while the newest stay retrievable.
func TestEvictionUpdatesByID(t *testing.T) {
	r := NewRecorder(nil)
	const n = 262
	for i := 0; i < n; i++ {
		r.Record(errTrace(fmt.Sprintf("e-%d", i)))
	}
	for i := 0; i < n-256; i++ {
		if _, ok := r.Get(fmt.Sprintf("e-%d", i)); ok {
			t.Fatalf("e-%d should have been evicted", i)
		}
	}
	for i := n - 256; i < n; i++ {
		if _, ok := r.Get(fmt.Sprintf("e-%d", i)); !ok {
			t.Fatalf("e-%d should be retained", i)
		}
	}
	s := r.Summary()
	if s.Evicted != n-256 {
		t.Fatalf("Summary.Evicted = %d, want %d", s.Evicted, n-256)
	}
	if s.Retained[ClassError] != 256 || s.Capacity[ClassError] != 256 {
		t.Fatalf("Summary error ring = %d of %d, want 256 of 256", s.Retained[ClassError], s.Capacity[ClassError])
	}
}

func TestGetReturnsCopy(t *testing.T) {
	r := NewRecorder(nil)
	r.Record(errTrace("orig"))
	got, ok := r.Get("orig")
	if !ok {
		t.Fatal("trace not found")
	}
	got.ErrorKind = "mutated"
	again, _ := r.Get("orig")
	if again.ErrorKind != "timeout" {
		t.Fatalf("Get returned a shared pointer: ErrorKind = %q", again.ErrorKind)
	}
}

func TestSummaryNewestFirst(t *testing.T) {
	r := NewRecorder(nil)
	base := time.Unix(1700000000, 0)
	for i := 0; i < 5; i++ {
		tr := errTrace(fmt.Sprintf("s-%d", i))
		tr.StartedAt = base.Add(time.Duration(i) * time.Second)
		r.Record(tr)
	}
	s := r.Summary()
	if len(s.Traces) != 5 {
		t.Fatalf("Summary has %d traces, want 5", len(s.Traces))
	}
	for i := 1; i < len(s.Traces); i++ {
		if s.Traces[i].StartedAt.After(s.Traces[i-1].StartedAt) {
			t.Fatalf("Summary.Traces not newest-first at index %d", i)
		}
	}
	if s.Traces[0].ID != "s-4" {
		t.Fatalf("newest trace = %s, want s-4", s.Traces[0].ID)
	}
}

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	if got := r.Record(errTrace("x")); got != "" {
		t.Fatalf("nil Record = %q, want empty class", got)
	}
	if _, ok := r.Get("x"); ok {
		t.Fatal("nil Get returned ok")
	}
	if s := r.Summary(); len(s.Traces) != 0 {
		t.Fatal("nil Summary returned traces")
	}
}

// TestRecorderConcurrent hammers Record/Get/Summary from many
// goroutines; run under -race it proves the locking.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(obs.New())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := fmt.Sprintf("c-%d-%d", g, i)
				switch i % 3 {
				case 0:
					r.Record(errTrace(id))
				case 1:
					r.Record(okTrace(id, 0.001))
				default:
					r.Record(okTrace(id, float64(i)))
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, _ = r.Get(fmt.Sprintf("c-%d-%d", g, i))
				_ = r.Summary()
			}
		}(g)
	}
	wg.Wait()
	s := r.Summary()
	if s.Retained[ClassError] != errorCapacity {
		t.Fatalf("error ring retained %d, want full %d", s.Retained[ClassError], errorCapacity)
	}
	if len(s.Traces) != s.Retained[ClassError]+s.Retained[ClassSlow]+s.Retained[ClassSampled] {
		t.Fatalf("Summary trace count %d != sum of retained %v", len(s.Traces), s.Retained)
	}
}
