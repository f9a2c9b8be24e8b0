package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestLabeled(t *testing.T) {
	got := Labeled("http_requests_total", "method", "POST", "code", "200")
	want := `http_requests_total{method="POST",code="200"}`
	if got != want {
		t.Fatalf("Labeled = %q, want %q", got, want)
	}
	if got := Labeled("plain"); got != "plain" {
		t.Fatalf("Labeled no-kv = %q", got)
	}
	got = Labeled("m", "k", `a"b\c`)
	want = `m{k="a\"b\\c"}`
	if got != want {
		t.Fatalf("Labeled escaping = %q, want %q", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd kv count did not panic")
		}
	}()
	Labeled("m", "k")
}

// TestExpositionGolden pins the full exposition output for a small, fixed
// metric set: HELP/TYPE headers, sorted families, label merging, and the
// complete histogram rendering with cumulative buckets, +Inf, _sum, and
// _count.
func TestExpositionGolden(t *testing.T) {
	tr := New()
	tr.Counter("queue/submitted").Add(3)
	tr.Counter(Labeled("http/requests_total", "method", "POST", "code", "200")).Add(2)
	tr.Counter(Labeled("http/requests_total", "method", "GET", "code", "200")).Add(5)
	tr.Gauge("queue/depth").Set(1.5)
	h := tr.Histogram("req/seconds", 0.1, 1)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.7)
	h.Observe(42)

	var b strings.Builder
	if err := tr.WriteExposition(&b, map[string]string{
		"queue_submitted": "Jobs accepted into the queue.",
	}); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# TYPE http_requests_total counter`,
		`http_requests_total{method="GET",code="200"} 5`,
		`http_requests_total{method="POST",code="200"} 2`,
		`# TYPE queue_depth gauge`,
		`queue_depth 1.5`,
		`# HELP queue_submitted Jobs accepted into the queue.`,
		`# TYPE queue_submitted counter`,
		`queue_submitted 3`,
		`# TYPE req_seconds histogram`,
		`req_seconds_bucket{le="0.1"} 1`,
		`req_seconds_bucket{le="1"} 3`,
		`req_seconds_bucket{le="+Inf"} 4`,
		`req_seconds_sum 43.25`,
		`req_seconds_count 4`,
	}, "\n") + "\n"
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExpositionBucketsCumulative is the regression test for the lossy
// /metrics bug: the old renderer exported only count/sum, dropping every
// bucket. The exposition must contain one _bucket line per bound plus
// +Inf, with non-decreasing cumulative values ending at the count.
func TestExpositionBucketsCumulative(t *testing.T) {
	tr := New()
	h := tr.Histogram(Labeled("lat_seconds", "path", "/v1/flow"), 0.01, 0.1, 1, 10)
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := tr.WriteExposition(&b, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	var cum []int64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket{") {
			continue
		}
		if !strings.Contains(line, `path="/v1/flow"`) {
			t.Fatalf("bucket line lost its labels: %s", line)
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		cum = append(cum, v)
	}
	if len(cum) != 5 { // 4 bounds + +Inf
		t.Fatalf("expected 5 bucket series, got %d in:\n%s", len(cum), out)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("buckets not cumulative: %v", cum)
		}
	}
	if want := []int64{2, 3, 4, 5, 6}; cum[len(cum)-1] != 6 || cum[0] != want[0] {
		t.Fatalf("cumulative buckets = %v, want %v", cum, want)
	}
	if !strings.Contains(out, `lat_seconds_bucket{path="/v1/flow",le="+Inf"} 6`) {
		t.Fatalf("+Inf bucket must equal the observation count:\n%s", out)
	}
	if !strings.Contains(out, `lat_seconds_count{path="/v1/flow"} 6`) {
		t.Fatalf("missing _count:\n%s", out)
	}
}

func TestHistogramBoundMismatchPanics(t *testing.T) {
	tr := New()
	tr.Histogram("h", 1, 2, 3)
	tr.Histogram("h")          // retrieval without bounds is fine
	tr.Histogram("h", 3, 2, 1) // same set, different order: normalizes equal
	tr.Histogram("h", 1, 1, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched bounds did not panic")
		}
	}()
	tr.Histogram("h", 1, 2, 4)
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(10, 20, 30)
	quantile := func(q float64) float64 {
		bounds, counts := h.Buckets()
		return QuantileFromBuckets(bounds, counts, q)
	}
	if got := quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v", got)
	}
	// 100 observations uniform in (0,10], 100 in (10,20].
	for i := 0; i < 100; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	if got := quantile(0.5); got != 10 {
		t.Fatalf("p50 = %v, want 10", got)
	}
	// p75: rank 150 of 200 lands mid-bucket (10,20] → 15 by interpolation.
	if got := quantile(0.75); got != 15 {
		t.Fatalf("p75 = %v, want 15", got)
	}
	h.Observe(1e9) // overflow clamps to the top bound
	if got := quantile(1); got != 30 {
		t.Fatalf("p100 with overflow = %v, want 30", got)
	}
}

func TestRollingWindow(t *testing.T) {
	var nilW *RollingWindow
	nilW.Observe(1, false) // nil-safe
	if s := nilW.Snapshot(); s.Size != 0 {
		t.Fatalf("nil window snapshot = %+v", s)
	}
	w := NewRollingWindow(4)
	w.Observe(1, false)
	w.Observe(2, true)
	w.Observe(3, false)
	s := w.Snapshot()
	if s.Size != 3 || s.Errors != 1 || s.P50 != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	// Wrap: the two oldest (1s and 2s, the error) fall out.
	w.Observe(4, false)
	w.Observe(5, false)
	w.Observe(6, false)
	s = w.Snapshot()
	if s.Size != 4 || s.Errors != 0 {
		t.Fatalf("wrapped snapshot = %+v", s)
	}
	if s.P99 != 6 || s.P50 != 4 {
		t.Fatalf("wrapped percentiles = %+v", s)
	}
}

// TestConcurrentObserveAndExposition drives Histogram.Observe from many
// goroutines while the exposition writer renders concurrently; under
// -race this is the data-race test for the /metrics hot path.
func TestConcurrentObserveAndExposition(t *testing.T) {
	tr := New()
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tr.Histogram("concurrent_seconds", DefBuckets...)
			for i := 0; i < perG; i++ {
				h.Observe(float64(i%100) / 100)
				if i%50 == 0 {
					var b strings.Builder
					if err := tr.WriteExposition(&b, nil); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Histogram("concurrent_seconds").Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	var b strings.Builder
	if err := tr.WriteExposition(&b, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `concurrent_seconds_count 4000`) {
		t.Fatalf("final exposition missing total count:\n%s", b.String())
	}
}
