package main

import (
	"crypto/sha256"
	"sort"
	"time"
)

// Host-speed correction. The 2-core host the bounds were set on changes
// speed by up to ±20% over tens of seconds as other tenants load it: in
// one 90 s stretch, the median of a fixed loop over 1.4 s windows ranged
// from 3.2 to 4.3 ms, and a c17 flow from 50 to 77 ms with it. The
// end-to-end timings therefore scale each timed segment by hostFactor
// measured next to it, while the program under test is idle, and read as
// the time the segment takes on a host that runs the loop in calibRefMS.
// Dividing c17's times by the adjacent loop times cut their variation over
// the windows from 11% to 4.5%. The loop is the benchmark's own code and
// calls nothing of the program, so a change to the program cannot move
// it. The report keeps the raw times next to the scaled ones.

// calibRefMS is the loop's time on the reference host.
const calibRefMS = 3.5

// calibSink keeps the loop's results alive. Only the goroutine that runs
// the workload measures the host factor.
var calibSink int64

// calibLoop is a fixed mix of map updates, hashing, allocation and
// sorting, the kinds of work the flow and the solvers do.
func calibLoop() int64 {
	m := map[int]int{}
	buf := make([]byte, 1<<16)
	var sum [32]byte
	for i := 0; i < 4000; i++ {
		m[i*7919%10007] += i
		buf[(i*131)%len(buf)] ^= byte(i)
		if i%8 == 0 {
			sum = sha256.Sum256(buf[:4096])
		}
	}
	s := make([]int, 0, 20000)
	for i := 0; i < 20000; i++ {
		s = append(s, (i*2654435761+len(m))%100003)
	}
	sort.Ints(s)
	return int64(s[len(s)/2]) + int64(sum[0])
}

// hostFactor times calibLoop three times and returns calibRefMS over the
// median: above 1 on a host faster than the reference, below 1 on a
// slower one. One loop is also the right probe for the serve workloads,
// which keep both cores busy: over 216 one-second segments of serve-warm,
// the log of the segment's throughput followed the log of this factor
// with slope 1.1 (correlation 0.90), while two loops at once tracked it
// less closely (slope 0.9, correlation 0.83).
func hostFactor() float64 {
	var ms []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		calibSink += calibLoop()
		ms = append(ms, msSince(start))
	}
	return calibRefMS / median(ms)
}

// hostScale follows a sequence of timed segments. Each segment's factor
// is the mean of the host factors measured just before and just after it.
type hostScale struct {
	factor float64 // measured after the last segment
}

// newHostScale measures the host factor before the first segment.
func newHostScale() *hostScale { return &hostScale{factor: hostFactor()} }

// next ends a segment and returns its factor.
func (h *hostScale) next() float64 {
	before := h.factor
	h.factor = hostFactor()
	return (before + h.factor) / 2
}
