// Package pool runs indexed work items on a bounded set of goroutines with
// panic isolation. QuickExact's shard search, the annealer's restarts,
// the degeneracy gap's pinned searches (one per key), the
// operational-domain sweep, the defect-yield sweep and the service's
// /v1/batch items all fan out through Run.
package pool

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/faults"
)

// Size returns the number of goroutines Run starts for n items: workers
// as given, or GOMAXPROCS when workers <= 0, capped at n and at least 1.
func Size(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// Run calls fn(w, i) for every i in [0, n), handing the indices out in
// order to Size(n, workers) goroutines. w in [0, Size(n, workers)) names
// the goroutine running the item, so per-worker state can live in a slice
// indexed by w without locks; items of one w never overlap.
//
// Each goroutine consults the fault point named fault once, before its
// first item, and panics when it fires. A panicking goroutine runs no
// further items but keeps draining, so the feeder never blocks on a
// channel nobody reads. Once every goroutine has exited, Run re-raises the
// first recovered panic on the caller's goroutine, where the service
// queue's per-job recovery can turn it into a job error. Once ctx is done
// no further item starts, and Run returns ctx.Err(). n == 0 starts no
// goroutine.
func Run(ctx context.Context, n, workers int, fault string, fn func(w, i int)) error {
	if n == 0 {
		return ctx.Err()
	}
	next := make(chan int)
	var wg sync.WaitGroup
	var once sync.Once
	var panicked any // first recovered panic; read after wg.Wait
	for w := range Size(n, workers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { panicked = r })
					for range next {
					}
				}
			}()
			if faults.Should(fault) {
				panic("injected fault: " + fault)
			}
			for i := range next {
				if ctx.Err() != nil {
					continue // drain fast after cancellation
				}
				fn(w, i)
			}
		}()
	}
feed:
	for i := range n {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return ctx.Err()
}
