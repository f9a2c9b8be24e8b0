package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/journal"
)

// journalAppends is the number of timed appends per concurrency level;
// 1000 samples are what a p99 needs (see tailQuantile).
const journalAppends = 1000

// probeJournal times journal.Append of "submitted" events carrying the
// given request bodies (cycled), in a fresh journal under dir: first from
// one goroutine, then from two. dir must sit on the filesystem the
// daemon's -journal-dir would use, since fsync cost is the filesystem's.
func probeJournal(dir string, bodies [][]byte) (one, two latencyStats, err error) {
	for goroutines := 1; goroutines <= 2; goroutines++ {
		jdir, err := os.MkdirTemp(dir, "journal-probe-")
		if err != nil {
			return one, two, err
		}
		lat, err := appendTimes(jdir, bodies, goroutines)
		os.RemoveAll(jdir)
		if err != nil {
			return one, two, err
		}
		if goroutines == 1 {
			one = summarize(lat)
		} else {
			two = summarize(lat)
		}
	}
	return one, two, nil
}

func appendTimes(dir string, bodies [][]byte, goroutines int) ([]float64, error) {
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return nil, err
	}
	lat := make([]float64, journalAppends)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < journalAppends; i += goroutines {
				ev := journal.Event{
					Type:  journal.EventSubmitted,
					JobID: fmt.Sprintf("j%08d", i),
					Kind:  "flow",
					Path:  "/v1/flow",
					Body:  bodies[i%len(bodies)],
					Key:   "flow:" + strings.Repeat("0", 64),
					Time:  time.Now(),
				}
				start := time.Now()
				if err := j.Append(ev); err != nil {
					errs[g] = err
					return
				}
				lat[i] = msSince(start)
			}
		}(g)
	}
	wg.Wait()
	cerr := j.Close()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("journal append: %w", err)
		}
	}
	return lat, cerr
}

// probeJournalFor runs probeJournal under the workload's scratch directory
// and records the journal.append_* metrics.
func probeJournalFor(o *outcome, cfg config, bodies [][]byte) error {
	one, two, err := probeJournal(cfg.WorkDir, bodies)
	if err != nil {
		return err
	}
	o.set("journal.append_p50_ms", one.P50, one.N)
	o.set("journal.append_p99_ms", one.Tail, one.N)
	o.set("journal.append_2g_p50_ms", two.P50, two.N)
	o.set("journal.append_2g_p99_ms", two.Tail, two.N)
	return nil
}
