package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/scripts/internal/smoke"
)

// fleetScenario is the replica-death chaos test: boot a three-replica
// fleet, storm it from concurrent clients, and SIGKILL one replica while
// requests are in flight. The fleet must degrade, not die:
//
//   - requests to the survivors keep succeeding (forwarding to the dead
//     owner falls back to a local solve),
//   - no request hangs (a hard client timeout bounds every call),
//   - survivors mark the dead peer down within the probe window and
//     rebalance the ring around it,
//   - survivor queues drain back to zero — no job is stuck waiting on
//     the dead replica,
//   - the survivors still drain and exit cleanly on SIGTERM.
func fleetScenario(bin string) {
	smoke.Step("fleet: starting 3 mutually-peered replicas")
	fleet := smoke.StartFleet(bin, 3,
		"-workers", "2",
		"-cluster-secret", "chaos-fleet",
		"-probe-interval", "200ms",
		// A short burn window lets the post-storm "burn recovers to
		// zero" check converge within the smoke-test budget.
		"-slo-short-window", "3s",
		"-log-level", "warn",
	)

	var gatesResp struct {
		Gates []string `json:"gates"`
	}
	smoke.GetJSON(fleet[0].URL+"/v1/gates", &gatesResp)
	if len(gatesResp.Gates) == 0 {
		smoke.Fatalf("fleet: empty gate library")
	}
	gates := gatesResp.Gates
	if len(gates) > 6 {
		gates = gates[:6]
	}

	smoke.Step("fleet: storm with SIGKILL of one replica mid-flight")
	// The victim is killed -- not drained -- so in-flight forwards to it
	// fail at the transport layer and survivors must fall back locally.
	const victim = 2
	// A request that outlives this timeout counts as hung; the acceptance
	// bar is "zero hung jobs", so the timeout is generous but hard.
	client := &http.Client{Timeout: 15 * time.Second}

	const clients = 6
	const rounds = 4
	var mu sync.Mutex
	var ok, deadTargetErrs, survivorErrs int
	var firstSurvivorErr error
	killed := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, g := range gates {
					ti := (c + r + i) % len(fleet)
					path := "/v1/simulate"
					if (c+i)%2 == 0 {
						path = "/v1/gates/validate"
					}
					code, err := smoke.TryPost(client, fleet[ti].URL+path, map[string]any{"gate": g})
					mu.Lock()
					switch {
					case err == nil && code == http.StatusOK:
						ok++
					case ti == victim && isKilled(killed):
						// Requests addressed to the corpse may fail; that is
						// the client's problem, not the fleet's.
						deadTargetErrs++
					default:
						survivorErrs++
						if firstSurvivorErr == nil {
							if err == nil {
								err = fmt.Errorf("POST %s%s: status %d", fleet[ti].URL, path, code)
							}
							firstSurvivorErr = err
						}
					}
					mu.Unlock()
				}
			}
		}(c)
	}

	// Let the storm establish, then murder the victim with no warning.
	// Mark it dead before delivering the signal: in-flight requests to the
	// victim EOF as soon as the kernel reaps it — before Wait() returns —
	// and must not be misclassified as survivor errors.
	time.Sleep(500 * time.Millisecond)
	close(killed)
	fleet[victim].Kill()
	wg.Wait()

	if survivorErrs > 0 {
		smoke.Fatalf("fleet: %d requests to surviving replicas failed (first: %v); survivors must absorb a dead peer", survivorErrs, firstSurvivorErr)
	}
	if ok == 0 {
		smoke.Fatalf("fleet: storm produced no successful requests")
	}
	smoke.Step("fleet storm: %d ok, %d dead-target errors, 0 survivor errors", ok, deadTargetErrs)

	smoke.Step("fleet: survivors must mark the dead peer down and rebalance")
	survivors, dead := fleet[:victim], fleet[victim].Addr
	deadline := time.Now().Add(10 * time.Second)
	for _, d := range survivors {
		smoke.Eventually(time.Until(deadline), 100*time.Millisecond, func() error {
			var h smoke.Health
			smoke.GetJSON(d.URL+"/healthz", &h)
			for _, m := range h.Cluster.Members {
				if m.Addr == dead && !m.Alive && h.Cluster.RingMembers == len(fleet)-1 {
					return nil
				}
			}
			return fmt.Errorf("fleet: %s never marked %s dead (ring_members=%d)", d.URL, dead, h.Cluster.RingMembers)
		})
	}

	smoke.Step("fleet: cluster overview must mark the dead replica within the probe window")
	// The overview aggregator polls on the probe interval, so the corpse
	// should show up as a dead replica on any survivor shortly after the
	// membership layer notices.
	deadline = time.Now().Add(10 * time.Second)
	for _, d := range survivors {
		smoke.Eventually(time.Until(deadline), 100*time.Millisecond, func() error {
			var ov fleetOverview
			smoke.GetJSON(d.URL+"/v1/cluster/overview", &ov)
			for _, rep := range ov.Replicas {
				if rep.Addr == dead && !rep.Alive && ov.DeadCount >= 1 && ov.Degraded {
					return nil
				}
			}
			return fmt.Errorf("fleet: overview at %s never marked %s dead (dead_count=%d degraded=%v)",
				d.URL, dead, ov.DeadCount, ov.Degraded)
		})
	}

	smoke.Step("fleet: survivor queues must drain to zero")
	deadline = time.Now().Add(30 * time.Second)
	for _, d := range survivors {
		smoke.Eventually(time.Until(deadline), 200*time.Millisecond, func() error {
			var h smoke.Health
			smoke.GetJSON(d.URL+"/healthz", &h)
			if h.Saturation.QueueDepth == 0 && h.Saturation.JobsRunning == 0 {
				return nil
			}
			return fmt.Errorf("fleet: %s still has queue_depth=%d jobs_running=%d; hung jobs after replica death",
				d.URL, h.Saturation.QueueDepth, h.Saturation.JobsRunning)
		})
	}

	// Fresh work must still succeed on the rebalanced two-node ring.
	for _, d := range survivors {
		code, err := smoke.TryPost(client, d.URL+"/v1/simulate", map[string]any{"gate": gates[0]})
		if err != nil || code != http.StatusOK {
			smoke.Fatalf("fleet: post-death request to %s: code %d err %v", d.URL, code, err)
		}
	}

	smoke.Step("fleet: burn rate must recover to zero once the storm is over")
	// The replicas run a 3s short SLO window; after the storm goes idle,
	// any error budget burned during the kill must roll out of the window
	// and the fleet-wide short-window burn must read zero again.
	smoke.Eventually(15*time.Second, 250*time.Millisecond, func() error {
		var ov fleetOverview
		smoke.GetJSON(survivors[0].URL+"/v1/cluster/overview", &ov)
		for _, b := range ov.FleetBurn {
			if b.Window == "3s" && b.BurnRate > 0 {
				return fmt.Errorf("fleet: short-window burn never recovered to zero: %+v", ov.FleetBurn)
			}
		}
		return nil
	})

	smoke.Step("fleet: SIGTERM survivors; both must drain and exit cleanly")
	for _, d := range survivors {
		d.Stop()
	}
	smoke.Step("fleet replica-death scenario passed")
}

type fleetOverview struct {
	Replicas []struct {
		Addr  string `json:"addr"`
		Alive bool   `json:"alive"`
	} `json:"replicas"`
	DeadCount int  `json:"dead_count"`
	Degraded  bool `json:"degraded"`
	FleetBurn []struct {
		SLO      string  `json:"slo"`
		Window   string  `json:"window"`
		BurnRate float64 `json:"burn_rate"`
	} `json:"fleet_burn"`
}

func isKilled(killed chan struct{}) bool {
	select {
	case <-killed:
		return true
	default:
		return false
	}
}
