// Package overview implements the fleet observability plane: a
// background aggregator that polls every fleet member's compact
// /internal/stats snapshot (queue saturation, cache tier state, SLO burn,
// ring membership) and merges them into one cluster-wide view — per-
// replica utilization, dead peers, degradation markers, and a true
// fleet-wide burn rate computed from raw window counts (Σbad/Σtotal per
// objective and window, not an average of per-replica rates). The service
// serves the merged view at GET /v1/cluster/overview and exports
// cluster_overview_* gauges, so one scrape of any replica sees the whole
// fleet.
package overview

import (
	"cmp"
	"context"
	"log/slog"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/slo"
)

// Saturation is one replica's queue/worker pressure, mirroring the
// /healthz saturation block that admission control keys on.
type Saturation struct {
	QueueDepth    int      `json:"queue_depth"`
	QueueCapacity int      `json:"queue_capacity"`
	JobsRunning   int      `json:"jobs_running"`
	Workers       int      `json:"workers"`
	InFlight      int64    `json:"in_flight"`
	Utilization   float64  `json:"utilization"`
	Shedding      []string `json:"shedding,omitempty"`
}

// CacheTier is one cache tier's health on one replica. HitRate is only
// meaningful for the memory tier (the only tier with local hit counters);
// BreakerState is "closed", "half-open", or "open" for tiers behind a
// resilient wrapper and "" for bare tiers.
type CacheTier struct {
	HitRate      float64 `json:"hit_rate,omitempty"`
	BreakerState string  `json:"breaker_state,omitempty"`
}

// Stats is the compact per-replica snapshot served by /internal/stats —
// everything the overview plane needs, nothing a peer couldn't already
// read from /healthz and /metrics, but in one authenticated round trip.
type Stats struct {
	Addr          string                `json:"addr"`
	UptimeSeconds float64               `json:"uptime_seconds"`
	Draining      bool                  `json:"draining"`
	Saturation    Saturation            `json:"saturation"`
	Cache         map[string]CacheTier  `json:"cache,omitempty"`
	SLO           map[string]slo.Status `json:"slo,omitempty"`
	RingMembers   int                   `json:"ring_members"`
}

// Replica is one fleet member in the merged overview.
type Replica struct {
	Addr  string `json:"addr"`
	Self  bool   `json:"self,omitempty"`
	Alive bool   `json:"alive"`
	// Error reports a stats-fetch failure on a probe-alive peer (its
	// liveness flag is the prober's verdict, not this poller's).
	Error string `json:"error,omitempty"`
	Stats *Stats `json:"stats,omitempty"`
}

// FleetBurn is one objective's burn over one window, computed from raw
// counts summed across replicas. Averaging per-replica burn rates would
// let an idle replica's 0 mask a busy replica's incident; summing counts
// weighs every request once.
type FleetBurn struct {
	SLO      string  `json:"slo"`
	Window   string  `json:"window"`
	Total    int64   `json:"total"`
	Bad      int64   `json:"bad"`
	BurnRate float64 `json:"burn_rate"`
}

// Overview is the merged fleet view served by GET /v1/cluster/overview.
type Overview struct {
	Self       string    `json:"self"`
	PolledAt   time.Time `json:"polled_at"`
	AgeSeconds float64   `json:"age_seconds"`
	Replicas   []Replica `json:"replicas"`
	AliveCount int       `json:"alive_count"`
	DeadCount  int       `json:"dead_count"`
	// Degraded is true when any replica is dead, draining, shedding a cost
	// class, or running with an open cache breaker — the single boolean a
	// dashboard reddens on.
	Degraded  bool        `json:"degraded"`
	FleetBurn []FleetBurn `json:"fleet_burn,omitempty"`
}

// Single wraps one replica's stats as a one-member overview, for
// single-replica daemons where there is no fleet to poll.
func Single(st Stats) Overview {
	o := Overview{
		Self:       st.Addr,
		PolledAt:   time.Now(),
		Replicas:   []Replica{{Addr: st.Addr, Self: true, Alive: true, Stats: &st}},
		AliveCount: 1,
	}
	o.FleetBurn = fleetBurn(o.Replicas)
	o.Degraded = replicaDegraded(&st) || st.Draining
	return o
}

// Aggregator polls the fleet in the background and caches the merged
// overview, so serving GET /v1/cluster/overview and rendering /metrics
// never perform network I/O on the request path.
type Aggregator struct {
	node      *cluster.Node
	cfg       cluster.Config
	selfStats func() Stats
	log       *slog.Logger

	mu   sync.RWMutex
	last Overview

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds an aggregator over node's members (call Start to begin
// polling). selfStats snapshots this replica locally, with no HTTP hop.
// It polls on the node's probe interval, so the overview tracks
// membership changes closely, bounds each peer's stats fetch by the
// node's PeerTimeout, and reports to the node's tracer and logger.
func New(node *cluster.Node, selfStats func() Stats) *Aggregator {
	cfg := node.Config()
	a := &Aggregator{
		node:      node,
		cfg:       cfg,
		selfStats: selfStats,
		log:       cmp.Or(cfg.Logger, obs.Discard),
		stop:      make(chan struct{}),
	}
	// Seed with a self-only view so the endpoint is never empty between
	// Start and the first poll round.
	a.last = Single(selfStats())
	return a
}

// Start launches the background poll loop. Pair with Stop.
func (a *Aggregator) Start() {
	a.wg.Add(1)
	go a.loop()
}

// Stop terminates the poll loop and waits for it.
func (a *Aggregator) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.wg.Wait()
}

func (a *Aggregator) loop() {
	defer a.wg.Done()
	t := time.NewTicker(a.cfg.ProbeInterval)
	defer t.Stop()
	a.poll()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			a.poll()
		}
	}
}

// Snapshot returns the latest merged overview (age included, so a stale
// snapshot from a wedged poll loop is detectable by the reader).
func (a *Aggregator) Snapshot() Overview {
	a.mu.RLock()
	o := a.last
	a.mu.RUnlock()
	o.AgeSeconds = time.Since(o.PolledAt).Seconds()
	return o
}

// poll fetches every member's stats once and swaps in the merged view.
func (a *Aggregator) poll() {
	snap := a.node.Status()
	o := Overview{Self: snap.Self, PolledAt: time.Now()}
	for _, m := range snap.Members {
		rep := Replica{Addr: m.Addr, Self: m.Self, Alive: m.Alive}
		switch {
		case m.Self:
			st := a.selfStats()
			rep.Stats = &st
		case m.Alive:
			st, err := a.fetch(m.Addr)
			if err != nil {
				rep.Error = err.Error()
				a.log.Debug("cluster_overview_poll_failed",
					"peer", m.Addr,
					"error", err)
			} else {
				rep.Stats = st
			}
		}
		if rep.Alive {
			o.AliveCount++
		} else {
			o.DeadCount++
		}
		o.Replicas = append(o.Replicas, rep)
	}
	o.FleetBurn = fleetBurn(o.Replicas)
	o.Degraded = o.DeadCount > 0
	for i := range o.Replicas {
		if st := o.Replicas[i].Stats; st != nil && (st.Draining || replicaDegraded(st)) {
			o.Degraded = true
		}
	}

	a.mu.Lock()
	a.last = o
	a.mu.Unlock()
	a.export(o)
}

// fetch retrieves one peer's /internal/stats snapshot.
func (a *Aggregator) fetch(addr string) (*Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), a.cfg.PeerTimeout)
	defer cancel()
	ctx = obs.ContextWithRequestID(ctx, "overview-"+cluster.NewHopID())
	var st Stats
	if err := a.node.GetJSON(ctx, addr, "/internal/stats", 1<<20, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// replicaDegraded reports local degradation markers on one replica's
// stats: load shedding in effect or any cache breaker not closed.
func replicaDegraded(st *Stats) bool {
	if len(st.Saturation.Shedding) > 0 {
		return true
	}
	for _, tier := range st.Cache {
		if tier.BreakerState != "" && tier.BreakerState != "closed" {
			return true
		}
	}
	return false
}

// fleetBurn merges per-replica SLO windows into fleet-wide burn rates by
// summing raw counts per (objective, window) before dividing by the
// budget. Replicas with no stats (dead or unreachable) contribute
// nothing — their requests stopped, so they stop burning budget too.
func fleetBurn(reps []Replica) []FleetBurn {
	type key struct{ slo, window string }
	totals := map[key]*FleetBurn{}
	budgets := map[string]float64{}
	for _, rep := range reps {
		if rep.Stats == nil {
			continue
		}
		for name, st := range rep.Stats.SLO {
			if st.Budget > 0 {
				budgets[name] = st.Budget
			}
			for _, wb := range st.Windows {
				k := key{name, wb.Window}
				fb := totals[k]
				if fb == nil {
					fb = &FleetBurn{SLO: name, Window: wb.Window}
					totals[k] = fb
				}
				fb.Total += wb.Total
				fb.Bad += wb.Bad
			}
		}
	}
	out := make([]FleetBurn, 0, len(totals))
	for _, t := range totals {
		fb := *t
		if b := budgets[fb.SLO]; b > 0 && fb.Total > 0 {
			fb.BurnRate = float64(fb.Bad) / float64(fb.Total) / b
		}
		out = append(out, fb)
	}
	// Stable output: by objective, then by window.
	slices.SortFunc(out, func(a, b FleetBurn) int {
		return cmp.Or(cmp.Compare(a.SLO, b.SLO), cmp.Compare(a.Window, b.Window))
	})
	return out
}

// export refreshes the cluster_overview_* gauges from one merged view.
func (a *Aggregator) export(o Overview) {
	tr := a.cfg.Tracer
	tr.Gauge("cluster/overview/replicas_alive").Set(float64(o.AliveCount))
	tr.Gauge("cluster/overview/replicas_dead").Set(float64(o.DeadCount))
	degraded := 0.0
	if o.Degraded {
		degraded = 1
	}
	tr.Gauge("cluster/overview/degraded").Set(degraded)
	for _, fb := range o.FleetBurn {
		tr.Gauge(obs.Labeled("cluster/overview/burn_rate", "slo", fb.SLO, "window", fb.Window)).Set(fb.BurnRate)
	}
	for _, rep := range o.Replicas {
		if rep.Stats != nil {
			tr.Gauge(obs.Labeled("cluster/overview/utilization", "replica", rep.Addr)).
				Set(rep.Stats.Saturation.Utilization)
		}
	}
}
