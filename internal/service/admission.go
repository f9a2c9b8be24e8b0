package service

import (
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// ErrKindShed is the error kind of requests rejected by admission control
// (and by queue-full backpressure): the request was fine, the server is
// saturated — retry after the advertised interval.
const ErrKindShed = "shed"

// Admission thresholds by cost class: the utilization (queued + running
// over total capacity) above which the class is shed. Expensive classes
// shed first, so under pressure cheap reads and medium solves keep
// flowing while whole-flow runs — the jobs that would hold a worker for
// tens of seconds — wait out the storm. Reads are never shed.
const (
	shedFlowAt = 0.75
	shedSimAt  = 0.90
)

// admission tracks queue utilization and a smoothed job-duration estimate
// so 429 responses carry an honest Retry-After instead of a constant.
type admission struct {
	mu sync.Mutex
	// ewmaJobSeconds is an exponentially-weighted average of recent job
	// run times, the basis of the Retry-After estimate. Starts at a
	// conservative 1s until real jobs feed it.
	ewmaJobSeconds float64

	util *obs.Gauge
	tr   *obs.Tracer
}

func newAdmission(tr *obs.Tracer) *admission {
	return &admission{
		ewmaJobSeconds: 1,
		util:           tr.Gauge("admission/utilization"),
		tr:             tr,
	}
}

// observe feeds one finished job's run time into the duration estimate.
func (a *admission) observe(runSeconds float64) {
	if runSeconds <= 0 {
		return
	}
	a.mu.Lock()
	const alpha = 0.2
	a.ewmaJobSeconds = (1-alpha)*a.ewmaJobSeconds + alpha*runSeconds
	a.mu.Unlock()
}

// Saturation is the server's queue and worker pressure: what admission
// control keys on and what /healthz reports.
type Saturation struct {
	QueueDepth    int
	QueueCapacity int
	JobsRunning   int
	Workers       int
	InFlight      int64
	Utilization   float64
	Shedding      []string
}

// saturation reads the queue once, so the depth, the running count, the
// utilization and the shed classes it reports describe the same instant.
// Utilization is (queued + running) / (queue capacity + workers): 1.0
// means every worker busy and every queue slot full.
func (s *Server) saturation() Saturation {
	sat := Saturation{
		QueueDepth:    s.queue.Depth(),
		QueueCapacity: s.cfg.QueueDepth,
		JobsRunning:   s.queue.Running(),
		Workers:       s.cfg.Workers,
		InFlight:      s.inFlight.Load(),
	}
	if cap := sat.QueueCapacity + sat.Workers; cap > 0 {
		sat.Utilization = float64(sat.QueueDepth+sat.JobsRunning) / float64(cap)
	}
	sat.Shedding = sheddingClasses(sat.Utilization)
	return sat
}

// sheddingClasses lists the cost classes currently being shed at
// utilization u, most expensive first.
func sheddingClasses(u float64) []string {
	var out []string
	if u >= shedFlowAt {
		out = append(out, "flow")
	}
	if u >= shedSimAt {
		out = append(out, "simulate", "validate")
	}
	return out
}

// shedThreshold returns the utilization above which class is shed
// (math.Inf(1) for classes never shed).
func shedThreshold(class string) float64 {
	switch class {
	case "flow":
		return shedFlowAt
	case "simulate", "validate":
		return shedSimAt
	default:
		return math.Inf(1)
	}
}

// retryAfterSeconds estimates how long until the backlog clears: the
// number of jobs ahead times the smoothed job duration, divided across
// the worker pool, clamped to [1, 60].
func (s *Server) retryAfterSeconds() int {
	s.admission.mu.Lock()
	ewma := s.admission.ewmaJobSeconds
	s.admission.mu.Unlock()
	backlog := s.queue.Depth() + s.queue.Running()
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	secs := int(math.Ceil(float64(backlog) * ewma / float64(workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// admit applies cost-class admission control: when current utilization is
// at or above the class's shed threshold, the request is rejected with
// 429, error kind "shed", and an honest Retry-After. Returns false when
// the request was shed (response already written).
func (s *Server) admit(w http.ResponseWriter, class string) bool {
	u := s.saturation().Utilization
	s.admission.util.Set(u)
	if u < shedThreshold(class) {
		return true
	}
	s.tr.Counter(obs.Labeled("admission/shed_total", "class", class)).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeErrKind(w, http.StatusTooManyRequests, ErrKindShed,
		"shedding %s requests at %.0f%% utilization", class, 100*u)
	return false
}
