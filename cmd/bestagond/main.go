// Command bestagond runs the Bestagon design flow as a long-running HTTP
// service: a JSON API over flow runs, ground-state simulation, and gate
// validation, backed by a bounded job queue with a worker pool,
// content-addressed result caching, and flow-wide cooperative
// cancellation (per-job deadlines, client disconnects, graceful drain).
//
// Usage:
//
//	bestagond                                 # listen on :8711, 2 workers
//	bestagond -addr :9000 -workers 8
//	bestagond -cache-size 256 -cache-dir /var/cache/bestagond
//	bestagond -journal-dir /var/lib/bestagond/journal -recover resubmit
//	bestagond -solver quickexact -job-timeout 5m
//	bestagond -log-level debug                # structured request logs
//	bestagond -pprof-addr localhost:6060      # live profiling endpoint
//	bestagond -report server-report.json      # written on shutdown
//	bestagond -faults 'cache.disk.read=p:0.2' # chaos testing (see internal/faults)
//
// Endpoints:
//
//	POST   /v1/flow            run the full flow (sync, or async with job id)
//	POST   /v1/simulate        ground-state simulate a gate tile or dot list
//	POST   /v1/gates/validate  validate a library tile against its truth table
//	POST   /v1/batch           canonicalize, deduplicate, and fan out sub-requests in one job
//	GET    /v1/gates           list library variant keys
//	GET    /v1/jobs/{id}       job status (and result once done)
//	GET    /v1/jobs/{id}/trace per-job stage timeline (spans + attributes)
//	DELETE /v1/jobs/{id}       cancel a job
//	GET    /v1/traces/{id}     retained trace by job or request id (stitched across the fleet)
//	GET    /v1/cluster/overview  fleet-wide saturation/cache/SLO overview from any member
//	GET    /debug/flightrecorder  flight-recorder summary (retained trace headers)
//	GET    /healthz            liveness + saturation/latency/SLO snapshot (and cluster state)
//	GET    /metrics            Prometheus text exposition
//	GET/PUT /internal/cache/{key}  peer-cache protocol (fleet mode; secret or loopback only)
//	GET    /internal/trace/{id}    peer trace lookup for stitching (fleet mode)
//	GET    /internal/stats         peer stats snapshot for the overview plane (fleet mode)
//
// Fleet mode (-peers) turns a set of replicas into a cluster: consistent
// hashing over the canonical cache keys routes each request to its owner
// replica, local misses consult the owner's cache before solving, and
// concurrent identical requests fleet-wide coalesce onto one solve.
// Request ids and span parents propagate on every intra-fleet hop, so
// traces stitch across replicas and logs correlate by X-Request-Id:
//
//	bestagond -addr :8711 -peers 127.0.0.1:8712,127.0.0.1:8713 -cluster-secret s3cret
//
// On SIGINT/SIGTERM the listener stops accepting requests and in-flight
// jobs are drained; jobs still running when the grace period expires are
// canceled mid-search (the SAT, branch-and-bound, and QuickSim loops all
// honor cancellation).
//
// With -journal-dir set, every submission is fsynced to a write-ahead
// journal before its job id is returned. After a crash (SIGKILL, OOM,
// power loss) the journal replays on restart, so every pre-crash job id
// still answers on /v1/jobs/{id}: as failed with error_kind
// "interrupted" by default, or — with -recover resubmit — as a
// re-enqueued run of the journaled request bytes under the same id.
// Client retries can reattach to submissions via an Idempotency-Key
// request header.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
)

func main() {
	var (
		addr       = flag.String("addr", ":8711", "listen address")
		workers    = flag.Int("workers", 2, "job worker pool size")
		queueDepth = flag.Int("queue-depth", 0, "queued-job bound (default 4*workers); full queue returns 429")
		jobTimeout = flag.Duration("job-timeout", 10*time.Minute, "default per-job deadline (0 = none); requests may shorten it via timeout_ms")
		cacheSize  = flag.Int64("cache-size", 64, "in-memory result cache bound in MiB")
		cacheDir   = flag.String("cache-dir", "", "directory for the persistent cache tier: flow artifacts, ground states and gate validations (empty = memory only)")
		journalDir = flag.String("journal-dir", "", "directory for the write-ahead job journal (empty = jobs are lost on crash)")
		recovMode  = flag.String("recover", "fail", "what to do with jobs the journal shows queued/running at crash: fail (surface as error_kind interrupted) or resubmit (re-enqueue from journaled request bytes)")
		solver     = flag.String("solver", "", "default ground-state solver: "+strings.Join(sim.SolverNames(), ", ")+" (default auto)")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "shutdown grace period before in-flight jobs are canceled")
		logLevel   = flag.String("log-level", "info", "structured log threshold: debug, info, warn, error")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
		maxBody    = flag.Int64("max-body", 1, "request body bound in MiB (oversized bodies get 413)")
		report     = flag.String("report", "", "write a JSON metrics report to FILE on shutdown ('-' for stdout)")

		faultSpec = flag.String("faults", "", "arm fault injection, e.g. 'cache.disk.read=p:0.2;service.job.panic=n:5' (also via BESTAGOND_FAULTS); chaos testing only")
		faultSeed = flag.Int64("faults-seed", 1, "seed for probabilistic fault triggers (deterministic replay)")
		sloShort  = flag.Duration("slo-short-window", 5*time.Minute, "short SLO burn-rate window")
		sloLong   = flag.Duration("slo-long-window", time.Hour, "long SLO burn-rate window")

		peers         = flag.String("peers", "", "comma-separated peer addresses (host:port) for fleet mode; empty = single replica")
		selfAddr      = flag.String("self", "", "this replica's advertised address (default 127.0.0.1<addr> when -addr is :port)")
		clusterSecret = flag.String("cluster-secret", "", "shared secret guarding the peer-cache protocol (also via BESTAGOND_CLUSTER_SECRET); empty = loopback peers only")
		probeInterval = flag.Duration("probe-interval", time.Second, "peer health-probe period in fleet mode")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(err)
	}
	logger := obs.NewLogger(os.Stderr, level).With("service", "bestagond")

	tr := obs.New()

	// Fault injection (chaos testing): the flag wins over the environment
	// variable so a one-off run can override a deployment-wide setting.
	spec := *faultSpec
	if spec == "" {
		spec = os.Getenv("BESTAGOND_FAULTS")
	}
	if spec != "" {
		if err := faults.Arm(spec, *faultSeed); err != nil {
			fatal(err)
		}
		tr.Gauge("faults/armed").Set(1)
		logger.Warn("faults_armed", "spec", spec, "seed", *faultSeed)
	}

	// Fleet mode: a static peer list makes this replica part of a cluster
	// with consistent-hash ownership, a peer cache tier, and fleet-wide
	// single-flight deduplication (see internal/cluster).
	var clusterCfg *cluster.Config
	if *peers != "" {
		self := *selfAddr
		if self == "" {
			if strings.HasPrefix(*addr, ":") {
				self = "127.0.0.1" + *addr
			} else if host, _, err := net.SplitHostPort(*addr); err == nil && host != "" && host != "0.0.0.0" && host != "::" {
				self = *addr
			} else {
				fatal(fmt.Errorf("-self is required when -addr (%q) has no concrete host", *addr))
			}
		}
		secret := *clusterSecret
		if secret == "" {
			secret = os.Getenv("BESTAGOND_CLUSTER_SECRET")
		}
		clusterCfg = &cluster.Config{
			Self:          self,
			Peers:         strings.Split(*peers, ","),
			Secret:        secret,
			ProbeInterval: *probeInterval,
		}
		logger.Info("cluster_enabled",
			"self", self,
			"peers", *peers,
			"secured", secret != "")
	}

	srv, err := service.New(service.Config{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		JobTimeout:   *jobTimeout,
		CacheBytes:   *cacheSize << 20,
		CacheDir:     *cacheDir,
		Solver:       *solver,
		Tracer:       tr,
		Logger:       logger,
		MaxBodyBytes: *maxBody << 20,
		SLOWindows:   []time.Duration{*sloShort, *sloLong},
		Cluster:      clusterCfg,
		JournalDir:   *journalDir,
		RecoverMode:  *recovMode,
		DrainGrace:   *drainGrace,
	})
	if err != nil {
		fatal(err)
	}

	// net/http's own complaints (a superfluous WriteHeader, a failed TLS
	// handshake) join the JSON stream at warn instead of plain stderr text.
	hs := &http.Server{
		Addr:     *addr,
		Handler:  srv.Handler(),
		ErrorLog: slog.NewLogLogger(logger.Handler(), slog.LevelWarn),
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The profiler listens on its own (ideally loopback-only) address so
	// the pprof handlers never ride on the public API listener.
	if *pprofAddr != "" {
		go func() {
			logger.Info("pprof_listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof_server_failed", "error", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", *workers)
		errCh <- hs.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		logger.Info("shutdown_signal", "grace", drainGrace.String())
	case err := <-errCh:
		fatal(err)
	}

	// Stop accepting connections, then drain the job queue. Jobs still
	// running when the grace period expires are canceled cooperatively.
	grace, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := hs.Shutdown(grace); err != nil {
		logger.Warn("http_shutdown", "error", err)
	}
	if err := srv.Drain(grace); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("drain_failed", "error", err)
	} else if errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("drain_grace_expired")
	}

	if *report != "" {
		data, err := tr.Report("bestagond").JSON()
		if err != nil {
			fatal(err)
		}
		if *report == "-" {
			fmt.Printf("%s\n", data)
		} else if err := os.WriteFile(*report, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		} else {
			logger.Info("report_written", "file", *report)
		}
	}
	st := srv.CacheStats()
	logger.Info("exit",
		"cache_entries", st.Entries,
		"cache_bytes", st.Bytes,
		"cache_hit_rate", st.HitRate())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bestagond:", err)
	os.Exit(1)
}
