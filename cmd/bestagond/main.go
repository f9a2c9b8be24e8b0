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
//	POST   /v1/defects/sweep   defect yield sweep over the library (cancellable job)
//	GET    /v1/gates           list library variant keys
//	GET    /v1/jobs/{id}       job status (and result once done)
//	GET    /v1/jobs/{id}/trace per-job stage timeline (spans + attributes)
//	DELETE /v1/jobs/{id}       cancel a job
//	GET    /v1/traces/{id}     retained trace by job or request id
//	GET    /debug/flightrecorder  flight-recorder summary (retained trace headers)
//	GET    /healthz            liveness + saturation/latency/SLO snapshot
//	GET    /metrics            Prometheus text exposition
//
// Concurrent identical requests coalesce onto one solve, and every
// response carries its X-Request-Id, so logs and traces correlate by it.
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
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

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
