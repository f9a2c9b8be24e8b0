package service

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// RequestIDHeader carries the request id: client-chosen on the request
// (see clientToken), always set on the response.
const RequestIDHeader = "X-Request-Id"

// statusWriter records the response status and body size for metrics and
// request logs.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// routeLabel normalizes a request path onto the fixed route set so metric
// label cardinality stays bounded no matter what clients send.
func routeLabel(path string) string {
	switch path {
	case "/v1/flow", "/v1/simulate", "/v1/gates/validate", "/v1/gates", "/v1/batch",
		"/v1/defects/sweep", "/healthz", "/metrics", "/debug/flightrecorder":
		return path
	}
	if strings.HasPrefix(path, "/v1/jobs/") {
		if strings.HasSuffix(path, "/trace") {
			return "/v1/jobs/{id}/trace"
		}
		return "/v1/jobs/{id}"
	}
	if strings.HasPrefix(path, "/v1/traces/") {
		return "/v1/traces/{id}"
	}
	return "other"
}

// costClass maps a normalized route onto its SLO objective: the compute
// endpoints carry their admission class's latency budget, everything else
// is a cheap read.
func costClass(route string) string {
	if route == "/v1/batch" {
		// A batch is billed at its most expensive possible class.
		return "flow"
	}
	if rt := findRoute(func(rt *opRoute) bool { return rt.path == route }); rt != nil {
		return rt.class
	}
	return "read"
}

// newRequestID returns a fresh 16-hex-char request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// clientToken returns the client-chosen token in header (X-Request-Id or
// Idempotency-Key) when it is safe to propagate and store: at most 64
// characters of [A-Za-z0-9._-]. Otherwise it returns "".
func clientToken(r *http.Request, header string) string {
	tok := r.Header.Get(header)
	if len(tok) > 64 {
		return ""
	}
	for _, c := range tok {
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return ""
		}
	}
	return tok
}

// instrument is the observability middleware: it assigns (or validates
// and propagates) the request ID, tracks in-flight saturation, measures
// per-route latency into Prometheus-exposed histograms, feeds the
// rolling health window, and emits one structured JSON log line per
// request.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// The request id is client-chosen and validated on the request,
		// always set on the response.
		rid := clientToken(r, RequestIDHeader)
		if rid == "" {
			rid = newRequestID()
		}
		w.Header().Set(RequestIDHeader, rid)
		ctx := obs.ContextWithRequestID(r.Context(), rid)
		r = r.WithContext(ctx)

		s.tr.Gauge("http/in_flight_requests").Set(float64(s.inFlight.Add(1)))
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		s.tr.Gauge("http/in_flight_requests").Set(float64(s.inFlight.Add(-1)))

		dur := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		route := routeLabel(r.URL.Path)
		s.tr.Counter(obs.Labeled("http/requests_total",
			"method", r.Method, "path", route, "code", strconv.Itoa(status))).Inc()
		s.tr.Histogram(obs.Labeled("http/request_duration_seconds", "path", route),
			obs.DefBuckets...).Observe(dur.Seconds())
		s.window.Observe(dur.Seconds(), status >= 500)
		s.slo.Observe(costClass(route), dur.Seconds(), status >= 500)

		if s.log.Enabled(ctx, slog.LevelInfo) {
			args := []any{
				"request_id", rid,
				"method", r.Method,
				"path", r.URL.Path,
				"route", route,
				"status", status,
				"bytes", sw.bytes,
				"duration_ms", float64(dur.Microseconds()) / 1000,
			}
			if cache := sw.Header().Get("X-Cache"); cache != "" {
				args = append(args, "cache", cache)
			}
			if job := sw.Header().Get("X-Job-Id"); job != "" {
				args = append(args, "job_id", job)
			}
			s.log.Info("http_request", args...)
		}
	})
}
