package obs

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"os"
	"strings"
	"testing"
	"time"
)

// TestLoggerJSONLine feeds the daemon's handler the README's example
// request and compares the output with the README line byte for byte.
// The record's time is in a +02:00 zone: the line must carry it in UTC.
func TestLoggerJSONLine(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, `{"ts":`) && strings.Contains(line, `"msg":"http_request"`) {
			want = line + "\n"
		}
	}
	if want == "" {
		t.Fatal("README has no example http_request log line")
	}

	var buf bytes.Buffer
	h := NewLogger(&buf, slog.LevelInfo).With("service", "bestagond").Handler()
	ts := time.Date(2026, 8, 5, 14, 0, 0, 41273519, time.FixedZone("CEST", 2*3600))
	r := slog.NewRecord(ts, slog.LevelInfo, "http_request", 0)
	r.Add("request_id", "8f3c2a1b9d4e5f60", "method", "POST", "path", "/v1/simulate",
		"route", "/v1/simulate", "status", 200, "bytes", int64(412), "duration_ms", 3.21,
		"cache", "miss", "job_id", "j00000007")
	if err := h.Handle(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Fatalf("line = %q\nwant   %q", got, want)
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo)
	l.Debug("dropped")
	if buf.Len() != 0 || l.Enabled(context.Background(), slog.LevelDebug) {
		t.Fatalf("a debug line passed an info logger: %q", buf.String())
	}
	l.Warn("kept")
	if got := buf.String(); !strings.Contains(got, `"level":"warn","msg":"kept"`) {
		t.Fatalf("warn line = %q", got)
	}
}

// TestLoggerWithFieldsAndErr checks the key order ts, level, msg, With
// fields, call fields, and that an error value logs as its message.
func TestLoggerWithFieldsAndErr(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, slog.LevelInfo).With("request_id", "abc123").
		Error("job failed", "error", errors.New("boom"), "job_id", "j00000001")
	got := buf.String()
	want := `"level":"error","msg":"job failed","request_id":"abc123","error":"boom","job_id":"j00000001"}` + "\n"
	if !strings.HasPrefix(got, `{"ts":"`) || !strings.HasSuffix(got, want) {
		t.Fatalf("line = %q, want ts first and suffix %q", got, want)
	}
}

func TestDiscardLogger(t *testing.T) {
	if Discard.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("Discard reports an enabled level")
	}
	Discard.With("a", 1).WithGroup("g").Error("ignored", "k", "v")
}
