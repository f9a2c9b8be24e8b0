package obs

import (
	"context"
	"io"
	"log/slog"
	"strings"
	"time"
)

// NewLogger returns the bestagond log format: one JSON object per line
// with the keys ts (UTC, RFC 3339 with nanoseconds), level (lower case)
// and msg, then the logger's With fields, then the call's fields. Lines
// below level are dropped.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) > 0 {
				return a
			}
			switch a.Key {
			case slog.TimeKey:
				return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
			case slog.LevelKey:
				return slog.String(slog.LevelKey, strings.ToLower(a.Value.Any().(slog.Level).String()))
			}
			return a
		},
	}))
}

// Discard is the logger of a component configured without one: it is
// never enabled and drops every line. (slog.DiscardHandler needs Go 1.24.)
var Discard = slog.New(discardHandler{})

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
