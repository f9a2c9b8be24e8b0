package obs

import "context"

type ctxKey int

const requestIDKey ctxKey = iota

// ContextWithRequestID tags a context with an HTTP request ID so that
// flow spans started underneath (core.RunContext and friends) can record
// which request caused them. An empty id returns ctx unchanged.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFromContext returns the request ID tagged onto the context, or
// "" when absent.
func RequestIDFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}
