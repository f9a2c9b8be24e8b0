package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file renders tracer metrics in the Prometheus text exposition
// format (version 0.0.4). Metric names may carry Prometheus-style labels
// inline — `family{key="value",...}` as produced by Labeled — and every
// name sharing a family is emitted as one metric family with a single
// `# TYPE` header. Histograms are rendered with cumulative
// `family_bucket{le="..."}` series (including the trailing `le="+Inf"`
// bucket equal to the observation count) plus `family_sum` and
// `family_count`, which the previous ad-hoc "name value" renderer
// silently dropped.

// ExpositionContentType is the Content-Type a /metrics handler should
// send with WriteExposition output.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// DefBuckets are default latency histogram bounds in seconds, spanning
// sub-millisecond cache hits to minute-scale exact solves.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Labeled composes a metric name with Prometheus-style labels:
//
//	Labeled("http_requests_total", "method", "POST", "code", "200")
//	→ `http_requests_total{method="POST",code="200"}`
//
// Label values are escaped per the exposition format. Each distinct label
// combination names a distinct metric on the tracer; the exposition
// writer groups them back into one family. Labeled panics on an odd
// number of key/value arguments (a programming error).
func Labeled(family string, kv ...string) string {
	if len(kv)%2 != 0 {
		panic("obs: Labeled requires key/value pairs")
	}
	if len(kv) == 0 {
		return family
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// splitName separates a metric name into its sanitized family and the raw
// label block ("" when unlabeled).
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		family, labels = name[:i], name[i:]
		if !strings.HasSuffix(labels, "}") { // malformed; fold into family
			return sanitizeFamily(name), ""
		}
		return sanitizeFamily(family), labels
	}
	return sanitizeFamily(name), ""
}

// sanitizeFamily maps an internal metric name onto the Prometheus name
// charset [a-zA-Z0-9_:]: slashes (the tracer's namespace separator) and
// any other invalid rune become underscores, and a leading digit is
// prefixed.
func sanitizeFamily(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promSample is one labeled series within a family.
type promSample struct {
	labels string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// promFamily groups every label combination of one metric family.
type promFamily struct {
	typ     string // "counter", "gauge", "histogram"
	samples []promSample
}

// WriteExposition renders every metric registered on the tracer in the
// Prometheus text exposition format. help maps sanitized family names to
// `# HELP` text (families without an entry get no HELP line). Output is
// deterministic: families sort by name, series by label block. Nil
// tracers write nothing.
func (t *Tracer) WriteExposition(w io.Writer, help map[string]string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	counters := make(map[string]*Counter, len(t.counters))
	for n, c := range t.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(t.gauges))
	for n, g := range t.gauges {
		gauges[n] = g
	}
	histograms := make(map[string]*Histogram, len(t.histograms))
	for n, h := range t.histograms {
		histograms[n] = h
	}
	t.mu.Unlock()

	families := map[string]*promFamily{}
	collect := func(name, typ string, s promSample) {
		family, labels := splitName(name)
		f, ok := families[family]
		if !ok {
			f = &promFamily{typ: typ}
			families[family] = f
		}
		if f.typ != typ {
			// A family must hold one metric type; a collision is a naming
			// bug — keep the first type and drop the stray sample rather
			// than emit an invalid exposition.
			return
		}
		s.labels = labels
		f.samples = append(f.samples, s)
	}
	for n, c := range counters {
		collect(n, "counter", promSample{c: c})
	}
	for n, g := range gauges {
		collect(n, "gauge", promSample{g: g})
	}
	for n, h := range histograms {
		collect(n, "histogram", promSample{h: h})
	}

	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, fam := range names {
		f := families[fam]
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].labels < f.samples[j].labels })
		if h, ok := help[fam]; ok && h != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", fam, escapeHelp(h))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam, f.typ)
		for _, s := range f.samples {
			switch f.typ {
			case "counter":
				fmt.Fprintf(&b, "%s%s %s\n", fam, s.labels, formatValue(float64(s.c.Value())))
			case "gauge":
				fmt.Fprintf(&b, "%s%s %s\n", fam, s.labels, formatValue(s.g.Value()))
			case "histogram":
				writeHistogram(&b, fam, s.labels, s.h)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative buckets, the
// +Inf bucket, then _sum and _count.
func writeHistogram(b *strings.Builder, fam, labels string, h *Histogram) {
	bounds, counts := h.Buckets()
	var cum int64
	for i, bound := range bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", fam, mergeLE(labels, formatValue(bound)), cum)
	}
	if len(counts) > 0 {
		cum += counts[len(counts)-1]
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", fam, mergeLE(labels, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", fam, labels, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", fam, labels, h.Count())
}

// mergeLE appends the le label to an existing label block (or starts one).
func mergeLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// StageObserver is a span Sink that aggregates span durations into
// labeled histograms on a (typically process-lifetime) tracer: every
// ended span observes its duration into Family{stage="<span name>"}
// over DefBuckets.
// Attaching one to short-lived per-job tracers turns each job's stage
// timeline into service-wide per-stage latency histograms — queue a
// StageObserver pointed at the server tracer and /metrics exposes
// request-attributable SAT, P&R, and simulation latency distributions.
type StageObserver struct {
	// Tracer receives the aggregated histograms; it should be a
	// longer-lived tracer than the ones being observed so the aggregates
	// survive the individual jobs.
	Tracer *Tracer
	// Family is the histogram family name, e.g. "flow_stage_seconds".
	Family string
	// Attrs additionally folds numeric span attributes into their own
	// labeled histograms, turning per-job solver-depth annotations (SAT
	// conflict and decision counts, ...) into service-wide
	// distributions without a second reporting path.
	Attrs []AttrHistogram
}

// AttrHistogram tells a StageObserver to observe a numeric span
// attribute into Family{stage="<span name>"} on the target tracer.
// Spans without the attribute (or with a non-numeric value) are skipped.
type AttrHistogram struct {
	// Key is the span attribute to observe (e.g. "conflicts").
	Key string
	// Family is the histogram family (e.g. "sat_conflicts_per_solve").
	Family string
	// Bounds are the bucket bounds (nil = DefBuckets).
	Bounds []float64
}

// SpanEnd implements Sink.
func (o *StageObserver) SpanEnd(s *Span) {
	if o == nil || o.Tracer == nil || s == nil {
		return
	}
	o.Tracer.Histogram(Labeled(o.Family, "stage", s.Name()), DefBuckets...).
		Observe(s.Duration().Seconds())
	for _, ah := range o.Attrs {
		v, ok := attrFloat(s.Attr(ah.Key))
		if !ok {
			continue
		}
		b := ah.Bounds
		if b == nil {
			b = DefBuckets
		}
		o.Tracer.Histogram(Labeled(ah.Family, "stage", s.Name()), b...).Observe(v)
	}
}

// attrFloat coerces the numeric attribute types spans actually carry.
func attrFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint:
		return float64(x), true
	case uint32:
		return float64(x), true
	case uint64:
		return float64(x), true
	default:
		return 0, false
	}
}
