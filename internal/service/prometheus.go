package service

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// WritePrometheus renders the daemon's operational counters in the
// Prometheus text exposition format (version 0.0.4) — the same numbers
// /v1/stats serves as JSON, shaped for a scraper: monotone counters carry
// the _total suffix, the per-algorithm latency histograms become native
// Prometheus histograms with cumulative le buckets in seconds.
//
// The implementation is hand-rolled on purpose: the repository takes no
// dependencies beyond the standard library, and the format is a dozen
// lines of text.
func (m *Metrics) WritePrometheus(w io.Writer) { m.writeExposition(w, false) }

// WriteOpenMetrics renders the same families in the OpenMetrics text
// format (version 1.0.0): counter metadata drops the _total suffix from
// the family name (samples keep it), the exposition ends with # EOF, and
// histogram buckets carry `# {trace_id="..."} value ts` exemplars
// pointing at the trace behind their latest traced observation — the
// jump from "this bucket is slow" to GET /v1/traces/{id} (or the
// collector's view of the exported span tree).
//
// One emitter serves both formats, and both render signals, so neither
// can drift from the other or from /v1/stats.
func (m *Metrics) WriteOpenMetrics(w io.Writer) { m.writeExposition(w, true) }

func (m *Metrics) writeExposition(w io.Writer, om bool) {
	if m == nil {
		return
	}
	// Scalars render from one snapshot, so each sample is exactly the
	// value /v1/stats would report at that instant.
	s := m.Snapshot()
	for i := range signals {
		sig := &signals[i]
		if sig.derive != nil {
			continue // /v1/stats only: a scraper derives it
		}
		// In OpenMetrics the family name in HELP/TYPE is the sample name
		// minus the counter's mandatory _total suffix; classic text
		// repeats the full name in both places.
		family := sig.name
		if om && sig.typ == "counter" {
			family = strings.TrimSuffix(family, "_total")
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", family, sig.help, family, sig.typ)
		switch p := sig.stat(&s).(type) {
		case *int64:
			fmt.Fprintf(w, "%s %d\n", sig.name, *p)
		case *float64:
			fmt.Fprintf(w, "%s %g\n", sig.name, *p)
		default:
			for _, se := range m.series(sig) {
				writeHistogram(w, sig.name, sig.label, se, om)
			}
		}
	}
	if om {
		io.WriteString(w, "# EOF\n")
	}
}

// writeHistogram renders one labeled histogram: cumulative le buckets in
// seconds, then _sum and _count. In OpenMetrics each bucket also carries
// its exemplar.
func writeHistogram(w io.Writer, name, label string, se series, om bool) {
	h := se.h
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = fmt.Sprintf("%g", h.bounds[i].Seconds())
		}
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d", name, label, se.value, le, cum)
		if om {
			// The exemplar stays on the observation's native bucket, so
			// its value is always within this le bound as the spec
			// requires (cumulative buckets would otherwise let it leak
			// upward).
			if ex := h.exemplars[i].Load(); ex != nil {
				fmt.Fprintf(w, " # {trace_id=%q} %g %.3f", ex.traceID, ex.value, float64(ex.atNanos)/1e9)
			}
		}
		io.WriteString(w, "\n")
	}
	fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, se.value, time.Duration(h.sum.Load()).Seconds())
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, se.value, h.total.Load())
}
