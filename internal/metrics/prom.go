package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of session-labelled
// Snapshots, so any standard scraper can poll the runtime's
// self-observability registries mid-run. The mapping:
//
//   - counters  → counter samples
//   - gauges    → a gauge sample plus a companion <name>_max gauge for the
//     high-water mark (Prometheus has no native max-tracking gauge)
//   - histograms → classic cumulative-bucket histograms: the registry
//     stores per-bucket counts, so buckets are accumulated here, with the
//     overflow bucket rendered as le="+Inf" and _sum/_count appended
//
// Metric names are sanitized to the Prometheus grammar (dots and every
// other illegal rune become underscores). Output is name-sorted, so a
// fixed snapshot renders byte-identically.

// PromContentType is the Content-Type an HTTP handler should serve the
// exposition under.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promName sanitizes a registry metric name ("umi.traces.seen") into a
// Prometheus metric name ("umi_traces_seen").
func promName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			r = '_'
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// LabeledSnapshot pairs one snapshot with the value of its `session`
// label in a fleet exposition.
type LabeledSnapshot struct {
	Label string
	Snap  Snapshot
}

// labelEscape escapes a label value per the exposition grammar.
func labelEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// sampleLabels renders the label set for one sample: the session label
// joined with any extra pre-rendered `k="v"` pairs.
func sampleLabels(session string, extra ...string) string {
	parts := append([]string{fmt.Sprintf("session=%q", labelEscape(session))}, extra...)
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheusFleet renders many sessions' snapshots as one valid text
// exposition: metric families are grouped across sessions — each family's
// TYPE line appears exactly once, followed by one labeled sample per
// session carrying it — because the exposition format forbids repeating a
// family. Sessions render in slice order (the caller sorts by label);
// family names sort within each metric kind, so a fixed fleet renders
// byte-identically.
func WritePrometheusFleet(w io.Writer, sessions []LabeledSnapshot) {
	family := func(collect func(Snapshot) []string) []string {
		seen := map[string]bool{}
		var names []string
		for _, ls := range sessions {
			for _, n := range collect(ls.Snap) {
				if !seen[n] {
					seen[n] = true
					names = append(names, n)
				}
			}
		}
		sort.Strings(names)
		return names
	}

	for _, n := range family(func(s Snapshot) []string { return mapKeys(s.Counters) }) {
		pn := promName(n)
		fmt.Fprintf(w, "# TYPE %s counter\n", pn)
		for _, ls := range sessions {
			if v, ok := ls.Snap.Counters[n]; ok {
				fmt.Fprintf(w, "%s%s %d\n", pn, sampleLabels(ls.Label), v)
			}
		}
	}

	for _, n := range family(func(s Snapshot) []string { return mapKeys(s.Gauges) }) {
		pn := promName(n)
		fmt.Fprintf(w, "# TYPE %s gauge\n", pn)
		for _, ls := range sessions {
			if g, ok := ls.Snap.Gauges[n]; ok {
				fmt.Fprintf(w, "%s%s %d\n", pn, sampleLabels(ls.Label), g.Value)
			}
		}
		fmt.Fprintf(w, "# TYPE %s_max gauge\n", pn)
		for _, ls := range sessions {
			if g, ok := ls.Snap.Gauges[n]; ok {
				fmt.Fprintf(w, "%s_max%s %d\n", pn, sampleLabels(ls.Label), g.Max)
			}
		}
	}

	for _, n := range family(func(s Snapshot) []string { return mapKeys(s.Histograms) }) {
		pn := promName(n)
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		for _, ls := range sessions {
			h, ok := ls.Snap.Histograms[n]
			if !ok {
				continue
			}
			cum := uint64(0)
			for _, b := range h.Buckets {
				cum += b.Count
				le := "+Inf"
				if b.Le != math.MaxUint64 {
					le = fmt.Sprintf("%d", b.Le)
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", pn, sampleLabels(ls.Label, fmt.Sprintf("le=%q", le)), cum)
			}
			if len(h.Buckets) == 0 {
				// An empty bucket list (a zero-valued HistogramValue, e.g.
				// out of Snapshot.Diff against a never-observed name) still
				// needs the +Inf bucket for the exposition to be a valid
				// histogram.
				fmt.Fprintf(w, "%s_bucket%s %d\n", pn, sampleLabels(ls.Label, `le="+Inf"`), h.Count)
			}
			fmt.Fprintf(w, "%s_sum%s %d\n", pn, sampleLabels(ls.Label), h.Sum)
			fmt.Fprintf(w, "%s_count%s %d\n", pn, sampleLabels(ls.Label), h.Count)
		}
	}
}

func mapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
