package metrics

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// checkExposition validates a Prometheus 0.0.4 text exposition the way a
// scraper's parser would: every non-comment line is `name[{labels}] value`
// with a legal metric name and a parseable value, every sample is preceded
// by a # TYPE declaration for its family, each session's histogram buckets
// are cumulative and end at le="+Inf" with that session's _count. Returns
// the declared families by type.
func checkExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	types := make(map[string]string)
	// Histogram series are keyed by family and session label.
	lastBucket := make(map[string]uint64)  // series -> running cumulative count
	lastInf := make(map[string]uint64)     // series -> +Inf bucket value
	sampleCount := make(map[string]uint64) // series -> _count value
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		name, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("line %d: unparseable value %q: %v", ln+1, val, err)
		}
		labels := ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("line %d: unterminated label set in %q", ln+1, name)
			}
			labels = name[i+1 : len(name)-1]
			name = name[:i]
		}
		for i, r := range name {
			ok := r == '_' || r == ':' ||
				(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
				(r >= '0' && r <= '9' && i > 0)
			if !ok {
				t.Fatalf("line %d: illegal rune %q in metric name %q", ln+1, r, name)
			}
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count", "_max"} {
			if f := strings.TrimSuffix(name, suffix); f != name && types[f] != "" {
				family = f
			}
		}
		if types[family] == "" {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln+1, name)
		}
		if !strings.HasPrefix(labels, "session=") {
			t.Fatalf("line %d: sample %q carries no session label", ln+1, line)
		}
		session, le, _ := strings.Cut(labels, ",")
		series := family + "{" + session + "}"
		if strings.HasSuffix(name, "_bucket") {
			u, _ := strconv.ParseUint(val, 10, 64)
			if u < lastBucket[series] {
				t.Fatalf("line %d: bucket count %d below previous %d (not cumulative)",
					ln+1, u, lastBucket[series])
			}
			lastBucket[series] = u
			if le == `le="+Inf"` {
				lastInf[series] = u
			}
		}
		if strings.HasSuffix(name, "_count") {
			u, _ := strconv.ParseUint(val, 10, 64)
			sampleCount[series] = u
		}
	}
	for series, count := range sampleCount {
		inf, ok := lastInf[series]
		if !ok {
			t.Errorf("histogram %s has no le=\"+Inf\" bucket", series)
		}
		if inf != count {
			t.Errorf("histogram %s: +Inf bucket %d != _count %d", series, inf, count)
		}
	}
	return types
}

// render writes one snapshot as the session-"s1" exposition.
func render(s Snapshot) string {
	var sb strings.Builder
	WritePrometheusFleet(&sb, []LabeledSnapshot{{Label: "s1", Snap: s}})
	return sb.String()
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("umi.traces.seen").Add(17)
	r.Gauge("umi.pool.depth").Set(3)
	h := r.Histogram("umi.analysis.latency", ExpBuckets(1, 4))
	for _, v := range []uint64{1, 2, 2, 3, 9, 100} {
		h.Observe(v)
	}
	out := render(r.Snapshot())

	types := checkExposition(t, out)
	if types["umi_traces_seen"] != "counter" {
		t.Errorf("sanitized counter not declared: %v", types)
	}
	if types["umi_pool_depth"] != "gauge" || types["umi_pool_depth_max"] != "gauge" {
		t.Errorf("gauge and _max companion not declared: %v", types)
	}
	if types["umi_analysis_latency"] != "histogram" {
		t.Errorf("histogram not declared: %v", types)
	}
	for _, want := range []string{
		`umi_traces_seen{session="s1"} 17` + "\n",
		`umi_pool_depth{session="s1"} 3` + "\n",
		`umi_pool_depth_max{session="s1"} 3` + "\n",
		`umi_analysis_latency_sum{session="s1"} 117` + "\n",
		`umi_analysis_latency_count{session="s1"} 6` + "\n",
		`umi_analysis_latency_bucket{session="s1",le="+Inf"} 6` + "\n",
		// bounds 1,2,4,8: cumulative 1,3,4,4 then 9 and 100 overflow
		`umi_analysis_latency_bucket{session="s1",le="1"} 1` + "\n",
		`umi_analysis_latency_bucket{session="s1",le="2"} 3` + "\n",
		`umi_analysis_latency_bucket{session="s1",le="4"} 4` + "\n",
		`umi_analysis_latency_bucket{session="s1",le="8"} 4` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Deterministic: a second render is byte-identical.
	if render(r.Snapshot()) != out {
		t.Error("exposition not deterministic for a fixed snapshot")
	}

	// A fleet declares each family once, then one sample per session that
	// carries it, in slice order.
	other := NewRegistry()
	other.Counter("umi.traces.seen").Add(5)
	var sb strings.Builder
	WritePrometheusFleet(&sb, []LabeledSnapshot{
		{Label: "s1", Snap: r.Snapshot()}, {Label: "s2", Snap: other.Snapshot()},
	})
	fleet := sb.String()
	checkExposition(t, fleet)
	if c := strings.Count(fleet, "# TYPE umi_traces_seen counter\n"); c != 1 {
		t.Errorf("fleet declares umi_traces_seen %d times, want 1", c)
	}
	want := `umi_traces_seen{session="s1"} 17` + "\n" + `umi_traces_seen{session="s2"} 5` + "\n"
	if !strings.Contains(fleet, want) {
		t.Errorf("fleet missing %q:\n%s", want, fleet)
	}
	if strings.Contains(fleet, `umi_pool_depth{session="s2"}`) {
		t.Errorf("fleet rendered a gauge s2 does not carry:\n%s", fleet)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"umi.traces.seen": "umi_traces_seen",
		"9lives":          "_lives",
		"a:b_c9":          "a:b_c9",
		"sp ace-dash":     "sp_ace_dash",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusEmptyAndDiff is the Diff-agreement regression: a
// histogram diffed against an empty snapshot must render identically to
// the original, a self-diff must render as a valid all-zero histogram, and
// a zero-valued HistogramValue (Diff against a never-observed name) must
// still produce a well-formed histogram with an +Inf bucket — never a
// division or a NaN.
func TestWritePrometheusEmptyAndDiff(t *testing.T) {
	if out := render(Snapshot{}); out != "" {
		t.Errorf("empty snapshot rendered %q, want empty", out)
	}

	r := NewRegistry()
	h := r.Histogram("lat", ExpBuckets(1, 2)) // bounds 1,2 + overflow
	h.Observe(1)
	h.Observe(5)
	cur := r.Snapshot()

	if got, want := render(cur.Diff(Snapshot{})), render(cur); got != want {
		t.Errorf("diff against empty differs from original:\n%s\nvs\n%s", got, want)
	}

	self := cur.Diff(cur)
	out := render(self)
	checkExposition(t, out)
	for _, want := range []string{
		`lat_sum{session="s1"} 0` + "\n",
		`lat_count{session="s1"} 0` + "\n",
		`lat_bucket{session="s1",le="+Inf"} 0` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("self-diff missing %q:\n%s", want, out)
		}
	}

	// A zero HistogramValue has no buckets at all; the renderer must
	// synthesize the +Inf bucket.
	zero := Snapshot{Histograms: map[string]HistogramValue{"ghost": {}}}
	out = render(zero)
	checkExposition(t, out)
	if !strings.Contains(out, `ghost_bucket{session="s1",le="+Inf"} 0`+"\n") {
		t.Errorf("zero histogram missing synthesized +Inf bucket:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("zero histogram rendered NaN:\n%s", out)
	}
}

func TestPromOverflowBound(t *testing.T) {
	// A bucket at the MaxUint64 bound must render as +Inf, not as the
	// literal integer.
	s := Snapshot{Histograms: map[string]HistogramValue{
		"h": {Count: 1, Sum: 3, Buckets: []Bucket{{Le: math.MaxUint64, Count: 1}}},
	}}
	out := render(s)
	if strings.Contains(out, fmt.Sprintf("%d", uint64(math.MaxUint64))) {
		t.Errorf("overflow bound leaked as integer:\n%s", out)
	}
	checkExposition(t, out)
}
