package introspect

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"umi/internal/metrics"
	"umi/internal/rio"
	"umi/internal/tracelog"
	"umi/internal/umi"
	"umi/internal/vm"
)

// The per-session observation routes, driven through the daemon's route
// table: real runs for the payloads a run produces, and adopted idle
// systems carrying hand-built event rings where a test needs exact ring
// accounting.

// get performs one GET against the daemon and returns status and body.
func get(t *testing.T, base, path string) (int, string) {
	t.Helper()
	code, body := doReq(t, http.MethodGet, base+path, nil)
	return code, string(body)
}

// runOne creates and runs a session and returns its id.
func runOne(t *testing.T, base string, cfg SessionConfig) string {
	t.Helper()
	id := createSession(t, base, cfg)
	if code, body := doReq(t, http.MethodPost, base+"/sessions/"+id+"/run", nil); code != http.StatusOK {
		t.Fatalf("run %s: status %d, body %s", id, code, body)
	}
	return id
}

// adoptIdle adopts a System that never runs, with elog as its event ring,
// so the event routes serve exactly what the test emitted.
func adoptIdle(t *testing.T, d *Daemon, elog *tracelog.Log) string {
	t.Helper()
	cfg := tinyConfig(0)
	prog, err := cfg.guestProgram()
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog, cfg.platform().Hierarchy(false))
	sys := umi.Attach(rio.NewRuntime(m), cfg.umiConfig(nil))
	id, _ := d.Adopt("idle", sys, elog)
	return id
}

// parseProm checks a text exposition the way a scraper would — every
// sample preceded by its family's TYPE line, values parseable — and
// returns the declared types and the samples by full name with labels.
func parseProm(t *testing.T, body string) (map[string]string, map[string]float64) {
	t.Helper()
	types := make(map[string]string)
	samples := make(map[string]float64)
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			types[f[2]] = f[3]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %d: unparseable value in %q", ln+1, line)
		}
		name := line[:sp]
		family, _, _ := strings.Cut(name, "{")
		declared := false
		for _, suffix := range []string{"", "_bucket", "_sum", "_count", "_max"} {
			if f, ok := strings.CutSuffix(family, suffix); ok && types[f] != "" {
				declared = true
			}
		}
		if !declared {
			t.Fatalf("line %d: sample %q before its TYPE line", ln+1, line)
		}
		samples[name] = v
	}
	return types, samples
}

func TestMetricsEndpoint(t *testing.T) {
	_, base := startDaemon(t, DaemonConfig{})
	id := runOne(t, base, tinyConfig(0))

	code, body := get(t, base, "/sessions/"+id+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics is not a Snapshot: %v\n%s", err, body)
	}
	if snap.Counter("umi.traces.seen") == 0 {
		t.Error("finished run's snapshot counts no traces")
	}
}

// TestMetricsDeltaEndpoint: the first delta scrape of a session reports
// cumulative values, the next only the interval — and the delta state is
// per session, so scraping one leaves the other's first delta intact.
func TestMetricsDeltaEndpoint(t *testing.T) {
	_, base := startDaemon(t, DaemonConfig{})
	a, b := runOne(t, base, tinyConfig(0)), runOne(t, base, tinyConfig(0))

	counter := func(path string) uint64 {
		t.Helper()
		code, body := get(t, base, path)
		if code != http.StatusOK {
			t.Fatalf("%s status = %d", path, code)
		}
		var d metrics.Snapshot
		if err := json.Unmarshal([]byte(body), &d); err != nil {
			t.Fatal(err)
		}
		return d.Counter("umi.traces.seen")
	}
	total := counter("/sessions/" + a + "/metrics")
	if total == 0 {
		t.Fatal("run counted no traces")
	}
	if got := counter("/sessions/" + a + "/metrics/delta"); got != total {
		t.Errorf("first delta = %d, want cumulative %d", got, total)
	}
	// The run is finished, so the second interval is empty.
	if got := counter("/sessions/" + a + "/metrics/delta"); got != 0 {
		t.Errorf("second delta = %d, want 0", got)
	}
	if got, want := counter("/sessions/"+b+"/metrics/delta"), counter("/sessions/"+b+"/metrics"); got != want {
		t.Errorf("session %s first delta = %d, want its cumulative %d", b, got, want)
	}
}

func TestEventsEndpoint(t *testing.T) {
	d, base := startDaemon(t, DaemonConfig{})
	l := tracelog.NewLog(16)
	for i := 0; i < 20; i++ { // ring cap 16: four drops
		l.Emit(tracelog.Event{Type: tracelog.EvTracePromoted, Cycles: uint64(i)})
	}
	id := adoptIdle(t, d, l)

	_, body := get(t, base, "/sessions/"+id+"/events")
	var p struct {
		Total  uint64           `json:"total"`
		Drops  uint64           `json:"drops"`
		Cap    int              `json:"cap"`
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("events is not valid JSON: %v\n%s", err, body)
	}
	if p.Total != 20 || p.Drops != 4 || p.Cap != 16 || len(p.Events) != 16 {
		t.Errorf("payload = total %d drops %d cap %d events %d, want 20/4/16/16",
			p.Total, p.Drops, p.Cap, len(p.Events))
	}
	if p.Events[0]["type"] != "trace.promoted" {
		t.Errorf("event type = %v, want trace.promoted", p.Events[0]["type"])
	}

	// ?n limits to the most recent n.
	_, body = get(t, base, "/sessions/"+id+"/events?n=3")
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 3 {
		t.Errorf("?n=3 returned %d events", len(p.Events))
	}

	for _, bad := range []string{"bogus", "-1"} {
		if code, _ := get(t, base, "/sessions/"+id+"/events?n="+bad); code != http.StatusBadRequest {
			t.Errorf("?n=%s status = %d, want 400", bad, code)
		}
	}

	// A daemon-run session records its own ring.
	run := runOne(t, base, tinyConfig(0))
	_, body = get(t, base, "/sessions/"+run+"/events")
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if p.Total == 0 || len(p.Events) == 0 {
		t.Errorf("daemon-run session served no events: total %d", p.Total)
	}
}

func TestTimelineAndTraceEndpoints(t *testing.T) {
	d, base := startDaemon(t, DaemonConfig{})
	l := tracelog.NewLog(16)
	l.Emit(tracelog.Event{Type: tracelog.EvAnalyzerEnd, Cycles: 100, Dur: 9,
		Arg1: 10, Arg2: 2, Arg3: 1})
	id := adoptIdle(t, d, l)

	_, body := get(t, base, "/sessions/"+id+"/events/timeline")
	if !strings.HasPrefix(body, "timeline: 1 events") {
		t.Errorf("timeline = %q", body)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	_, body = get(t, base, "/sessions/"+id+"/events/trace")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("events/trace is not trace-event JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("events/trace has no traceEvents")
	}
}

func TestPprofAndIndex(t *testing.T) {
	d, base := startDaemon(t, DaemonConfig{})
	id := adoptIdle(t, d, nil)

	if code, body := get(t, base, "/"); code != http.StatusOK ||
		!strings.Contains(body, "/sessions/{id}/overhead") || !strings.Contains(body, "/debug/pprof/") {
		t.Errorf("index status %d body %q", code, body)
	}
	code, body := get(t, base, "/sessions/"+id+"/")
	if code != http.StatusOK {
		t.Fatalf("session index status = %d", code)
	}
	for _, route := range sessionRoutes {
		if !strings.Contains(body, "/sessions/"+id+"/"+route+"\n") {
			t.Errorf("session index lacks %s:\n%s", route, body)
		}
	}
	if code, _ := get(t, base, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", code)
	}
	for _, path := range []string{"/nope", "/sessions/nope/", "/sessions/nope/overhead"} {
		if code, _ := get(t, base, path); code != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, code)
		}
	}
}

// TestNilSources: sessions with no run attached — created but not run,
// or ingesting — serve empty payloads on every observation route, not
// errors.
func TestNilSources(t *testing.T) {
	_, base := startDaemon(t, DaemonConfig{})
	created := createSession(t, base, tinyConfig(0))
	ingest := createIngestSession(t, base, 0)
	for _, id := range []string{created, ingest} {
		for _, route := range sessionRoutes {
			if route == "report" {
				continue // 409 until done
			}
			if code, _ := get(t, base, "/sessions/"+id+"/"+route); code != http.StatusOK {
				t.Errorf("%s/%s status = %d with no run attached", id, route, code)
			}
		}
		_, body := get(t, base, "/sessions/"+id+"/events")
		if body != "{\n  \"total\": 0,\n  \"drops\": 0,\n  \"cap\": 0,\n  \"events\": []\n}\n" {
			t.Errorf("%s events = %q, want the empty ring", id, body)
		}
	}
}

func TestServeLifecycle(t *testing.T) {
	d := NewDaemon(DaemonConfig{})
	defer d.Shutdown()
	addr, stop, err := d.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatalf("GET bound daemon: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	stop()
	if _, err := http.Get("http://" + addr + "/"); err == nil {
		t.Error("daemon still reachable after stop")
	}
}

// TestHistoryEndpoint: a finished session's live history is the history
// its report carries.
func TestHistoryEndpoint(t *testing.T) {
	_, base := startDaemon(t, DaemonConfig{})
	id := runOne(t, base, traceSessionConfig(0, 0))

	code, body := get(t, base, "/sessions/"+id+"/history")
	if code != http.StatusOK {
		t.Fatalf("history status = %d", code)
	}
	var v umi.HistoryView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("history is not a HistoryView: %v\n%s", err, body)
	}
	if v.Schema != "umi-history/v1" || v.Total == 0 || len(v.Windows) == 0 {
		t.Errorf("history payload = %+v", v)
	}
	_, rep := get(t, base, "/sessions/"+id+"/report")
	var res RunResult
	if err := json.Unmarshal([]byte(rep), &res); err != nil {
		t.Fatal(err)
	}
	live, _ := json.Marshal(v)
	final, _ := json.Marshal(res.History)
	if string(live) != string(final) {
		t.Errorf("live history differs from the report's:\n%s\nvs\n%s", live, final)
	}
}

// TestPromEndpoint: the fleet /metrics/prom must serve a valid text
// exposition carrying each session's registry families and its
// phase-window gauges, all session-labelled; a session with no windows
// yet carries only the phase totals.
func TestPromEndpoint(t *testing.T) {
	_, base := startDaemon(t, DaemonConfig{})
	id := runOne(t, base, traceSessionConfig(0, 0))
	idle := createSession(t, base, tinyConfig(0))

	resp, err := http.Get(base + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, metrics.PromContentType)
	}
	types, samples := parseProm(t, string(raw))
	for name, typ := range map[string]string{
		"umi_traces_seen":         "counter",
		"umi_phase_windows_total": "counter",
		"umi_phase_last_cycles":   "gauge",
	} {
		if types[name] != typ {
			t.Errorf("family %s = %q, want %q", name, types[name], typ)
		}
	}
	var haveHist bool
	for _, typ := range types {
		haveHist = haveHist || typ == "histogram"
	}
	if !haveHist {
		t.Error("exposition carries no histogram family")
	}

	_, rep := get(t, base, "/sessions/"+id+"/report")
	var res RunResult
	if err := json.Unmarshal([]byte(rep), &res); err != nil {
		t.Fatal(err)
	}
	last := res.History.Windows[len(res.History.Windows)-1]
	label := fmt.Sprintf(`{session=%q}`, id)
	if got := samples["umi_phase_last_cycles"+label]; got != float64(last.Cycles) {
		t.Errorf("umi_phase_last_cycles%s = %v, want %d", label, got, last.Cycles)
	}
	if got := samples["umi_phase_windows_total"+label]; got != float64(res.History.Total) {
		t.Errorf("umi_phase_windows_total%s = %v, want %d", label, got, res.History.Total)
	}
	idleLabel := fmt.Sprintf(`{session=%q}`, idle)
	if _, ok := samples["umi_phase_windows_total"+idleLabel]; !ok {
		t.Errorf("idle session %s lacks the phase totals", idle)
	}
	if _, ok := samples["umi_phase_last_cycles"+idleLabel]; ok {
		t.Errorf("idle session %s carries a latest-window gauge", idle)
	}
}

// TestOverheadEndpoint: a session's overhead route must serve the
// attribution report as JSON, and the fleet /metrics/prom must carry the
// same numbers in that session's umi_overhead_* samples — the two
// surfaces describe one report.
func TestOverheadEndpoint(t *testing.T) {
	_, base := startDaemon(t, DaemonConfig{})
	id := runOne(t, base, tinyConfig(0))

	code, body := get(t, base, "/sessions/"+id+"/overhead")
	if code != http.StatusOK {
		t.Fatalf("overhead status = %d", code)
	}
	var r umi.OverheadReport
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatalf("overhead is not an OverheadReport: %v\n%s", err, body)
	}
	if r.Schema != umi.OverheadSchema || r.GuestCycles == 0 || len(r.Stages) == 0 {
		t.Errorf("overhead payload = %+v", r)
	}

	_, prom := get(t, base, "/metrics/prom")
	_, samples := parseProm(t, prom)
	want := map[string]float64{
		fmt.Sprintf("umi_overhead_guest_cycles{session=%q}", id): float64(r.GuestCycles),
		fmt.Sprintf("umi_overhead_cycles_total{session=%q}", id): float64(r.OverheadCycles),
		fmt.Sprintf("umi_overhead_ratio{session=%q}", id):        r.OverheadRatio,
	}
	for _, st := range r.Stages {
		want[fmt.Sprintf("umi_overhead_stage_cycles{session=%q,stage=%q}", id, st.Stage)] = float64(st.ModelledCycles)
		want[fmt.Sprintf("umi_overhead_stage_wall_ns{session=%q,stage=%q}", id, st.Stage)] = float64(st.WallNs)
	}
	for name, w := range want {
		if got, ok := samples[name]; !ok || got != w {
			t.Errorf("/metrics/prom %s = %v (present %v), overhead says %v", name, got, ok, w)
		}
	}
}

// TestOverheadNilSource: a session with no run attached serves an empty
// schema-stamped report, and the fleet exposition carries no overhead
// samples for it.
func TestOverheadNilSource(t *testing.T) {
	_, base := startDaemon(t, DaemonConfig{})
	id := createSession(t, base, tinyConfig(0))
	code, body := get(t, base, "/sessions/"+id+"/overhead")
	if code != http.StatusOK {
		t.Fatalf("overhead status = %d with no run", code)
	}
	var r umi.OverheadReport
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatal(err)
	}
	if r.Schema != umi.OverheadSchema || r.GuestCycles != 0 || len(r.Stages) != 0 {
		t.Errorf("no-run overhead = %+v, want empty schema-stamped report", r)
	}
	if _, prom := get(t, base, "/metrics/prom"); strings.Contains(prom, "umi_overhead_") {
		t.Errorf("fleet exposition carries overhead for a session with no run:\n%s", prom)
	}
}

// TestHistoryNilSource: a session with no run attached serves the empty
// schema-stamped history view.
func TestHistoryNilSource(t *testing.T) {
	_, base := startDaemon(t, DaemonConfig{})
	id := createSession(t, base, tinyConfig(0))
	code, body := get(t, base, "/sessions/"+id+"/history")
	if code != http.StatusOK {
		t.Fatalf("history status = %d with no run", code)
	}
	var v umi.HistoryView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Schema == "" || v.Total != 0 || len(v.Windows) != 0 {
		t.Errorf("no-run history = %+v, want empty schema-stamped view", v)
	}
	if code, _ := get(t, base, "/metrics/prom"); code != http.StatusOK {
		t.Errorf("/metrics/prom status = %d with an idle session", code)
	}
}
