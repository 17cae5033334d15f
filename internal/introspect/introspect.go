// Package introspect is the runtime's live observation surface and its
// control plane: the umid daemon (daemon.go, which lists every route) and
// the per-session observation routes it serves under /sessions/{id}/ for
// every session — created over HTTP, ingesting a recorded stream, or a
// run driven from outside the daemon and adopted into it (`umiprof -http`
// serves its one run that way).
//
// The paper's position is that introspection should be cheap enough to
// leave on in production; this is the operational payoff — point a
// browser or a scraper at a running profiler and watch it profile itself:
// metrics and their per-session deltas, profile history, per-stage
// overhead, and the event ring as JSON, a plain-text timeline, or a
// Chrome trace.
//
// Handlers only read atomics (the metrics registry, the event ring), so
// serving concurrently with a running guest is safe and perturbs nothing:
// the guest never blocks on an observer. A session with no run attached
// (created, or ingesting) serves empty schema-stamped payloads.
package introspect

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"umi/internal/metrics"
	"umi/internal/tracelog"
	"umi/internal/umi"
)

func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// events returns the session's event ring: nil (an empty ring to every
// reader) until a run with event tracing attaches.
func (s *session) events() *tracelog.Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.elog
}

func (d *Daemon) sessionIndex(w http.ResponseWriter, r *http.Request, s *session) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "umi session %s (%s)\n\n", s.id, s.info().Guest)
	for _, route := range sessionRoutes {
		fmt.Fprintf(w, "/sessions/%s/%s\n", s.id, route)
	}
}

// sessionRoutes lists the per-session observation routes for the
// session index page.
var sessionRoutes = []string{
	"report", "metrics", "metrics/delta", "history", "overhead",
	"events", "events/timeline", "events/trace",
}

func (d *Daemon) sessionMetrics(w http.ResponseWriter, r *http.Request, s *session) {
	writeJSON(w, s.liveMetrics())
}

// sessionMetricsDelta serves the change since this session's previous
// delta scrape, so each scrape reports one interval. The first scrape
// diffs against the empty snapshot.
func (d *Daemon) sessionMetricsDelta(w http.ResponseWriter, r *http.Request, s *session) {
	cur := s.liveMetrics()
	s.mu.Lock()
	delta := cur.Diff(s.prevDelta)
	s.prevDelta = cur
	s.mu.Unlock()
	writeJSON(w, delta)
}

func (d *Daemon) sessionHistory(w http.ResponseWriter, r *http.Request, s *session) {
	writeJSON(w, s.liveHistory())
}

func (d *Daemon) sessionOverhead(w http.ResponseWriter, r *http.Request, s *session) {
	rep := s.liveOverhead()
	if rep == nil {
		rep = &umi.OverheadReport{Schema: umi.OverheadSchema}
	}
	writeJSON(w, rep)
}

// eventsPayload is the /events response: ring accounting plus the
// retained events, oldest first.
type eventsPayload struct {
	Total  uint64           `json:"total"`
	Drops  uint64           `json:"drops"`
	Cap    int              `json:"cap"`
	Events []tracelog.Event `json:"events"`
}

func (d *Daemon) sessionEvents(w http.ResponseWriter, r *http.Request, s *session) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	elog := s.events()
	evs := elog.Recent(n)
	if evs == nil {
		evs = []tracelog.Event{}
	}
	writeJSON(w, eventsPayload{
		Total: elog.Total(), Drops: elog.Drops(),
		Cap: elog.Cap(), Events: evs,
	})
}

func (d *Daemon) sessionTimeline(w http.ResponseWriter, r *http.Request, s *session) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	elog := s.events()
	fmt.Fprint(w, tracelog.Timeline(elog.Events(), elog.Drops()))
}

func (d *Daemon) sessionTrace(w http.ResponseWriter, r *http.Request, s *session) {
	w.Header().Set("Content-Type", "application/json")
	tracelog.WriteChromeTrace(w, s.events().Events())
}

// fleetProm renders every session's registry as one labeled exposition,
// plus the daemon's own ingest counters under the reserved label
// "ingest", then each session's phase-window and overhead families.
func (d *Daemon) fleetProm(w http.ResponseWriter, r *http.Request) {
	sessions := d.snapshotSessions()
	labeled := make([]metrics.LabeledSnapshot, 0, len(sessions)+1)
	labeled = append(labeled, metrics.LabeledSnapshot{Label: "ingest", Snap: d.ingest.reg.Snapshot()})
	hist := make([]umi.LabeledHistory, 0, len(sessions))
	ovh := make([]umi.LabeledOverhead, 0, len(sessions))
	for _, s := range sessions {
		labeled = append(labeled, metrics.LabeledSnapshot{Label: s.id, Snap: s.liveMetrics()})
		hist = append(hist, umi.LabeledHistory{Label: s.id, View: s.liveHistory()})
		ovh = append(ovh, umi.LabeledOverhead{Label: s.id, Report: s.liveOverhead()})
	}
	w.Header().Set("Content-Type", metrics.PromContentType)
	metrics.WritePrometheusFleet(w, labeled)
	umi.WriteHistoryPromFleet(w, hist)
	umi.WriteOverheadPromFleet(w, ovh)
}
