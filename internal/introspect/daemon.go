// The umid daemon: a long-lived control plane multiplexing many
// concurrent profiling sessions over one shared analyzer preparation
// pool. Each session keeps its own System (per-session sequencer, logical
// cache, history ring) so co-tenancy cannot perturb results — a session
// run through the daemon produces byte-identical output to the same
// config run standalone — while the expensive stateless preparation work
// is shared and scheduled fairly (round-robin across session lanes).
//
// Route table (Go 1.22 method+pattern routes; the only one in the repo):
//
//	POST   /sessions             create from a SessionConfig JSON body
//	GET    /sessions             list sessions with state
//	POST   /sessions/{id}/run    execute to completion, return the result
//	POST   /sessions/{id}/ingest replay a umi-profile/v1|v2 stream (?live=1 to tail)
//	GET    /sessions/{id}/       the session's route index
//	GET    /sessions/{id}/report completed RunResult (409 until done)
//	GET    /sessions/{id}/metrics          live self-observability snapshot
//	GET    /sessions/{id}/metrics/delta    change since the previous delta scrape
//	GET    /sessions/{id}/history          live profile-history windows
//	GET    /sessions/{id}/overhead         per-stage self-overhead attribution
//	GET    /sessions/{id}/events           recent lifecycle events (?n= limits)
//	GET    /sessions/{id}/events/timeline  plain-text event timeline
//	GET    /sessions/{id}/events/trace     Chrome trace-event JSON
//	DELETE /sessions/{id}        remove the session
//	GET    /metrics/prom         fleet Prometheus exposition (session label)
//	GET    /fleet/delinquent     cross-session delinquent-set union/intersection
//	GET    /fleet/phases         cross-session phase-change correlation
//	GET    /debug/pprof/         the daemon process's Go runtime profiles
//
// Admission control: creates past MaxSessions and runs past the shared
// queue's high-water mark are rejected with 429 so a saturated daemon
// sheds load instead of queueing unboundedly; during a drain every
// mutating request gets 503.
package introspect

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"

	"umi/internal/metrics"
	"umi/internal/tracelog"
	"umi/internal/umi"
)

// Daemon defaults, used when the corresponding DaemonConfig field is zero.
const (
	DefaultMaxSessions = 64
	DefaultPrepWorkers = 4
	// sessionEventCap sizes each daemon-run session's event ring: the
	// newest few thousand events, a bounded cost per co-tenant session.
	sessionEventCap = 4096
	// maxConfigBytes bounds a POST /sessions body; MaxTraceAddrs addresses
	// at ~20 JSON bytes each fit with ample slack.
	maxConfigBytes = 1 << 20
)

// DaemonConfig sizes a Daemon.
type DaemonConfig struct {
	// MaxSessions caps concurrently-registered sessions; creates past it
	// are rejected with 429.
	MaxSessions int
	// PrepWorkers is the shared preparation pool's width.
	PrepWorkers int
	// QueueBound caps the shared pool's pending-job queue (0 takes the
	// pool default). Enqueues past it block the submitting session only.
	QueueBound int
	// QueueHighWater rejects new run requests with 429 while the shared
	// queue holds at least this many jobs (0 takes the queue bound).
	QueueHighWater int
}

func (c DaemonConfig) withDefaults() DaemonConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.PrepWorkers <= 0 {
		c.PrepWorkers = DefaultPrepWorkers
	}
	return c
}

// sessionState is the lifecycle state machine: created → running →
// done|failed, and for ingest sessions running → resumable (a live
// upload cut off at a recoverable point; re-sending the stream resumes
// it) → running. DELETE is legal in any state.
type sessionState string

const (
	stateCreated   sessionState = "created"
	stateRunning   sessionState = "running"
	stateDone      sessionState = "done"
	stateFailed    sessionState = "failed"
	stateResumable sessionState = "resumable"
)

// session is one registered guest session.
type session struct {
	id  string
	seq uint64 // creation order, for stable listings
	cfg SessionConfig

	mu     sync.Mutex
	state  sessionState
	sys    *umi.System   // live once a run has attached; kept after finish
	elog   *tracelog.Log // the attached run's event ring
	ing    *ingestState
	result *RunResult
	runErr error
	// deleted is set by DELETE; an ingest still running then closes the
	// replay itself when it finishes.
	deleted bool
	// prevDelta is the snapshot the previous metrics/delta scrape took.
	prevDelta metrics.Snapshot
}

// closeReplay releases the session's replayer (its pipeline goroutines
// and shared-pool lane). Caller holds s.mu and owns the replay: no ingest
// is running.
func (s *session) closeReplay() {
	if s.ing != nil && s.ing.replay != nil {
		s.ing.replay.Close()
	}
}

// liveMetrics snapshots the session's registry if a run has attached one.
// Ingest sessions serve their replayer's registry instead.
func (s *session) liveMetrics() metrics.Snapshot {
	s.mu.Lock()
	sys, ing := s.sys, s.ing
	s.mu.Unlock()
	if sys != nil {
		return sys.LiveMetricsSnapshot()
	}
	if ing != nil && ing.replay != nil {
		return ing.replay.Metrics().Snapshot()
	}
	return metrics.Snapshot{}
}

// liveOverhead assembles the session's per-stage self-overhead report when
// a live run is attached, else nil. Ingest sessions have no guest (the
// replayer pays its own costs on daemon time), so they have none.
func (s *session) liveOverhead() *umi.OverheadReport {
	s.mu.Lock()
	sys := s.sys
	s.mu.Unlock()
	if sys != nil {
		return sys.LiveOverhead()
	}
	return nil
}

// liveHistory snapshots the session's history ring if a run has attached.
// Ingest sessions serve the merged streamed history from the last
// completed shard (their replayer has no live ring of its own to scrape
// without draining it).
func (s *session) liveHistory() umi.HistoryView {
	s.mu.Lock()
	sys, res := s.sys, s.result
	s.mu.Unlock()
	if sys != nil {
		return sys.LiveHistory()
	}
	if res != nil {
		return res.History
	}
	return (*umi.History)(nil).View()
}

// Daemon multiplexes sessions over one shared preparation pool.
type Daemon struct {
	cfg    DaemonConfig
	shared *umi.SharedPrep
	ingest *ingestMetrics

	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64
	draining bool

	runs sync.WaitGroup // in-flight run handlers, for graceful drain
}

// NewDaemon builds a daemon and its shared pool.
func NewDaemon(cfg DaemonConfig) *Daemon {
	cfg = cfg.withDefaults()
	return &Daemon{
		cfg:      cfg,
		shared:   umi.NewSharedPrep(cfg.PrepWorkers, cfg.QueueBound),
		ingest:   newIngestMetrics(),
		sessions: make(map[string]*session),
	}
}

// SessionCount reports currently-registered sessions (exact accounting:
// a DELETE removes its session before the handler returns).
func (d *Daemon) SessionCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sessions)
}

// Shutdown drains the daemon: new mutating requests are refused with 503,
// in-flight runs complete, every remaining session's replayer closes,
// then the shared pool stops. Idempotent.
func (d *Daemon) Shutdown() {
	d.mu.Lock()
	already := d.draining
	d.draining = true
	d.mu.Unlock()
	d.runs.Wait()
	if already {
		return
	}
	for _, s := range d.snapshotSessions() {
		s.mu.Lock()
		s.closeReplay()
		s.mu.Unlock()
	}
	d.shared.Close()
}

// lookup resolves a session id; the bool reports existence.
func (d *Daemon) lookup(id string) (*session, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.sessions[id]
	return s, ok
}

// snapshotSessions returns the registered sessions in creation order.
func (d *Daemon) snapshotSessions() []*session {
	d.mu.Lock()
	out := make([]*session, 0, len(d.sessions))
	for _, s := range d.sessions {
		out = append(out, s)
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// sessionHandler is a per-session route: {id} already resolved.
type sessionHandler func(http.ResponseWriter, *http.Request, *session)

// perSession resolves the {id} path value once per request, so a handler
// works from one session for the whole response; unknown ids are 404.
func (d *Daemon) perSession(h sessionHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, ok := d.lookup(r.PathValue("id"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		h(w, r, s)
	}
}

// Handler returns the daemon's route table.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", d.index)
	mux.HandleFunc("POST /sessions", d.createSession)
	mux.HandleFunc("GET /sessions", d.listSessions)
	for pattern, h := range map[string]sessionHandler{
		"POST /sessions/{id}/run":            d.runSession,
		"POST /sessions/{id}/ingest":         d.ingestSession,
		"GET /sessions/{id}/{$}":             d.sessionIndex,
		"GET /sessions/{id}/report":          d.sessionReport,
		"GET /sessions/{id}/metrics":         d.sessionMetrics,
		"GET /sessions/{id}/metrics/delta":   d.sessionMetricsDelta,
		"GET /sessions/{id}/history":         d.sessionHistory,
		"GET /sessions/{id}/overhead":        d.sessionOverhead,
		"GET /sessions/{id}/events":          d.sessionEvents,
		"GET /sessions/{id}/events/timeline": d.sessionTimeline,
		"GET /sessions/{id}/events/trace":    d.sessionTrace,
		"DELETE /sessions/{id}":              d.deleteSession,
	} {
		mux.HandleFunc(pattern, d.perSession(h))
	}
	mux.HandleFunc("GET /metrics/prom", d.fleetProm)
	mux.HandleFunc("GET /fleet/delinquent", d.fleetDelinquent)
	mux.HandleFunc("GET /fleet/phases", d.fleetPhases)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (d *Daemon) index(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `umid — multi-session UMI profiling daemon

POST   /sessions             create a session (SessionConfig JSON)
GET    /sessions             list sessions
POST   /sessions/{id}/run    run to completion, returns the result
POST   /sessions/{id}/ingest replay a umi-profile/v1|v2 stream (?live=1 to tail)
GET    /sessions/{id}/       the session's route index
GET    /sessions/{id}/report completed run result
GET    /sessions/{id}/metrics          self-observability snapshot (JSON)
GET    /sessions/{id}/metrics/delta    change since the previous delta scrape
GET    /sessions/{id}/history          profile-history windows
GET    /sessions/{id}/overhead         per-stage self-overhead attribution
GET    /sessions/{id}/events           recent lifecycle events (?n=100 limits)
GET    /sessions/{id}/events/timeline  plain-text event timeline
GET    /sessions/{id}/events/trace     Chrome trace-event JSON (open in Perfetto)
DELETE /sessions/{id}        remove a session
GET    /metrics/prom         fleet Prometheus exposition (session label)
GET    /fleet/delinquent     delinquent-set union/intersection
GET    /fleet/phases         phase-change correlation
GET    /debug/pprof/         Go runtime profiles
`)
}

// sessionInfo is the listing/creation JSON shape.
type sessionInfo struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Guest names the workload, or "trace[n]" for a submitted stream.
	Guest string `json:"guest"`
	Error string `json:"error,omitempty"`
	// Resume, present while the session is resumable, names the safe
	// point (stream frame count and rolling checksum) a re-sent live
	// stream will be resumed from.
	Resume *resumePoint `json:"resume,omitempty"`
}

type resumePoint struct {
	Frames   uint64 `json:"frames"`
	Checksum uint64 `json:"checksum"`
}

// guestLabel names the session's guest. Ingest sessions pick up the
// workload name from the first stream header. Caller holds s.mu.
func (s *session) guestLabel() string {
	if s.cfg.Ingest {
		if s.ing != nil && s.ing.guest != "" {
			return "ingest:" + s.ing.guest
		}
		return "ingest"
	}
	return s.cfg.guestName()
}

func (s *session) info() sessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	inf := sessionInfo{ID: s.id, State: string(s.state), Guest: s.guestLabel()}
	if s.runErr != nil {
		inf.Error = s.runErr.Error()
	}
	if s.state == stateResumable && s.ing != nil {
		inf.Resume = &resumePoint{Frames: s.ing.resumeFrames, Checksum: s.ing.resumeChk}
	}
	return inf
}

func (d *Daemon) createSession(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxConfigBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxConfigBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "config exceeds %d bytes", maxConfigBytes)
		return
	}
	cfg, err := ParseSessionConfig(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	if len(d.sessions) >= d.cfg.MaxSessions {
		d.mu.Unlock()
		httpError(w, http.StatusTooManyRequests, "session limit %d reached", d.cfg.MaxSessions)
		return
	}
	d.nextID++
	s := &session{id: fmt.Sprintf("s%d", d.nextID), seq: d.nextID, cfg: cfg, state: stateCreated}
	d.sessions[s.id] = s
	d.mu.Unlock()

	// The Content-Type must be set before WriteHeader commits the response
	// head; writeJSON's own Set would land too late to be sent.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, s.info())
}

func (d *Daemon) listSessions(w http.ResponseWriter, r *http.Request) {
	sessions := d.snapshotSessions()
	infos := make([]sessionInfo, 0, len(sessions))
	for _, s := range sessions {
		infos = append(infos, s.info())
	}
	writeJSON(w, infos)
}

func (d *Daemon) runSession(w http.ResponseWriter, r *http.Request, s *session) {
	// Admission: refuse while draining, and shed load past the shared
	// queue's high-water mark rather than deepening the backlog.
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	high := d.cfg.QueueHighWater
	if high <= 0 {
		high = d.shared.QueueBound()
	}
	if depth := d.shared.QueueDepth(); depth >= high {
		d.mu.Unlock()
		httpError(w, http.StatusTooManyRequests, "analyzer queue depth %d at high-water %d", depth, high)
		return
	}
	// The run must be registered for drain before draining can flip, so
	// Shutdown's runs.Wait() covers it; both happen under d.mu.
	d.runs.Add(1)
	d.mu.Unlock()
	defer d.runs.Done()

	if s.cfg.Ingest {
		httpError(w, http.StatusConflict, "session %s ingests streams; POST to /sessions/%s/ingest", s.id, s.id)
		return
	}
	s.mu.Lock()
	if s.state != stateCreated {
		state := s.state
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "session %s is %s, can only run once from created", s.id, state)
		return
	}
	s.state = stateRunning
	s.mu.Unlock()

	// Runs execute synchronously on the request goroutine: the HTTP server
	// already gives each session its own goroutine, and the client gets
	// the result as the response body. The event ring is observational,
	// so the result is byte-identical to a standalone run without one.
	res, err := runSession(&s.cfg, d.shared, func(sys *umi.System) {
		elog := sys.EnableEventTrace(sessionEventCap)
		s.mu.Lock()
		s.sys, s.elog = sys, elog
		s.mu.Unlock()
	}, nil)
	s.finish(res, err)

	if err != nil {
		httpError(w, http.StatusInternalServerError, "run: %v", err)
		return
	}
	writeJSON(w, res)
}

// finish records a run's outcome: done with its result, or failed.
func (s *session) finish(res *RunResult, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.state = stateFailed
		s.runErr = err
		return
	}
	s.state = stateDone
	s.result = res
}

// Adopt registers a run driven from outside the daemon — the caller owns
// the guest thread — as a running session, so the daemon's per-session
// routes serve its live state. guest names the workload; events is the
// run's event ring (nil serves an empty one). The returned finish marks
// the session done with the run's result. Adoption bypasses admission
// control: the run is already under way.
func (d *Daemon) Adopt(guest string, sys *umi.System, events *tracelog.Log) (id string, finish func(*RunResult)) {
	d.mu.Lock()
	d.nextID++
	s := &session{id: fmt.Sprintf("s%d", d.nextID), seq: d.nextID,
		cfg: SessionConfig{Workload: guest}, state: stateRunning, sys: sys, elog: events}
	d.sessions[s.id] = s
	d.mu.Unlock()
	return s.id, func(res *RunResult) { s.finish(res, nil) }
}

func (d *Daemon) sessionReport(w http.ResponseWriter, r *http.Request, s *session) {
	s.mu.Lock()
	res, state, runErr := s.result, s.state, s.runErr
	s.mu.Unlock()
	if state == stateFailed {
		httpError(w, http.StatusInternalServerError, "run failed: %v", runErr)
		return
	}
	if res == nil {
		httpError(w, http.StatusConflict, "session %s is %s; report available once done", s.id, state)
		return
	}
	writeJSON(w, res)
}

func (d *Daemon) deleteSession(w http.ResponseWriter, r *http.Request, s *session) {
	d.mu.Lock()
	_, ok := d.sessions[s.id]
	delete(d.sessions, s.id)
	d.mu.Unlock()
	if !ok { // a concurrent DELETE won
		http.NotFound(w, r)
		return
	}
	// A run or ingest still executing holds its own reference and
	// completes against the shared pool; its result is simply
	// unreachable, and an ingest closes its replayer as it finishes.
	// Otherwise the replayer is released here. Accounting is exact the
	// moment the delete returns.
	s.mu.Lock()
	s.deleted = true
	if s.state != stateRunning {
		s.closeReplay()
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// fleetMember pairs a session id with its completed result, the input to
// the fleet aggregation renders. Sessions without a completed run are
// excluded — aggregation compares results, not intentions.
type fleetMember struct {
	ID     string
	Guest  string
	Result *RunResult
}

// completedFleet snapshots sessions holding a completed result, in
// creation order.
func (d *Daemon) completedFleet() []fleetMember {
	var fleet []fleetMember
	for _, s := range d.snapshotSessions() {
		s.mu.Lock()
		res, guest := s.result, s.guestLabel()
		s.mu.Unlock()
		if res != nil {
			fleet = append(fleet, fleetMember{ID: s.id, Guest: guest, Result: res})
		}
	}
	return fleet
}

func (d *Daemon) fleetDelinquent(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, FormatFleetDelinquent(d.completedFleet()))
}

func (d *Daemon) fleetPhases(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, FormatFleetPhases(d.completedFleet()))
}

// Serve starts the daemon's HTTP surface on addr (e.g. ":8080",
// "127.0.0.1:0") on a background goroutine and returns the bound address
// and a stop function that closes the listener and waits for the serving
// goroutine to exit. Stopping does not drain the daemon — call Shutdown
// for that.
func (d *Daemon) Serve(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: d.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	stop := func() {
		srv.Close()
		<-done
	}
	return ln.Addr().String(), stop, nil
}
