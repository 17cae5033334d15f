package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"umi/internal/harness"
	"umi/internal/introspect"
	"umi/internal/wire"
	"umi/internal/workloads"
	"umi/pkg/umi"
)

// workload is one closed-loop operation mix over the matrix.
type workload struct {
	name string
	// item is the unit of work the throughput metrics count.
	item string
	// rateName, rateUnit and cpuName label the throughput figures in the
	// human summary.
	rateName, rateUnit, cpuName string
	// tailQ is the fixed percentile op_tail_ms reports, chosen so at
	// least ten operations lie beyond it in a run of the default length;
	// fixed rather than derived from the op count so a faster program
	// does not move it.
	tailQ float64
	setup func() (*fixture, error)
}

// fixture is a workload's set-up: the inputs and references its
// operations check against.
type fixture struct {
	// items is the work one operation on each matrix program does.
	items []uint64
	// op runs one operation on matrix program p and checks its output.
	op    func(p int, c opCtx) error
	close func()
}

var benchWorkloads = []*workload{
	{
		name: "profile-matrix", item: "retired guest instruction",
		rateName: "guest_mips", rateUnit: "Minstr/s", cpuName: "cpu_ns_per_instr",
		tailQ: 0.75, setup: setupProfileMatrix,
	},
	{
		name: "ground-truth", item: "retired guest instruction (native run plus cachegrind run)",
		rateName: "guest_mips", rateUnit: "Minstr/s", cpuName: "cpu_ns_per_instr",
		tailQ: 0.75, setup: setupGroundTruth,
	},
	{
		name: "umid-ingest", item: "replayed profile reference (Report.SimulatedRefs)",
		rateName: "replay_mrefs_s", rateUnit: "Mref/s", cpuName: "cpu_ns_per_ref",
		tailQ: 0.90, setup: setupUmidIngest,
	},
}

func workloadByName(name string) *workload {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	out := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		out[i] = w.name
	}
	return out
}

func matrixWorkload(name string) (*workloads.Workload, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown matrix program %q", name)
	}
	return w, nil
}

// setupProfileMatrix: each operation is one pkg/umi session with library
// defaults (inline analyzer), the library's main use. The reference is the
// same program run through introspect.RunStandalone; the session's report
// must marshal to the same bytes.
func setupProfileMatrix() (*fixture, error) {
	progs := make([]*umi.Program, len(matrix))
	refs := make([][]byte, len(matrix))
	items := make([]uint64, len(matrix))
	for i, name := range matrix {
		w, err := matrixWorkload(name)
		if err != nil {
			return nil, err
		}
		progs[i] = w.Program()
		res, err := introspect.RunStandalone(introspect.SessionConfig{Workload: name})
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", name, err)
		}
		if refs[i], err = json.Marshal(res.Report); err != nil {
			return nil, fmt.Errorf("%s reference: %w", name, err)
		}
		items[i] = res.Instrs
	}
	op := func(p int, c opCtx) error {
		s := umi.NewSession(progs[p])
		var rep *umi.Report
		if _, err := c.call("umi.Session.Run", func() (err error) {
			rep, err = s.Run()
			return err
		}); err != nil {
			return err
		}
		got, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, refs[p]) {
			return fmt.Errorf("report: %w", errMismatch)
		}
		if n := s.GuestInstructions(); n != items[p] {
			return fmt.Errorf("retired %d instructions, reference %d: %w", n, items[p], errMismatch)
		}
		return nil
	}
	return &fixture{items: items, op: op, close: func() {}}, nil
}

// setupGroundTruth: each operation is one harness.RunNative plus one
// harness.RunCachegrind of a program — the truth path of the harness
// tables: vm, cache and cachegrind, with no rio and no UMI. The two runs
// must agree on the L2 miss ratio, and the native cycles must equal the
// set-up reference.
func setupGroundTruth() (*fixture, error) {
	ws := make([]*workloads.Workload, len(matrix))
	cycles := make([]uint64, len(matrix))
	instrs := make([]uint64, len(matrix))
	items := make([]uint64, len(matrix))
	for i, name := range matrix {
		w, err := matrixWorkload(name)
		if err != nil {
			return nil, err
		}
		ws[i] = w
		nat, err := harness.RunNative(w, harness.P4, false)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", name, err)
		}
		cycles[i], instrs[i] = nat.Cycles, nat.Instrs
		items[i] = 2 * nat.Instrs // the guest runs twice per operation
	}
	op := func(p int, c opCtx) error {
		var nat *harness.NativeResult
		if _, err := c.call("harness.RunNative", func() (err error) {
			nat, err = harness.RunNative(ws[p], harness.P4, false)
			return err
		}); err != nil {
			return err
		}
		var cgMiss float64
		var cgRefs uint64
		if _, err := c.call("harness.RunCachegrind", func() error {
			sim, err := harness.RunCachegrind(ws[p], harness.P4)
			if err == nil {
				cgMiss, cgRefs = sim.L2MissRatio(), sim.Refs
			}
			return err
		}); err != nil {
			return err
		}
		switch {
		case nat.Cycles != cycles[p] || nat.Instrs != instrs[p]:
			return fmt.Errorf("native run: %d cycles %d instrs, reference %d %d: %w",
				nat.Cycles, nat.Instrs, cycles[p], instrs[p], errMismatch)
		case cgMiss != nat.H.L2Stats.MissRatio():
			return fmt.Errorf("cachegrind L2 miss ratio %v, native %v: %w", cgMiss, nat.H.L2Stats.MissRatio(), errMismatch)
		case cgRefs == 0:
			return fmt.Errorf("cachegrind saw no references: %w", errMismatch)
		}
		return nil
	}
	return &fixture{items: items, op: op, close: func() {}}, nil
}

// capture is one matrix program recorded as a umi-profile/v2 stream, with
// the capture process's result: what an ingest of the stream must return.
type capture struct {
	stream []byte
	result *introspect.RunResult
	// body is result as the daemon serves it (indented JSON and a
	// newline).
	body []byte
}

// captureStream runs a program standalone while recording its v1 stream,
// and transcodes that to v2.
func captureStream(name string) (*capture, error) {
	var v1, v2 bytes.Buffer
	res, err := introspect.EmitStandalone(introspect.SessionConfig{Workload: name}, &v1)
	if err != nil {
		return nil, fmt.Errorf("%s capture: %w", name, err)
	}
	if err := wire.Transcode(&v2, &v1, wire.Version2); err != nil {
		return nil, fmt.Errorf("%s transcode: %w", name, err)
	}
	body, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return &capture{stream: v2.Bytes(), result: res, body: append(body, '\n')}, nil
}

// setupUmidIngest: each operation creates an ingest session with two
// replay workers, posts one recorded stream to it and deletes it, all
// through the daemon's handler in-process — no sockets. The ingest
// response must equal the capture's result byte for byte.
func setupUmidIngest() (*fixture, error) {
	caps := make([]*capture, len(matrix))
	items := make([]uint64, len(matrix))
	for i, name := range matrix {
		c, err := captureStream(name)
		if err != nil {
			return nil, err
		}
		caps[i] = c
		items[i] = c.result.Report.SimulatedRefs
	}
	d := introspect.NewDaemon(introspect.DaemonConfig{})
	h := d.Handler()
	op := func(p int, c opCtx) error {
		_, err := ingestOnce(h, c, caps[p], false)
		return err
	}
	return &fixture{items: items, op: op, close: d.Shutdown}, nil
}

// ingestSessionConfig is the body of the create request.
var ingestSessionConfig = []byte(`{"ingest":true,"workers":2}`)

// ingestOnce is one create, ingest, delete cycle. With wantMetrics it
// also returns the session's metrics snapshot body, taken before the
// delete.
func ingestOnce(h http.Handler, c opCtx, cp *capture, wantMetrics bool) (metricsBody []byte, err error) {
	request := func(span, method, path string, body []byte) (code int, resp []byte) {
		c.call(span, func() error {
			code, resp = serve(h, method, path, body)
			return nil
		})
		return code, resp
	}
	code, body := request("daemon.create", http.MethodPost, "/sessions", ingestSessionConfig)
	if code != http.StatusCreated {
		return nil, fmt.Errorf("create: HTTP %d: %s", code, body)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &info); err != nil || info.ID == "" {
		return nil, fmt.Errorf("create: bad response %q", body)
	}
	id := info.ID
	defer func() {
		if code, body := request("daemon.delete", http.MethodDelete, "/sessions/"+id, nil); code != http.StatusNoContent && err == nil {
			err = fmt.Errorf("delete: HTTP %d: %s", code, body)
		}
	}()

	code, body = request("daemon.ingest", http.MethodPost, "/sessions/"+id+"/ingest", cp.stream)
	if code != http.StatusOK {
		return nil, fmt.Errorf("ingest: HTTP %d: %s", code, body)
	}
	if !bytes.Equal(body, cp.body) {
		return nil, fmt.Errorf("ingest response: %w", errMismatch)
	}
	if wantMetrics {
		if code, metricsBody = serve(h, http.MethodGet, "/sessions/"+id+"/metrics", nil); code != http.StatusOK {
			return nil, fmt.Errorf("metrics: HTTP %d", code)
		}
	}
	return metricsBody, nil
}

// serve makes one in-process request to h.
func serve(h http.Handler, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}
