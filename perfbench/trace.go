package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call: the benchmark records it around each call it
// makes into the program, so nothing inside the program changes. Spans of
// one operation share Op; Parent is the span that made the call (-1 for a
// root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Prog   string `json:"prog,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs pay only a nil check.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<12)} }

func (t *tracer) begin(name, prog string, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Prog: prog,
		Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// opCtx is what an operation needs to record its calls: the tracer, the
// operation's span and its id.
type opCtx struct {
	tr     *tracer
	parent int32
	op     int32
}

// call runs fn inside a span named name and returns fn's error and the
// wall time it took.
func (c opCtx) call(name string, fn func() error) (time.Duration, error) {
	sp := c.tr.begin(name, "", c.parent, c.op)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	c.tr.end(sp)
	return d, err
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover. Children of one span never overlap: every call
// the benchmark makes is synchronous.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// spanCost measures what recording one span costs, begin plus end; the
// traced run multiplies it by the spans its timed phase recorded to give
// trace.overhead_pct.
func spanCost() time.Duration {
	const n = 1 << 16
	t := &tracer{t0: time.Now(), spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("op", "x", -1, int32(i)))
	}
	return time.Since(start) / n
}

// write stores the spans and their self times as one JSON file in the
// run's output directory.
func (t *tracer) write(cfg config, self map[string]time.Duration) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	selfNs := make(map[string]int64, len(self))
	for k, v := range self {
		selfNs[k] = int64(v)
	}
	data, err := json.Marshal(struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		SelfNs   map[string]int64 `json:"self_ns"`
		Spans    []span           `json:"spans"`
	}{cfg.workload, cfg.seed, selfNs, t.spans})
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
