package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tables must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json may list a subset: umid-ingest stays runnable by
	// hand but is not listed (README.md says why).
	for _, w := range b.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json lists workload %s, which the benchmark does not have", w.Name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, benchmark emits %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestEndToEndEveryWorkload runs each workload for one round and checks
// that it emits exactly the end-to-end metrics, all positive, with no
// failed operation; and that the human summary names each figure only
// where it is defined — no guest_mips where no guest runs.
func TestEndToEndEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range benchWorkloads {
		t.Run(w.name, func(t *testing.T) {
			var log bytes.Buffer
			res, err := run(config{workload: w.name, seed: 1, seconds: 0, setupPasses: 1}, &log)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 2*len(matrix) {
				t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, log.String())
			}
			assertMetricSet(t, res, endToEnd)
			summary := log.String()
			guest := w.name != "umid-ingest"
			for name, want := range map[string]bool{
				"guest_mips": guest, "cpu_ns_per_instr": guest,
				"replay_mrefs_s": !guest, "cpu_ns_per_ref": !guest,
				"fail_ratio": true, "op_tail_ms": true,
			} {
				if got := strings.Contains(summary, "# "+name+" "); got != want {
					t.Errorf("summary mentions %s: %v, want %v\n%s", name, got, want, summary)
				}
			}
		})
	}
}

// TestTracedDeterministicAcrossSeeds makes two traced runs with different
// seeds: each emits exactly the per-layer metrics and writes its spans,
// and every deterministic figure repeats bit for bit.
func TestTracedDeterministicAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer probes twice")
	}
	dir := t.TempDir()
	var runs []*result
	for _, seed := range []int64{1, 2} {
		var log bytes.Buffer
		res, err := run(config{workload: "umid-ingest", seed: seed, seconds: 0, trace: true, outDir: dir, setupPasses: 1}, &log)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("seed %d: correct=%v failed=%d\n%s", seed, res.Correct, res.Failed, log.String())
		}
		assertMetricSet(t, res, perLayer)
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("spans-umid-ingest-seed%d.json", seed)))
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, s := range file.Spans {
			if s.End < s.Start {
				t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
			}
			seen[s.Name] = true
		}
		for _, name := range []string{"op", "daemon.create", "daemon.ingest", "daemon.delete", "probe",
			"vm.Machine.Run", "rio.Runtime.Run", "cache.Hierarchy.Access", "cachegrind.Simulator.Ref",
			"umi.Session.Run", "wire.Decoder.Next", "introspect.ReplayStream/0", "introspect.ReplayStream/2"} {
			if !seen[name] {
				t.Errorf("seed %d: no %s span", seed, name)
			}
		}
		runs = append(runs, res)
	}
	for _, name := range deterministicLayer {
		a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: %v with seed 1, %v with seed 2", name, a, b)
		}
	}
}

func assertMetricSet(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("%s unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v", d.name, m.Value)
		}
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.name]; ok && m.Value <= 0 {
			t.Errorf("end-to-end %s = %v, want > 0", d.name, m.Value)
		}
	}
}

func TestSummarize(t *testing.T) {
	ms := time.Millisecond
	items := make([]uint64, len(matrix))
	var samples []sample
	for p := range matrix {
		items[p] = 1_000_000
		// Three rounds: 10, 10 and 20 ms for every program; the median
		// is 10 ms, and one op in three runs at twice the median.
		for _, d := range []time.Duration{10 * ms, 20 * ms, 10 * ms} {
			samples = append(samples, sample{prog: p, wall: d, cpu: d / 2})
		}
	}
	samples = append(samples, sample{prog: 0, wall: time.Hour, err: errMismatch})
	sum := summarize(samples, items, 0.9)
	approx := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	approx("throughput", sum.throughput, 100)      // 1M items per 10 ms
	approx("cpu ns per item", sum.cpuNsPerItem, 5) // 5 ms per 1M items
	approx("p50", sum.p50ms, 10)
	approx("tail", sum.tailMs, 20) // p90 of ratios {1,1,2}×8 is 2
	if sum.tailN != 3*len(matrix) {
		t.Errorf("tail over %d samples, want %d (failed op left out)", sum.tailN, 3*len(matrix))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.75, 3.25}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 50, End: 90},
		{ID: 3, Parent: 2, Name: "a", Start: 60, End: 70},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{"op": 30, "a": 40, "b": 30} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
}
