// Command perfbench is the repository's benchmark. It runs one of three
// closed-loop workloads over a fixed eight-program matrix — one caller, one
// process, the next operation issued only when the previous one returns —
// checks every operation's output against a reference computed at set-up,
// and prints one JSON result line last on standard output.
//
//	perfbench --workload profile-matrix --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the same operations run with spans recorded around every public call,
// followed by the layer probes (probes.go); the result then carries the
// per-layer metrics and the spans are written to --out. README.md holds
// the workload rationale, the metric table and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// matrix is the program set every workload runs, fixed by name: pointer
// chasing (181.mcf, em3d, treeadd), FP streaming (171.swim, ft),
// control-heavy integer code (176.gcc, 252.eon) and a Linux-app stand-in
// (apache). Their L2 miss ratios span 0.1% to 75%.
var matrix = []string{"181.mcf", "em3d", "171.swim", "176.gcc", "252.eon", "ft", "treeadd", "apache"}

// setupPasses is how many times a run builds its fixture; setup_s is the
// median pass.
const setupPasses = 5

// metricDef names one reported metric and its unit. The two tables below
// must match BENCHMARK.json (TestMetricTablesMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports, on every workload. A work item
// is a retired guest instruction on profile-matrix and ground-truth, and a
// replayed profile reference on umid-ingest.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_wall", "Mitem/s"},
	{"cpu_ns_per_item", "ns"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	outDir      string
	setupPasses int
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{setupPasses: setupPasses}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "permutes the operation order within each round")
	fs.Float64Var(&cfg.seconds, "seconds", 40, "length of the timed phase (whole rounds, at least one)")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for the span file of a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = *traceFlag != 0
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and returns its result; human-readable
// summary lines go to log. An error means no result: unknown workload,
// or a set-up that could not build its references.
func run(cfg config, log io.Writer) (*result, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 0 {
		return nil, fmt.Errorf("negative --seconds %v", cfg.seconds)
	}

	var fx *fixture
	setups := make([]float64, 0, cfg.setupPasses)
	setupCPU := make([]float64, 0, cfg.setupPasses)
	setupSteal := readCPUStat()
	for i := 0; i < max(cfg.setupPasses, 1); i++ {
		if fx != nil {
			fx.close()
		}
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		var err error
		if fx, err = w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
	}
	fmt.Fprintf(log, "# set-up passes: wall %v s, cpu %v s, host steal %.2f%%\n",
		roundAll(setups), roundAll(setupCPU), readCPUStat().stealPctSince(setupSteal))
	defer fx.close()

	// One untimed round lets lazy initialisation finish; a collection
	// afterwards keeps set-up garbage off the timed operations.
	attempted, failed := 0, 0
	for p := range matrix {
		attempted++
		if err := fx.op(p, opCtx{parent: -1, op: -1}); err != nil {
			failed++
			fmt.Fprintf(log, "# warm-up %s: %v\n", matrix[p], err)
		}
	}
	runtime.GC()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	steal0 := readCPUStat()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := readGCCPU()
	t0 := time.Now()
	samples := measure(fx, cfg.seed, cfg.seconds, tr)
	timed := time.Since(t0)
	gc1 := readGCCPU()
	runtime.ReadMemStats(&ms1)
	steal := readCPUStat().stealPctSince(steal0)

	for _, s := range samples {
		attempted++
		if s.err != nil {
			failed++
			fmt.Fprintf(log, "# %s: %v\n", matrix[s.prog], s.err)
		}
	}
	sum := summarize(samples, fx.items, w.tailQ)
	res := &result{Metrics: map[string]metric{}}

	if !cfg.trace {
		vals := map[string]float64{
			"setup_s":         median(setups),
			"throughput_wall": sum.throughput,
			"cpu_ns_per_item": sum.cpuNsPerItem,
			"op_p50_ms":       sum.p50ms,
			"op_tail_ms":      sum.tailMs,
			"peak_rss_mb":     peakRSSMB(),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		res.Correct, res.Attempted, res.Failed = failed == 0, attempted, failed
		for _, l := range summaryLines(w, cfg, sum, res, steal, setups) {
			fmt.Fprintln(log, l)
		}
		return res, nil
	}

	// Traced run: the workload's own Go-runtime and host figures over the
	// timed phase, then the layer probes.
	ops := float64(len(samples))
	opSpans := len(tr.spans)
	layer := map[string]float64{
		"go.gc_cpu_fraction": gc1.fractionSince(gc0),
		"go.gc_pause_ms":     float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		"go.allocs_per_op":   float64(ms1.Mallocs-ms0.Mallocs) / ops,
		"host.steal_pct":     steal,
		"trace.overhead_pct": 100 * float64(opSpans) * float64(spanCost()) / float64(timed),
	}
	probes, perr := runProbes(tr)
	for k, v := range probes {
		layer[k] = v
	}
	self := selfTimes(tr.spans)
	layer["bench.self_ms_per_op"] = float64(self["op"]) / 1e6 / ops
	for _, d := range perLayer {
		v, ok := layer[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	if perr != nil {
		attempted++
		failed++
		fmt.Fprintf(log, "# probes: %v\n", perr)
	}
	res.Correct, res.Attempted, res.Failed = failed == 0, attempted, failed
	if err := tr.write(cfg, self); err != nil {
		return nil, err
	}
	for _, l := range traceLines(w, cfg, self, res) {
		fmt.Fprintln(log, l)
	}
	return res, nil
}

// sample is one timed operation.
type sample struct {
	prog      int
	wall, cpu time.Duration
	err       error
}

// measure runs whole rounds — every matrix program once, in a
// seed-permuted order — until the timed phase has lasted seconds, and at
// least one round.
func measure(fx *fixture, seed int64, seconds float64, tr *tracer) []sample {
	rng := rand.New(rand.NewSource(seed))
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var out []sample
	for round := 0; round == 0 || time.Since(start) < limit; round++ {
		for _, p := range rng.Perm(len(matrix)) {
			opID := int32(len(out))
			c0 := cpuTime()
			t0 := time.Now()
			sp := tr.begin("op", matrix[p], -1, opID)
			err := fx.op(p, opCtx{tr: tr, parent: sp, op: opID})
			tr.end(sp)
			wall := time.Since(t0)
			out = append(out, sample{prog: p, wall: wall, cpu: cpuTime() - c0, err: err})
		}
	}
	return out
}

// opSummary is the timed phase reduced to the end-to-end figures.
type opSummary struct {
	rounds       int
	throughput   float64 // Mitem/s at each program's median op time
	cpuNsPerItem float64
	p50ms        float64
	tailMs       float64
	tailQ        float64
	tailN        int // latency samples
	tailBeyond   int // samples above the tail value
}

// summarize reduces the timed phase to per-program medians first, so one
// operation slowed by host steal or a collection moves a median little,
// and a round cut short cannot shift a percentile between programs.
//
//   - throughput: Σ items ÷ Σ per-program median wall.
//   - cpu per item: Σ per-program median process CPU ÷ Σ items.
//   - p50: geometric mean over programs of the median op wall time.
//   - tail: every op's wall time divided by its program's median, pooled;
//     the tailQ quantile of that ratio, times p50.
//
// Failed operations are left out.
func summarize(samples []sample, items []uint64, tailQ float64) opSummary {
	walls := make([][]float64, len(matrix))
	cpus := make([][]float64, len(matrix))
	for _, s := range samples {
		if s.err == nil {
			walls[s.prog] = append(walls[s.prog], float64(s.wall))
			cpus[s.prog] = append(cpus[s.prog], float64(s.cpu))
		}
	}
	sum := opSummary{rounds: len(samples) / len(matrix), tailQ: tailQ}
	var itemSum, wallSum, cpuSum float64
	medWall := make([]float64, len(matrix))
	for p := range matrix {
		if len(walls[p]) == 0 {
			return sum
		}
		medWall[p] = median(walls[p])
		itemSum += float64(items[p])
		wallSum += medWall[p]
		cpuSum += median(cpus[p])
	}
	sum.throughput = itemSum / (wallSum / 1e9) / 1e6
	sum.cpuNsPerItem = cpuSum / itemSum
	sum.p50ms = geomean(medWall) / 1e6
	var ratios []float64
	for p := range matrix {
		for _, w := range walls[p] {
			ratios = append(ratios, w/medWall[p])
		}
	}
	tail := quantile(ratios, tailQ)
	sum.tailMs = sum.p50ms * tail
	sum.tailN = len(ratios)
	for _, r := range ratios {
		if r > tail {
			sum.tailBeyond++
		}
	}
	return sum
}

// summaryLines renders an untraced run for people, with each throughput
// figure under its workload's own name: guest_mips only where a guest
// runs, replay_mrefs_s only where a stream is replayed.
func summaryLines(w *workload, cfg config, sum opSummary, res *result, steal float64, setups []float64) []string {
	m := res.Metrics
	return []string{
		fmt.Sprintf("# %s seed %d: %d rounds, %d timed ops; one item = %s", w.name, cfg.seed, sum.rounds, sum.tailN, w.item),
		fmt.Sprintf("# %-18s %12.4f %s", w.rateName, m["throughput_wall"].Value, w.rateUnit),
		fmt.Sprintf("# %-18s %12.4f ns", w.cpuName, m["cpu_ns_per_item"].Value),
		fmt.Sprintf("# %-18s %12.4f ms (geometric mean of per-program medians)", "op_p50_ms", m["op_p50_ms"].Value),
		fmt.Sprintf("# %-18s %12.4f ms (p%g of normalised latency, %d of %d ops beyond)",
			"op_tail_ms", m["op_tail_ms"].Value, 100*sum.tailQ, sum.tailBeyond, sum.tailN),
		fmt.Sprintf("# %-18s %12.4f MB", "peak_rss_mb", m["peak_rss_mb"].Value),
		fmt.Sprintf("# %-18s %12.4f (%d of %d ops)", "fail_ratio", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted),
		fmt.Sprintf("# %-18s %12.4f s (median of %d passes %v)", "setup_s", m["setup_s"].Value, len(setups), roundAll(setups)),
		fmt.Sprintf("# %-18s %12.4f %%", "host.steal_pct", steal),
	}
}

// traceLines renders a traced run: the self time of every span name,
// then the per-layer metrics.
func traceLines(w *workload, cfg config, self map[string]time.Duration, res *result) []string {
	out := []string{fmt.Sprintf("# %s seed %d traced; self time by span:", w.name, cfg.seed)}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out = append(out, fmt.Sprintf("#   %-28s %12.3f ms", n, float64(self[n])/1e6))
	}
	for _, d := range perLayer {
		out = append(out, fmt.Sprintf("# %-30s %16.6f %s", d.name, res.Metrics[d.name].Value, d.unit))
	}
	return out
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000+0.5)) / 1000
	}
	return out
}

// cpuTime is the process's CPU time, user plus system, over all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuStat is the host-wide line of /proc/stat: jiffies per state.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var st cpuStat
	// user nice system idle iowait irq softirq steal (guest time is
	// already inside user).
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

// stealPctSince is the share of host CPU time the hypervisor stole
// between two readings.
func (s cpuStat) stealPctSince(prev cpuStat) float64 {
	if s.total <= prev.total {
		return 0
	}
	return 100 * float64(s.steal-prev.steal) / float64(s.total-prev.total)
}

// gcCPU is the Go runtime's estimate of CPU spent in the collector and in
// total.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var c gcCPU
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

func (c gcCPU) fractionSince(prev gcCPU) float64 {
	if c.total <= prev.total {
		return 0
	}
	return (c.gc - prev.gc) / (c.total - prev.total)
}

var errMismatch = errors.New("output differs from the set-up reference")
