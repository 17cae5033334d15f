package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"umi/internal/cache"
	"umi/internal/cachegrind"
	"umi/internal/harness"
	"umi/internal/introspect"
	"umi/internal/metrics"
	"umi/internal/rio"
	"umi/internal/stats"
	"umi/internal/vm"
	"umi/internal/wire"
	"umi/pkg/umi"
)

// The traced run's layer probes. Each probe times calls into one module's
// public functions from outside, over every matrix program, so a layer's
// cost is measured where its own work happens rather than inferred from a
// whole run. The probes are the same on every workload; what a traced run
// adds per workload is its own Go-runtime and host figures.

// perLayer is what a traced run reports, on every workload.
var perLayer = []metricDef{
	{"vm.ns_per_instr", "ns"},
	{"vm.allocs_per_kinstr", "count"},
	{"vm.self_ms", "ms"},
	{"rio.ns_per_instr", "ns"},
	{"rio.dispatch_ns_per_instr", "ns"},
	{"rio.traces", "count"},
	{"rio.blocks", "count"},
	{"rio.dispatches", "count"},
	{"rio.self_ms", "ms"},
	{"cache.hierarchy_ns_per_access", "ns"},
	{"cache.l1_hit_ratio", "ratio"},
	{"cache.l2_miss_ratio", "ratio"},
	{"cache.self_ms", "ms"},
	{"cachegrind.ns_per_ref", "ns"},
	{"cachegrind.self_ms", "ms"},
	{"umi.instrument_ms", "ms"},
	{"umi.fill_ms", "ms"},
	{"umi.analyze_ms", "ms"},
	{"umi.history_ms", "ms"},
	{"umi.allocs_per_kinstr", "count"},
	{"umi.profiled_refs", "count"},
	{"umi.analyzer_invocations", "count"},
	{"umi.instrument_events", "count"},
	{"umi.filter_rate", "ratio"},
	{"umi.delinquent_recall", "ratio"},
	{"umi.delinquent_recall_mean", "ratio"},
	{"umi.miss_corr", "r"},
	{"umi.overhead_pct", "%"},
	{"umi.self_ms", "ms"},
	{"wire.decode_ns_per_ref", "ns"},
	{"wire.self_ms", "ms"},
	{"replay.ns_per_ref_inline", "ns"},
	{"replay.cpu_ns_per_ref_inline", "ns"},
	{"replay.ns_per_ref_pool", "ns"},
	{"replay.cpu_ns_per_ref_pool", "ns"},
	{"analyzer.ns_per_ref", "ns"},
	{"analyzer.self_ms", "ms"},
	{"daemon.create_ms", "ms"},
	{"daemon.ingest_ms", "ms"},
	{"daemon.delete_ms", "ms"},
	{"daemon.overhead_ns_per_ref", "ns"},
	{"daemon.prep_busy_ms", "ms"},
	{"daemon.seq_busy_ms", "ms"},
	{"daemon.self_ms", "ms"},
	{"daemon.leaked_goroutines_per_session", "count"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.gc_pause_ms", "ms"},
	{"go.allocs_per_op", "count"},
	{"host.steal_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"bench.self_ms_per_op", "ms"},
}

// deterministicLayer lists the per-layer metrics that are pure functions
// of the programs: they must repeat bit for bit across runs and seeds.
var deterministicLayer = []string{
	"rio.traces", "rio.blocks", "rio.dispatches",
	"cache.l1_hit_ratio", "cache.l2_miss_ratio",
	"umi.profiled_refs", "umi.analyzer_invocations", "umi.instrument_events", "umi.filter_rate",
	"umi.delinquent_recall", "umi.delinquent_recall_mean", "umi.miss_corr", "umi.overhead_pct",
}

// streamReps is how many times each stream probe repeats per program; the
// probe keeps the median. Streams are 4–50 KB, so one pass is
// milliseconds.
const streamReps = 5

// refTrace is one program's data references, recorded through the public
// vm.RefHook: struct of arrays, size in the low bits of meta and the write
// flag in the top bit.
type refTrace struct {
	pc, addr []uint64
	meta     []uint8
}

func (r *refTrace) hook(pc, addr uint64, size uint8, write bool) {
	m := size
	if write {
		m |= 0x80
	}
	r.pc = append(r.pc, pc)
	r.addr = append(r.addr, addr)
	r.meta = append(r.meta, m)
}

// probeSums accumulates the probes over the matrix.
type probeSums struct {
	instrs              uint64
	vmNs, rioNs         float64
	vmMallocs, umiAlloc uint64
	rio                 rio.RuntimeCounters

	refs              uint64
	hierNs, cgNs      float64
	l1Acc, l1Miss     uint64
	l2Acc, l2Miss     uint64
	umiNs             float64
	umiInstrs         uint64
	stageNs           map[string]uint64
	profiledRefs      uint64
	invocations       uint64
	instrumentEvents  uint64
	kept, filtered    uint64
	truth, found      int
	recalls           []float64
	simMiss, hwMiss   []float64
	overCyc, guestCyc uint64

	streamRefs                      uint64
	decodeNs, inlineNs, inlineCPU   float64
	poolNs, poolCPU                 float64
	createMs, ingestMs, deleteMs    []float64
	ingestNs, prepBusyNs, seqBusyNs float64
	failures                        []error
}

// runProbes runs every layer probe over the matrix and returns the
// per-layer metrics. A probe whose output fails its check is reported in
// the error; the metrics are still returned.
func runProbes(tr *tracer) (map[string]float64, error) {
	s := &probeSums{stageNs: map[string]uint64{}}
	g0 := runtime.NumGoroutine()
	d := introspect.NewDaemon(introspect.DaemonConfig{})
	for i, name := range matrix {
		op := int32(1<<20 + i) // probe spans get ids apart from the timed ops'
		root := tr.begin("probe", name, -1, op)
		err := probeProgram(name, opCtx{tr: tr, parent: root, op: op}, d, s)
		tr.end(root)
		if err != nil {
			s.failures = append(s.failures, fmt.Errorf("%s: %w", name, err))
		}
	}
	// Shutdown waits for every goroutine the daemon stops; what is left
	// was leaked by the sessions the probe created and deleted.
	d.Shutdown()
	m := s.metrics()
	m["daemon.leaked_goroutines_per_session"] = float64(runtime.NumGoroutine()-g0) / float64(len(s.createMs))
	return m, errors.Join(s.failures...)
}

func probeProgram(name string, c opCtx, d *introspect.Daemon, s *probeSums) error {
	w, err := matrixWorkload(name)
	if err != nil {
		return err
	}
	prog := w.Program()

	// vm: the interpreter alone, every access charged a fixed latency so
	// no cache hierarchy runs.
	var m *vm.Machine
	mallocs := mallocsDuring(func() {
		var dur time.Duration
		dur, err = c.call("vm.Machine.Run", func() error {
			m = vm.New(prog, vm.FixedLatency(1))
			return m.Run(harness.MaxInstrs)
		})
		s.vmNs += float64(dur)
	})
	if err != nil {
		return fmt.Errorf("vm: %w", err)
	}
	instrs := m.Instrs
	s.instrs += instrs
	s.vmMallocs += mallocs

	// rio: the code-cache substrate over the same fixed-latency machine.
	var rt *rio.Runtime
	dur, err := c.call("rio.Runtime.Run", func() error {
		rt = rio.NewRuntime(vm.New(prog, vm.FixedLatency(1)))
		return rt.Run(harness.MaxInstrs)
	})
	if err != nil {
		return fmt.Errorf("rio: %w", err)
	}
	if rt.M.Instrs != instrs {
		return fmt.Errorf("rio retired %d instructions, vm %d: %w", rt.M.Instrs, instrs, errMismatch)
	}
	s.rioNs += float64(dur)
	rc := rt.Counters()
	s.rio.TracesBuilt += rc.TracesBuilt
	s.rio.BlocksBuilt += rc.BlocksBuilt
	s.rio.Dispatches += rc.Dispatches

	// cache and cachegrind: replay the program's recorded data references
	// into the ground-truth hierarchy and into the offline simulator.
	refs := &refTrace{}
	if _, err := c.call("record.refs", func() error {
		rm := vm.New(prog, nil)
		rm.RefHook = refs.hook
		return rm.Run(harness.MaxInstrs)
	}); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	s.refs += uint64(len(refs.addr))
	h := cache.NewP4(false)
	dur, _ = c.call("cache.Hierarchy.Access", func() error {
		for i, a := range refs.addr {
			h.Access(a, refs.meta[i]&0x7f, refs.meta[i]&0x80 != 0)
		}
		return nil
	})
	s.hierNs += float64(dur)
	s.l1Acc += h.L1Stats.Accesses
	s.l1Miss += h.L1Stats.Misses
	s.l2Acc += h.L2Stats.Accesses
	s.l2Miss += h.L2Stats.Misses
	sim := cachegrind.NewP4()
	dur, _ = c.call("cachegrind.Simulator.Ref", func() error {
		for i, a := range refs.addr {
			sim.Ref(refs.pc[i], a, refs.meta[i]&0x7f, refs.meta[i]&0x80 != 0)
		}
		return nil
	})
	s.cgNs += float64(dur)
	if sim.L2MissRatio() != h.L2Stats.MissRatio() {
		return fmt.Errorf("cachegrind L2 miss ratio %v, hierarchy %v: %w", sim.L2MissRatio(), h.L2Stats.MissRatio(), errMismatch)
	}
	refs = nil // up to 35 MB; free it before the session probe

	// umi, guest side: one library session, with the stage attribution it
	// reports and the accuracy of its delinquent set against cachegrind's.
	sess := umi.NewSession(prog)
	var rep *umi.Report
	s.umiAlloc += mallocsDuring(func() {
		dur, err = c.call("umi.Session.Run", func() (err error) {
			rep, err = sess.Run()
			return err
		})
	})
	if err != nil {
		return fmt.Errorf("umi: %w", err)
	}
	s.umiNs += float64(dur)
	s.umiInstrs += sess.GuestInstructions()
	ov := sess.Overhead()
	for _, st := range []string{"instrument", "fill", "analyze", "history"} {
		s.stageNs[st] += ov.Stage(st).WallNs
	}
	s.overCyc += ov.OverheadCycles
	s.guestCyc += ov.GuestCycles
	snap := sess.Metrics()
	s.profiledRefs += snap.Counter("umi.stage.fill.refs")
	s.kept += snap.Counter("umi.candidates.kept")
	s.filtered += snap.Counter("umi.candidates.filtered")
	s.invocations += uint64(rep.AnalyzerInvocations)
	s.instrumentEvents += uint64(rep.InstrumentEvents)
	truth := sim.DelinquentSet(0.90)
	for pc := range truth {
		if rep.Delinquent[pc] {
			s.found++
		}
	}
	s.truth += len(truth)
	s.recalls = append(s.recalls, stats.Recall(rep.Delinquent, truth))
	s.simMiss = append(s.simMiss, rep.SimMissRatio)
	s.hwMiss = append(s.hwMiss, sess.HardwareMissRatio())

	// wire, analyzer and daemon: the program's recorded stream, decoded,
	// replayed inline and on a private pool, and ingested by a daemon.
	var cp *capture
	if _, err := c.call("record.stream", func() (err error) {
		cp, err = captureStream(name)
		return err
	}); err != nil {
		return err
	}
	if got, err := json.Marshal(rep); err != nil || !bytes.Equal(got, mustMarshal(cp.result.Report)) {
		return fmt.Errorf("session report differs from the standalone capture's: %w", errMismatch)
	}
	refsN := cp.result.Report.SimulatedRefs
	s.streamRefs += refsN
	want := mustMarshal(cp.result)

	var decode, inline, inlineCPU, pool, poolCPU, ingest []float64
	for r := 0; r < streamReps; r++ {
		dur, err := c.call("wire.Decoder.Next", func() error { return decodeAll(cp.stream) })
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		decode = append(decode, float64(dur))
		for _, workers := range []int{0, 2} {
			var res *introspect.RunResult
			c0 := cpuTime()
			dur, err := c.call(fmt.Sprintf("introspect.ReplayStream/%d", workers), func() (err error) {
				res, err = introspect.ReplayStream(bytes.NewReader(cp.stream), workers)
				return err
			})
			cpu := float64(cpuTime() - c0)
			if err != nil {
				return fmt.Errorf("replay at %d workers: %w", workers, err)
			}
			if !bytes.Equal(mustMarshal(res), want) {
				return fmt.Errorf("replay at %d workers: %w", workers, errMismatch)
			}
			if workers == 0 {
				inline, inlineCPU = append(inline, float64(dur)), append(inlineCPU, cpu)
			} else {
				pool, poolCPU = append(pool, float64(dur)), append(poolCPU, cpu)
			}
		}
		before := len(c.tr.spans)
		metricsBody, err := ingestOnce(d.Handler(), c, cp, r == 0)
		if err != nil {
			return fmt.Errorf("daemon: %w", err)
		}
		for _, sp := range c.tr.spans[before:] {
			ns := float64(sp.End - sp.Start)
			switch sp.Name {
			case "daemon.create":
				s.createMs = append(s.createMs, ns/1e6)
			case "daemon.ingest":
				s.ingestMs = append(s.ingestMs, ns/1e6)
				ingest = append(ingest, ns)
			case "daemon.delete":
				s.deleteMs = append(s.deleteMs, ns/1e6)
			}
		}
		if metricsBody != nil {
			var snap metrics.Snapshot
			if err := json.Unmarshal(metricsBody, &snap); err != nil {
				return fmt.Errorf("daemon metrics: %w", err)
			}
			s.prepBusyNs += float64(snap.Counter("umi.pool.prep_busy_ns"))
			s.seqBusyNs += float64(snap.Counter("umi.pool.seq_busy_ns"))
		}
	}
	s.decodeNs += median(decode)
	s.inlineNs += median(inline)
	s.inlineCPU += median(inlineCPU)
	s.poolNs += median(pool)
	s.poolCPU += median(poolCPU)
	s.ingestNs += median(ingest)
	return nil
}

// decodeAll reads one stream to its end with the public decoder.
func decodeAll(stream []byte) error {
	dec := wire.NewDecoder(bytes.NewReader(stream))
	if _, err := dec.Header(); err != nil {
		return err
	}
	for {
		if _, err := dec.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// metrics reduces the sums to the per-layer metrics. Per-instruction and
// per-reference figures divide summed time by summed work, so long
// programs weigh more, as they do in a whole run.
func (s *probeSums) metrics() map[string]float64 {
	ms := func(ns float64) float64 { return ns / 1e6 }
	umiSelf := s.umiNs - s.rioNs - s.hierNs
	return map[string]float64{
		"vm.ns_per_instr":               s.vmNs / float64(s.instrs),
		"vm.allocs_per_kinstr":          1000 * float64(s.vmMallocs) / float64(s.instrs),
		"vm.self_ms":                    ms(s.vmNs),
		"rio.ns_per_instr":              s.rioNs / float64(s.instrs),
		"rio.dispatch_ns_per_instr":     (s.rioNs - s.vmNs) / float64(s.instrs),
		"rio.traces":                    float64(s.rio.TracesBuilt),
		"rio.blocks":                    float64(s.rio.BlocksBuilt),
		"rio.dispatches":                float64(s.rio.Dispatches),
		"rio.self_ms":                   ms(s.rioNs - s.vmNs),
		"cache.hierarchy_ns_per_access": s.hierNs / float64(s.refs),
		"cache.l1_hit_ratio":            1 - float64(s.l1Miss)/float64(s.l1Acc),
		"cache.l2_miss_ratio":           float64(s.l2Miss) / float64(s.l2Acc),
		"cache.self_ms":                 ms(s.hierNs),
		"cachegrind.ns_per_ref":         s.cgNs / float64(s.refs),
		"cachegrind.self_ms":            ms(s.cgNs),
		"umi.instrument_ms":             ms(float64(s.stageNs["instrument"])),
		"umi.fill_ms":                   ms(float64(s.stageNs["fill"])),
		"umi.analyze_ms":                ms(float64(s.stageNs["analyze"])),
		"umi.history_ms":                ms(float64(s.stageNs["history"])),
		"umi.allocs_per_kinstr":         1000 * float64(s.umiAlloc) / float64(s.umiInstrs),
		"umi.profiled_refs":             float64(s.profiledRefs),
		"umi.analyzer_invocations":      float64(s.invocations),
		"umi.instrument_events":         float64(s.instrumentEvents),
		"umi.filter_rate":               float64(s.filtered) / float64(s.kept+s.filtered),
		"umi.delinquent_recall":         float64(s.found) / float64(s.truth),
		"umi.delinquent_recall_mean":    stats.Mean(s.recalls),
		"umi.miss_corr":                 stats.Correlation(s.simMiss, s.hwMiss),
		"umi.overhead_pct":              100 * float64(s.overCyc) / float64(s.guestCyc),
		"umi.self_ms":                   ms(umiSelf),
		"wire.decode_ns_per_ref":        s.decodeNs / float64(s.streamRefs),
		"wire.self_ms":                  ms(s.decodeNs),
		"replay.ns_per_ref_inline":      s.inlineNs / float64(s.streamRefs),
		"replay.cpu_ns_per_ref_inline":  s.inlineCPU / float64(s.streamRefs),
		"replay.ns_per_ref_pool":        s.poolNs / float64(s.streamRefs),
		"replay.cpu_ns_per_ref_pool":    s.poolCPU / float64(s.streamRefs),
		"analyzer.ns_per_ref":           (s.inlineNs - s.decodeNs) / float64(s.streamRefs),
		"analyzer.self_ms":              ms(s.inlineNs - s.decodeNs),
		"daemon.create_ms":              median(s.createMs),
		"daemon.ingest_ms":              median(s.ingestMs),
		"daemon.delete_ms":              median(s.deleteMs),
		"daemon.overhead_ns_per_ref":    (s.ingestNs - s.poolNs) / float64(s.streamRefs),
		"daemon.prep_busy_ms":           ms(s.prepBusyNs),
		"daemon.seq_busy_ms":            ms(s.seqBusyNs),
		"daemon.self_ms":                ms(s.ingestNs - s.poolNs),
	}
}

// mallocsDuring counts heap allocations made while fn runs.
func mallocsDuring(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

func mustMarshal(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}
