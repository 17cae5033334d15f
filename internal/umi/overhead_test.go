package umi

import (
	"strings"
	"testing"
)

// Attribution contract: the per-stage report must reconcile exactly with
// the cost model and the runtime's overhead ledger, stay deterministic
// across runs and worker counts, and be assemblable live from the
// registry alone.

func TestOverheadAttributionSums(t *testing.T) {
	prog := strideWorkload(t, 400_000)
	cfg := testConfig()
	s, rt := runUMI(t, prog, cfg)
	r := s.Overhead()

	if r.GuestCycles == 0 || r.OverheadCycles == 0 {
		t.Fatalf("empty report: %+v", r)
	}
	if r.GuestCycles != rt.M.Cycles {
		t.Errorf("GuestCycles = %d, want the machine's %d", r.GuestCycles, rt.M.Cycles)
	}
	if r.OverheadCycles != rt.Overhead {
		t.Errorf("OverheadCycles = %d, want the runtime ledger's %d", r.OverheadCycles, rt.Overhead)
	}
	// Stage charges must match the cost model applied to the counted
	// events, and the stages (with the substrate remainder) must partition
	// the ledger exactly.
	snap := s.MetricsSnapshot()
	wantFill := cfg.PrologCost*snap.Counter("umi.stage.fill.prologs") +
		cfg.PerRefCost*snap.Counter("umi.stage.fill.refs")
	if got := r.Stage("fill").ModelledCycles; got != wantFill {
		t.Errorf("fill cycles = %d, want %d", got, wantFill)
	}
	instrEv := snap.Counter("umi.traces.instrumented") + snap.Counter("umi.traces.deinstrumented")
	if got := r.Stage("instrument").ModelledCycles; got != cfg.InstrumentCost*instrEv {
		t.Errorf("instrument cycles = %d, want %d", got, cfg.InstrumentCost*instrEv)
	}
	var sum uint64
	for _, st := range r.Stages {
		sum += st.ModelledCycles
	}
	if sum != r.OverheadCycles {
		t.Errorf("stages sum to %d cycles, ledger says %d", sum, r.OverheadCycles)
	}
	// The observational stages carry no modelled cost by construction.
	for _, name := range []string{"prep", "history", "emit"} {
		if c := r.Stage(name).ModelledCycles; c != 0 {
			t.Errorf("observational stage %s charged %d cycles", name, c)
		}
	}
}

// TestOverheadDeterministic: the modelled render is byte-identical across
// repeated runs and across worker counts; only the wall view may differ.
func TestOverheadDeterministic(t *testing.T) {
	prog := manyLoopsWorkload(t, 8, 30_000)
	render := func(workers int) string {
		cfg := testConfig()
		cfg.BurstPeriod = 8
		cfg.SamplerSeed = 7
		cfg.AnalyzerWorkers = workers
		s, _ := runUMI(t, prog, cfg)
		return s.Overhead().String()
	}
	want := render(0)
	if !strings.Contains(want, "self-overhead: guest") {
		t.Fatalf("unexpected render:\n%s", want)
	}
	for _, workers := range []int{0, 1, 4} {
		if got := render(workers); got != want {
			t.Errorf("workers=%d render differs:\n got: %s\nwant: %s", workers, got, want)
		}
	}
}

// TestLiveOverheadFromRegistry: the live report must be assemblable from
// the registry alone and agree with the drained report at quiescence.
func TestLiveOverheadFromRegistry(t *testing.T) {
	prog := strideWorkload(t, 400_000)
	s, _ := runUMI(t, prog, testConfig())
	want := s.Overhead()
	live := s.LiveOverhead()
	if live.GuestCycles != want.GuestCycles || live.OverheadCycles != want.OverheadCycles {
		t.Errorf("live report differs at quiescence: live %d/%d, drained %d/%d",
			live.GuestCycles, live.OverheadCycles, want.GuestCycles, want.OverheadCycles)
	}
	for _, st := range want.Stages {
		if live.Stage(st.Stage).ModelledCycles != st.ModelledCycles {
			t.Errorf("stage %s: live %d cycles, drained %d",
				st.Stage, live.Stage(st.Stage).ModelledCycles, st.ModelledCycles)
		}
	}
	// The wall view renders from the same report (never golden-compared:
	// it carries measured time) and skips the modelled-only substrate row.
	wall := want.LiveString()
	for _, wantStr := range []string{"self-overhead (wall): run", "(sampled estimate)", "prep"} {
		if !strings.Contains(wall, wantStr) {
			t.Errorf("LiveString missing %q:\n%s", wantStr, wall)
		}
	}
	if strings.Contains(wall, "substrate") {
		t.Errorf("LiveString rendered the modelled-only substrate row:\n%s", wall)
	}
	if st := want.Stage("no-such-stage"); st.ModelledCycles != 0 || st.Stage != "" {
		t.Errorf("unknown stage lookup = %+v, want the zero cost", st)
	}
	// And the snapshot path the daemon uses reproduces the same report.
	cfg := testConfig()
	fromSnap := OverheadFromSnapshot(s.MetricsSnapshot(), &cfg)
	if fromSnap.String() != want.String() {
		t.Errorf("snapshot-rebuilt report differs:\n got: %s\nwant: %s",
			fromSnap.String(), want.String())
	}
}

// TestOverheadPromRender: the fleet exposition must carry every family,
// label each sample, and declare each type once.
func TestOverheadPromRender(t *testing.T) {
	prog := strideWorkload(t, 400_000)
	s, _ := runUMI(t, prog, testConfig())
	r := s.Overhead()

	var sb strings.Builder
	WriteOverheadPromFleet(&sb, []LabeledOverhead{
		{Label: "s1", Report: r}, {Label: "s2", Report: r}, {Label: "s3"},
	})
	fleet := sb.String()
	for _, family := range []string{
		"umi_overhead_guest_cycles", "umi_overhead_cycles_total", "umi_overhead_ratio",
		"umi_overhead_stage_cycles", "umi_overhead_stage_wall_ns",
	} {
		if c := strings.Count(fleet, "# TYPE "+family+" gauge"); c != 1 {
			t.Errorf("fleet exposition declares %s %d times, want 1", family, c)
		}
	}
	for _, want := range []string{
		`umi_overhead_ratio{session="s1"}`,
		`umi_overhead_stage_cycles{session="s2",stage="fill"}`,
		`umi_overhead_stage_wall_ns{session="s1",stage="analyze"}`,
	} {
		if !strings.Contains(fleet, want) {
			t.Errorf("fleet exposition missing %q:\n%s", want, fleet)
		}
	}
	if strings.Contains(fleet, `session="s3"`) {
		t.Error("fleet exposition rendered the nil-report session")
	}
	sb.Reset()
	WriteOverheadPromFleet(&sb, nil)
	if sb.Len() != 0 {
		t.Errorf("empty fleet wrote %q", sb.String())
	}
}
