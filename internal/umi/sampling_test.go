package umi

import (
	"testing"

	"umi/internal/isa"
	"umi/internal/program"
)

// Contract tests for sampled and adaptive instrumentation: the sampled
// configurations must stay deterministic at every analyzer worker count,
// sampling-off must be byte-identical to a build that never heard of
// sampling, and each mechanism must actually deliver its cost cut without
// losing the delinquent loads.

// twoPhaseWorkload runs a long all-hits scratch loop (phase A, miss ratio
// ~0) followed by a strided walk over a large array (phase B, miss ratio
// ~1): the miss-ratio drift across the boundary is what the history
// layer's PhaseChange rule exists to flag.
func twoPhaseWorkload(t *testing.T, itersA, elemsB int64) *program.Program {
	t.Helper()
	b := program.NewBuilder("twophase")
	e := b.Block("entry")
	e.MovI(isa.R0, 0)
	e.MovI(isa.R5, int64(program.GlobalBase))
	a := b.Block("phaseA")
	a.Load(isa.R4, 8, isa.Mem(isa.R5, 0))
	a.AddI(isa.R0, isa.R0, 1)
	a.BrI(isa.CondLT, isa.R0, itersA, "phaseA")
	mid := b.Block("mid")
	mid.MovI(isa.R0, 0)
	mid.MovI(isa.R1, elemsB)
	mid.MovI(isa.R2, int64(program.HeapBase))
	l := b.Block("phaseB")
	l.Load(isa.R3, 8, isa.MemIdx(isa.R2, isa.R0, 8, 0))
	l.AddI(isa.R0, isa.R0, 8)
	l.Br(isa.CondLT, isa.R0, isa.R1, "phaseB")
	b.Block("done").Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

// TestSamplingDeterminism: every sampled configuration must report
// byte-identically at workers 0, 1, and 4 — the schedules derive from the
// seed and trace PCs alone, never from pipeline interleaving.
func TestSamplingDeterminism(t *testing.T) {
	progs := map[string]*program.Program{
		"manyloops": manyLoopsWorkload(t, 8, 30_000),
		"stride":    strideWorkload(t, 400_000),
	}
	mods := map[string]func(*Config){
		"burst": func(c *Config) { c.BurstPeriod = 8; c.SamplerSeed = 1 },
		"adapt": func(c *Config) {
			c.BurstPeriod = 8
			c.SamplerSeed = 1
			c.AdaptSampling = true
		},
	}
	for mname, mod := range mods {
		for pname, prog := range progs {
			cfg := testConfig()
			mod(&cfg)
			want := workerKey(t, prog, cfg, 0)
			for _, workers := range []int{1, 4} {
				if got := workerKey(t, prog, cfg, workers); got != want {
					t.Errorf("%s/%s: workers=%d differs from serial:\n  got  %s\n  want %s",
						mname, pname, workers, got, want)
				}
			}
		}
	}
}

// TestSamplingOffInert: configurations that disable sampling in every
// spelling (zero period, explicit period 1, a seed with no period) must
// reproduce the plain config's
// report exactly — the off path is the pre-sampling code path.
func TestSamplingOffInert(t *testing.T) {
	prog := strideWorkload(t, 400_000)
	base := testConfig()
	want := workerKey(t, prog, base, 0)
	offs := map[string]func(*Config){
		"period-1":  func(c *Config) { c.BurstPeriod = 1 },
		"seed-only": func(c *Config) { c.SamplerSeed = 0xdead },
	}
	for name, mod := range offs {
		cfg := testConfig()
		mod(&cfg)
		if got := workerKey(t, prog, cfg, 0); got != want {
			t.Errorf("%s: sampled-off run differs from seed behaviour:\n  got  %s\n  want %s",
				name, got, want)
		}
	}
}

// TestBurstSamplingCutsFill: at 1-in-8 the fill stage must record ~1/8 of
// the references (>= 40% fewer modelled fill cycles — the acceptance bar)
// while still flagging the strided load delinquent.
func TestBurstSamplingCutsFill(t *testing.T) {
	prog := strideWorkload(t, 400_000)

	full, _ := runUMI(t, prog, testConfig())
	cfg := testConfig()
	cfg.BurstPeriod = 8
	cfg.SamplerSeed = 1
	burst, _ := runUMI(t, prog, cfg)

	fullFill := full.Overhead().Stage("fill").ModelledCycles
	burstFill := burst.Overhead().Stage("fill").ModelledCycles
	if fullFill == 0 {
		t.Fatal("full run charged no fill cycles")
	}
	if cut := 1 - float64(burstFill)/float64(fullFill); cut < 0.40 {
		t.Errorf("burst 1-in-8 cut fill cycles by %.0f%% (%d -> %d), want >= 40%%",
			100*cut, fullFill, burstFill)
	}
	if skips := burst.MetricsSnapshot().Counter("umi.sampler.burst_skips"); skips == 0 {
		t.Error("burst run recorded no skips")
	}
	loopPC := prog.Symbols["loop"]
	if !burst.Report().Delinquent[loopPC] {
		t.Errorf("burst run lost the strided delinquent load %#x", loopPC)
	}
}

// TestAdaptShrinksWhenStable: a phase-stable run must step the adaptation
// level down (fewer rows per profile, longer cooldowns) and report it.
func TestAdaptShrinksWhenStable(t *testing.T) {
	prog := strideWorkload(t, 400_000)
	cfg := testConfig()
	cfg.AdaptSampling = true
	cfg.AdaptStableWindows = 2
	s, _ := runUMI(t, prog, cfg)
	snap := s.MetricsSnapshot()
	if snap.Counter("umi.sampler.adapt_shrinks") == 0 {
		t.Error("stable run never shrank")
	}
	if snap.Gauge("umi.sampler.level").Value == 0 {
		t.Error("adaptation level still 0 after a stable run")
	}
	if snap.Counter("umi.sampler.adapt_rearms") != 0 {
		t.Error("stable run re-armed")
	}
}

// TestAdaptRearmsOnPhaseChange: when the workload shifts phase, the
// PhaseChange window must reset adaptation to full profiling.
func TestAdaptRearmsOnPhaseChange(t *testing.T) {
	prog := twoPhaseWorkload(t, 400_000, 800_000)
	cfg := testConfig()
	cfg.AdaptSampling = true
	cfg.AdaptStableWindows = 2
	s, _ := runUMI(t, prog, cfg)
	snap := s.MetricsSnapshot()
	if s.History().PhaseChanges == 0 {
		t.Fatal("two-phase workload produced no PhaseChange window; test needs one")
	}
	if snap.Counter("umi.sampler.adapt_shrinks") == 0 {
		t.Error("phase A never shrank")
	}
	if snap.Counter("umi.sampler.adapt_rearms") == 0 {
		t.Error("phase change never re-armed full profiling")
	}
}

// TestAdaptForcesInline: AdaptSampling reads the just-captured window on
// the guest thread, so it must force the inline analyzer path even when
// workers are configured — and still match the serial report.
func TestAdaptForcesInline(t *testing.T) {
	prog := strideWorkload(t, 400_000)
	cfg := testConfig()
	cfg.AdaptSampling = true
	want := workerKey(t, prog, cfg, 0)
	if got := workerKey(t, prog, cfg, 4); got != want {
		t.Errorf("adaptive run with workers differs from serial:\n  got  %s\n  want %s", got, want)
	}
}
