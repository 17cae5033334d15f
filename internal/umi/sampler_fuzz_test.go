package umi

import (
	"testing"

	"umi/internal/cache"
)

// FuzzSamplerConfig throws arbitrary (including hostile: negative, zero,
// enormous) sampling knobs at the schedule helpers and checks the
// invariants the fill trigger leans on: the effective period is always
// at least 1, every burst's entry budget yields at least one recorded
// row (the clamp that keeps analyzer invocations non-empty), the adapted
// row target stays within (0, AddressProfileRows], and the schedule is a
// pure function of (seed, start PC, entry counter).
func FuzzSamplerConfig(f *testing.F) {
	f.Add(0, uint64(0), 0, uint64(0x400000), uint8(0))
	f.Add(8, uint64(1), 4, uint64(0x401000), uint8(1))
	f.Add(-5, uint64(1<<63), -3, uint64(0), uint8(3))
	f.Add(1, uint64(42), 1, uint64(0xffffffffffffffff), uint8(7))
	f.Fuzz(func(t *testing.T, period int, seed uint64, stable int, startPC uint64, levelRaw uint8) {
		cfg := DefaultConfig(cache.P4L2)
		cfg.BurstPeriod = period
		cfg.SamplerSeed = seed
		cfg.AdaptSampling = true
		cfg.AdaptStableWindows = stable

		if p := cfg.burstPeriod(); p < 1 {
			t.Fatalf("burstPeriod() = %d with BurstPeriod %d, want >= 1", p, period)
		}
		if k := cfg.adaptStableWindows(); k < 1 {
			t.Fatalf("adaptStableWindows() = %d with AdaptStableWindows %d, want >= 1", k, stable)
		}

		s := &System{cfg: cfg}
		s.adaptLevel = int(levelRaw % (adaptMaxLevel + 1))
		rows := s.effRows()
		if rows < 1 || rows > cfg.AddressProfileRows {
			t.Fatalf("effRows() = %d at level %d, want in (0, %d]", rows, s.adaptLevel, cfg.AddressProfileRows)
		}
		if gap := s.effGap(); gap < cfg.ReinstrumentGap {
			t.Fatalf("effGap() = %d below the configured %d", gap, cfg.ReinstrumentGap)
		}

		mk := func() *traceState {
			return &traceState{rowTarget: rows, burstOffset: splitmix64(seed ^ startPC)}
		}
		ts := mk()
		recorded := 0
		var schedule []bool
		for e := 0; e < rows; e++ {
			ts.entrySeen = e
			hit := s.burstRecord(ts)
			schedule = append(schedule, hit)
			if hit {
				recorded++
			}
		}
		if recorded == 0 {
			t.Fatalf("schedule recorded 0 rows over a %d-entry burst (period %d)", rows, period)
		}
		// Replaying the same (seed, PC) stream must reproduce the schedule
		// exactly.
		ts2 := mk()
		for e := 0; e < rows; e++ {
			ts2.entrySeen = e
			if s.burstRecord(ts2) != schedule[e] {
				t.Fatalf("entry %d: schedule not reproducible", e)
			}
		}
	})
}
