package bench

import "testing"

// TestStressThroughputSmall runs the throughput + minimize experiment
// at a test-budget scale (10k lines, few seeds) and pins the
// acceptance shape: the planted race is found, the rate clears the
// 1000 schedules/sec bar, and the minimized program is litmus-sized
// with an exhaustive race confirmation (the paper-scale run is
// `make bench-stress`). Under -race only the rate bar is exempt: the
// instrumentation, not the engine, sets the rate there.
func TestStressThroughputSmall(t *testing.T) {
	b, err := StressThroughput(10_000, 7, []int{2}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.SLOC < 10_000 {
		t.Errorf("module is %d lines, want >= 10000", b.SLOC)
	}
	for _, r := range b.Throughput {
		t.Logf("j=%d: %d schedules, %.0f/s, planted=%t", r.Workers, r.Schedules, r.RatePerSec, r.FoundPlanted)
		if !r.FoundPlanted {
			t.Errorf("j=%d: planted race not found", r.Workers)
		}
		switch {
		case raceBuild:
			t.Logf("j=%d: -race build, 1000/s bar not asserted", r.Workers)
		case r.RatePerSec < 1000:
			t.Errorf("j=%d: %.0f schedules/sec below the 1000/s bar", r.Workers, r.RatePerSec)
		}
	}
	if b.Minimize == nil {
		t.Fatalf("minimize failed: %s", b.MinimizeErr)
	}
	m := b.Minimize
	t.Logf("minimized %d/%d funcs, %d/%d instrs; confirm=%s",
		m.Funcs, m.OrigFuncs, m.Instrs, m.OrigInstrs, m.ConfirmVerdict)
	if m.Funcs >= m.OrigFuncs/10 {
		t.Errorf("minimized to %d funcs from %d — not litmus-sized", m.Funcs, m.OrigFuncs)
	}
	if m.ConfirmVerdict != "racy" {
		t.Errorf("confirmation verdict %q, want racy", m.ConfirmVerdict)
	}
}

// TestStressSamplingMonotone checks the sampling experiment's
// direction: full observation detects the planted race in every
// single-seed sweep, and a 10% fraction detects in strictly fewer
// sweeps than 100% while observing strictly fewer accesses. (The
// observed share stays high even at 10% sampling because the harness's
// traffic is dominated by synchronization-relevant accesses, which the
// sampler always forwards — sampler.go's soundness boundary.)
func TestStressSamplingMonotone(t *testing.T) {
	rows, err := StressSampling([]float64{1, 0.1}, 12, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	full, tenth := rows[0], rows[1]
	t.Logf("sample=1: %d/%d detected; sample=0.1: %d/%d detected (%.1f%% observed)",
		full.Detected, full.Sweeps, tenth.Detected, tenth.Sweeps, tenth.ForwardedPct)
	if full.Detected != full.Sweeps {
		t.Errorf("full observation detected %d/%d sweeps, want all", full.Detected, full.Sweeps)
	}
	if tenth.Detected >= full.Detected {
		t.Errorf("sample=0.1 detected %d sweeps, want fewer than %d", tenth.Detected, full.Detected)
	}
	if full.ForwardedPct != 100 {
		t.Errorf("sample=1 observed %.1f%% of accesses, want 100%%", full.ForwardedPct)
	}
	if tenth.ForwardedPct >= full.ForwardedPct {
		t.Errorf("sample=0.1 observed %.1f%% of accesses, want under 100%%", tenth.ForwardedPct)
	}
}
