package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/alias"
	"repro/internal/appgen"
	"repro/internal/mc"
	"repro/internal/serve"
	"repro/internal/stress"
)

// shortConfig shrinks every workload to test size; the workload
// definitions are otherwise the benchmark's.
func shortConfig(t *testing.T, traced bool) Config {
	cfg := defaultConfig(7, 100*time.Millisecond, traced)
	cfg.Setups = 1
	cfg.PortLines, cfg.ServeLines, cfg.StressLines = 2000, 2000, 2000
	cfg.StressSeeds = 8
	if traced {
		cfg.TracePath = filepath.Join(t.TempDir(), "trace.json")
	}
	return cfg
}

// TestShortWorkloadsEmitEveryMetric runs a short mode of every workload,
// untraced and traced, and requires a correct run whose result line
// carries exactly the catalog's metrics for the run kind.
func TestShortWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				cfg := shortConfig(t, traced)
				res, err := runWorkload(workloads[name], cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("attempted %d failed %d: %v", res.Attempted, res.Failed, res.Failures)
				}
				line, err := resultLine(res, traced)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct bool
					Metrics map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal(line, &out); err != nil {
					t.Fatal(err)
				}
				want := metricsFor(traced)
				if !out.Correct || len(out.Metrics) != len(want) {
					t.Fatalf("correct=%t, %d metrics, want %d", out.Correct, len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: present=%t unit=%q, want unit %q", m.Name, ok, got.Unit, m.Unit)
					}
					if m.EndToEnd && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
					if m.On == name && m.Unit == "ms" && got.Value <= 0 {
						t.Errorf("layer metric %s = %v on its own workload, want > 0", m.Name, got.Value)
					}
				}
				if traced {
					if _, err := os.Stat(cfg.TracePath); err != nil {
						t.Errorf("traced run wrote no trace: %v", err)
					}
				}
			})
		}
	}
}

// TestPortColdRepeatsAcrossRuns: two runs of one seed produce the same
// output hash; another seed produces another.
func TestPortColdRepeatsAcrossRuns(t *testing.T) {
	hash := func(seed int64) string {
		cfg := shortConfig(t, false)
		cfg.Seed = seed
		res, err := runPortCold(cfg)
		if err != nil || res.Failed != 0 {
			t.Fatalf("seed %d: err=%v failures=%v", seed, err, res.Failures)
		}
		return res.Facts["output_sha256"]
	}
	a, b, c := hash(3), hash(3), hash(4)
	if a == "" || a != b {
		t.Errorf("same seed, different outputs: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and 4 produced the same output %s", a)
	}
}

// TestGroundTruthCatchesWrongAnswer: the port-cold reference accepts the
// generator's ground truth and rejects one with a promotion or a fence
// added or taken away.
func TestGroundTruthCatchesWrongAnswer(t *testing.T) {
	spec := appgen.LargeSpec("gt.c", 4000, 5)
	src, gt := appgen.GenerateLarge(spec)
	_, m, err := portCold(spec.Name, src, 1, nil, nil, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGroundTruth(m, gt); err != nil {
		t.Fatalf("true ground truth rejected: %v", err)
	}
	if len(gt.Promoted) == 0 || len(gt.Fenced) == 0 {
		t.Fatal("module has no promotions or fences to tamper with")
	}
	bogus := alias.Loc{Kind: alias.LocGlobal, Name: "lg_data0"}
	for name, wrong := range map[string]appgen.GroundTruth{
		"promotion missing": {Promoted: gt.Promoted[1:], Fenced: gt.Fenced},
		"promotion extra":   {Promoted: append(append([]alias.Loc(nil), gt.Promoted...), bogus), Fenced: gt.Fenced},
		"fence missing":     {Promoted: gt.Promoted, Fenced: gt.Fenced[1:]},
		"fence extra":       {Promoted: gt.Promoted, Fenced: append(append([]alias.Loc(nil), gt.Fenced...), bogus)},
	} {
		if checkGroundTruth(m, wrong) == nil {
			t.Errorf("%s: wrong ground truth accepted", name)
		}
	}
}

// TestPortDriftCaught: an op whose hash or counts differ from the
// reference is a failure.
func TestPortDriftCaught(t *testing.T) {
	ref := &portOutput{hash: "a", counts: portCounts{1, 2, 3}}
	if err := portDrift(ref, &portOutput{hash: "a", counts: portCounts{1, 2, 3}}); err != nil {
		t.Fatalf("identical output flagged: %v", err)
	}
	for _, o := range []*portOutput{
		{hash: "b", counts: portCounts{1, 2, 3}},
		{hash: "a", counts: portCounts{1, 2, 4}},
	} {
		if portDrift(ref, o) == nil {
			t.Errorf("drift %+v not caught", o)
		}
	}
}

// TestVerifyReferencesCatchWrongAnswers: one verify-optimize op passes
// with the hand-written tables and fails when one expected verdict or
// one expected cost is wrong.
func TestVerifyReferencesCatchWrongAnswers(t *testing.T) {
	cfg := shortConfig(t, false)
	in, err := newVMInputs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyOptimize(in, cfg, nil, nil, "ok"); err != nil {
		t.Fatalf("true references rejected: %v", err)
	}

	good := in.verdicts
	in.verdicts = append([]verdictCase(nil), good...)
	in.verdicts[0].want = mc.VerdictPass // mp is violated unported
	_, err = verifyOptimize(in, cfg, nil, nil, "wrong-verdict")
	if err == nil || !strings.Contains(err.Error(), "verdict") {
		t.Errorf("wrong expected verdict not caught: %v", err)
	}
	in.verdicts = good

	in.weakens = append([]weakenCase(nil), in.weakens...)
	in.weakens[0].costAfter--
	_, err = verifyOptimize(in, cfg, nil, nil, "wrong-cost")
	if err == nil || !strings.Contains(err.Error(), "cost") {
		t.Errorf("wrong expected cost not caught: %v", err)
	}
}

// TestVerdictTableShape: every cell but the execution-budgeted ported
// ck_spinlock_cas expects a decided verdict.
func TestVerdictTableShape(t *testing.T) {
	unknown := 0
	for _, c := range verdictTable() {
		if c.want == mc.VerdictUnknown {
			unknown++
			if c.program != "ck_spinlock_cas" || !c.ported || c.maxExecs == 0 {
				t.Errorf("unexpected undecided cell %+v", c)
			}
		}
	}
	if unknown != 1 {
		t.Errorf("%d undecided cells, want 1", unknown)
	}
}

// TestStressReferenceCatchesWrongAnswer: the sweep of the planted
// harness passes against the generator's racy set and fails when the
// expected set misses the planted race or names a race never found.
func TestStressReferenceCatchesWrongAnswer(t *testing.T) {
	cfg := shortConfig(t, false)
	in, err := newVMInputs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stress.Sweep(in.harness, stress.Options{Entries: in.harnessEntry, Seeds: cfg.StressSeeds, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStress(res, in.harnessRacy); err != nil {
		t.Fatalf("true racy set rejected: %v", err)
	}
	if checkStress(res, nil) == nil {
		t.Error("found race accepted with no race planted")
	}
	extra := append(append([]alias.Loc(nil), in.harnessRacy...), alias.Loc{Kind: alias.LocGlobal, Name: "lg_data0"})
	if checkStress(res, extra) == nil {
		t.Error("expected race that was never found accepted")
	}
}

// TestDriftCaught: verify-optimize ops that disagree are a failure.
func TestDriftCaught(t *testing.T) {
	a := &vmOutput{weakened: map[string]string{"mp": "x"}, decided: 24, stress: stressPrint{schedules: 8, steps: 100}}
	if err := sameOutputs(a, a); err != nil {
		t.Fatalf("identical ops flagged: %v", err)
	}
	for _, b := range []*vmOutput{
		{weakened: map[string]string{"mp": "y"}, decided: 24, stress: a.stress},
		{weakened: a.weakened, decided: 23, stress: a.stress},
		{weakened: a.weakened, decided: 24, stress: stressPrint{schedules: 8, steps: 101}},
	} {
		if sameOutputs(a, b) == nil {
			t.Errorf("drift %+v not caught", b)
		}
	}
}

// TestServeReferenceCatchesWrongAnswer: a session's emitted port matches
// the cold port of its dump, and a tampered port does not.
func TestServeReferenceCatchesWrongAnswer(t *testing.T) {
	cfg := shortConfig(t, false)
	cfg.Clients = 1
	g, err := newServeRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	s := g.sessions[0]
	if _, err := s.c.call(&serve.Request{Op: "edit", Session: s.session, Replace: []string{s.nextDelta()}}); err != nil {
		t.Fatal(err)
	}
	if err := checkSessionPort(s); err != nil {
		t.Fatalf("true port rejected: %v", err)
	}
	dump, err := s.c.call(&serve.Request{Op: "dump", Session: s.session})
	if err != nil {
		t.Fatal(err)
	}
	emitted, err := s.c.call(&serve.Request{Op: "port", Session: s.session, Emit: true})
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(emitted.Text, "seq_cst", "relaxed", 1)
	if tampered == emitted.Text {
		t.Fatal("port has no seq_cst access to tamper with")
	}
	if matchColdPort(tampered, dump.Text) == nil {
		t.Error("tampered port accepted")
	}
}

// TestClosedLoopCountsFailures: a panicking op and an op past its
// deadline are failed ops, and the loop runs until minOps.
func TestClosedLoopCountsFailures(t *testing.T) {
	ops := closedLoop(1, 0, 3, time.Second, func(c, seq int) (time.Duration, error) {
		switch seq {
		case 0:
			panic("boom")
		case 1:
			return 2 * time.Second, nil
		}
		return time.Millisecond, nil
	})
	if len(ops[0]) != 3 {
		t.Fatalf("%d ops, want 3", len(ops[0]))
	}
	for i, want := range []bool{true, true, false} {
		if got := ops[0][i].err != nil; got != want {
			t.Errorf("op %d failed=%t, want %t (%v)", i, got, want, ops[0][i].err)
		}
	}
}

// TestHostCheckRefusesOversubscription: more workers or clients than
// nproc is refused before anything runs.
func TestHostCheckRefusesOversubscription(t *testing.T) {
	n := runtime.NumCPU()
	for _, h := range []HostFacts{
		{NProc: n, GOMAXPROCS: n, Workers: n + 1, Clients: 1},
		{NProc: n, GOMAXPROCS: n, Workers: 1, Clients: n + 1},
		{NProc: n, GOMAXPROCS: n + 1, Workers: 1, Clients: 1},
	} {
		if h.check() == nil {
			t.Errorf("%+v accepted", h)
		}
	}
	if err := (HostFacts{NProc: n, GOMAXPROCS: n, Workers: n, Clients: n}).check(); err != nil {
		t.Errorf("nproc workers and clients refused: %v", err)
	}
}

// TestCatalogMatchesBenchmarkJSON: BENCHMARK.json names exactly the
// catalog's workloads and metrics, with the same units and directions.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	for _, kind := range []struct {
		traced bool
		list   []struct{ Name, Unit, Better string }
	}{{false, b.EndToEnd}, {true, b.PerLayer}} {
		want := metricsFor(kind.traced)
		if len(kind.list) != len(want) {
			t.Errorf("traced=%t: %d metrics in BENCHMARK.json, catalog has %d", kind.traced, len(kind.list), len(want))
			continue
		}
		for i, m := range want {
			got := kind.list[i]
			if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
				t.Errorf("entry %d: %+v, catalog %s %s %s", i, got, m.Name, m.Unit, m.Better)
			}
		}
	}
}
