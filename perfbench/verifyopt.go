package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/alias"
	"repro/internal/appgen"
	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/memmodel"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/stress"
	"repro/internal/weaken"
)

// verdictCase is one model-checking cell of the verdict set with its
// expected verdict, written by hand from the litmus conformance cases
// and the paper's Table 2 (original violated, AtoMig verified).
type verdictCase struct {
	program     string
	ported      bool
	detectRaces bool
	stopAtFirst bool
	// maxExecs, when set, is a fixed execution budget; the cell's time
	// budget is then out of reach, so its verdict cannot depend on the
	// host's speed.
	maxExecs int
	want     mc.Verdict
}

// casBudget is the execution budget of the ported ck_spinlock_cas
// check, whose state space does not fit any budget the benchmark can
// afford: it must end unknown, the one undecided cell.
const casBudget = 4000

// verdictTable is the expected-verdict reference of the verify set.
func verdictTable() []verdictCase {
	var out []verdictCase
	pair := func(p string, races, first bool, before, after mc.Verdict) {
		out = append(out,
			verdictCase{program: p, detectRaces: races, stopAtFirst: first, want: before},
			verdictCase{program: p, ported: true, detectRaces: races, stopAtFirst: first, want: after})
	}
	// Litmus conformance: only the patterns AtoMig detects are repaired.
	pair("mp", false, false, mc.VerdictFail, mc.VerdictPass)
	pair("sb", false, false, mc.VerdictFail, mc.VerdictFail)
	pair("lb", false, false, mc.VerdictPass, mc.VerdictPass)
	pair("iriw", true, true, mc.VerdictRace, mc.VerdictRace)
	pair("corr", false, false, mc.VerdictPass, mc.VerdictPass)
	pair("seqlock", false, false, mc.VerdictFail, mc.VerdictPass)
	pair("seqlock-gap", true, false, mc.VerdictRace, mc.VerdictPass)
	pair("cna-lock", true, false, mc.VerdictFail, mc.VerdictPass)
	// Table 2 rows whose ported state space terminates.
	for _, p := range []string{"ck_spinlock_ticket", "ck_spinlock_mcs", "ck_sequence", "lf_hash"} {
		pair(p, false, true, mc.VerdictFail, mc.VerdictPass)
	}
	out = append(out, verdictCase{program: "ck_spinlock_cas", ported: true, maxExecs: casBudget, want: mc.VerdictUnknown})
	return out
}

// weakenCase is one program of the weaken set with its expected static
// costs before and after weakening (armv8 cost model). Race detection
// follows the conformance suite: off where the fingerprinted state
// space is intractable.
type weakenCase struct {
	program               string
	detectRaces           bool
	costBefore, costAfter int64
}

func weakenTable() []weakenCase {
	return []weakenCase{
		{"mp", true, 12, 10},
		{"seqlock", false, 61, 30},
		{"seqlock-gap", true, 22, 15},
		{"ck_spinlock_ticket", false, 61, 43},
		{"ck_sequence", false, 67, 36},
		{"ck_spinlock_mcs", false, 163, 101},
	}
}

// vmModule is a compiled corpus program ready for the checker.
type vmModule struct {
	orig, ported *ir.Module
	entries      []string
}

// vmInputs is the verify-optimize set-up: the compiled and ported
// corpus programs and the ported stress harness.
type vmInputs struct {
	// verdicts and weakens are the expected answers (verdictTable,
	// weakenTable).
	verdicts      []verdictCase
	weakens       []weakenCase
	progs         map[string]*vmModule
	harness       *ir.Module
	harnessEntry  []string
	harnessRacy   []alias.Loc
	harnessSource int
}

func newVMInputs(cfg Config) (*vmInputs, error) {
	in := &vmInputs{verdicts: verdictTable(), weakens: weakenTable(), progs: map[string]*vmModule{}}
	add := func(name string) error {
		if in.progs[name] != nil {
			return nil
		}
		p := corpus.Get(name)
		if p == nil {
			return fmt.Errorf("corpus program %q missing", name)
		}
		orig, err := p.Compile()
		if err != nil {
			return err
		}
		ported, _, err := atomig.PortClone(orig, atomig.DefaultOptions())
		if err != nil {
			return fmt.Errorf("port %s: %w", name, err)
		}
		in.progs[name] = &vmModule{orig: orig, ported: ported, entries: p.MCEntries}
		return nil
	}
	for _, c := range in.verdicts {
		if err := add(c.program); err != nil {
			return nil, err
		}
	}
	for _, c := range in.weakens {
		if err := add(c.program); err != nil {
			return nil, err
		}
	}

	spec := appgen.LargeSpec("stress-harness.c", cfg.StressLines, cfg.Seed)
	spec.PlantRace = true
	spec.HarnessThreads = 3
	src, gt := appgen.GenerateLarge(spec)
	res, err := minic.CompileOpts(spec.Name, src, minic.Options{Workers: cfg.Workers})
	if err != nil {
		return nil, fmt.Errorf("compile stress harness: %w", err)
	}
	opts := atomig.DefaultOptions()
	opts.Workers = cfg.Workers
	if _, err := atomig.Port(res.Module, opts); err != nil {
		return nil, fmt.Errorf("port stress harness: %w", err)
	}
	in.harness, in.harnessEntry, in.harnessRacy = res.Module, spec.HarnessEntries(), gt.Racy
	in.harnessSource = res.Stats.SourceLines
	return in, nil
}

// vmOutput is one verify-optimize op's outcome.
type vmOutput struct {
	verify, optimize, sweep time.Duration

	checks, decided, unknown, executions int

	weakened                  map[string]string // program -> weakened module hash
	weakenRes                 map[string]*weaken.Result
	weakenMods                map[string]*ir.Module
	mcChecks, tried, accepted int
	costBefore, costAfter     int64

	stress stressPrint
}

// stressPrint is everything about a sweep that must repeat exactly.
type stressPrint struct {
	schedules, stepLimited, findings int
	steps                            int64
}

// verifyOptimize runs one op: the verdict set, the weaken set, and one
// stress sweep, each checked against its reference.
func verifyOptimize(in *vmInputs, cfg Config, prov *obs.Provider, tk *obs.Track, id string) (*vmOutput, error) {
	out := &vmOutput{weakened: map[string]string{}, weakenRes: map[string]*weaken.Result{}, weakenMods: map[string]*ir.Module{}}
	var errs []string

	t0 := time.Now()
	for _, c := range in.verdicts {
		p := in.progs[c.program]
		m := p.orig
		if c.ported {
			m = p.ported
		}
		opts := mc.Options{
			Model: memmodel.ModelWMM, Entries: p.entries, Workers: cfg.Workers,
			DetectRaces: c.detectRaces, StopAtFirst: c.stopAtFirst,
			TimeBudget: 2 * time.Minute, Obs: prov,
		}
		if c.maxExecs > 0 {
			opts.MaxExecutions = c.maxExecs
			opts.TimeBudget = time.Hour
		}
		sp := benchSpan(tk, "mc.Check", id)
		res, err := mc.Check(m, opts)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("check %s: %w", c.program, err)
		}
		out.checks++
		out.executions += res.Executions
		if res.Verdict == mc.VerdictUnknown {
			out.unknown++
		} else {
			out.decided++
		}
		if res.Verdict != c.want {
			errs = append(errs, fmt.Sprintf("%s (ported=%t): verdict %s, want %s", c.program, c.ported, res.Verdict, c.want))
		}
	}
	out.verify = time.Since(t0)

	t0 = time.Now()
	for _, c := range in.weakens {
		p := in.progs[c.program]
		opts := weaken.DefaultOptions(p.entries)
		opts.DetectRaces = c.detectRaces
		opts.Workers = cfg.Workers
		opts.Obs = prov
		sp := benchSpan(tk, "weaken.Optimize", id)
		m, res, err := weaken.OptimizeClone(p.ported, opts)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("weaken %s: %w", c.program, err)
		}
		out.weakened[c.program] = hashText(m.String())
		out.weakenRes[c.program], out.weakenMods[c.program] = res, m
		out.mcChecks += res.MCChecks
		out.tried += res.Tried
		out.accepted += res.Accepted
		out.costBefore += res.CostBefore
		out.costAfter += res.CostAfter
		if res.CostBefore != c.costBefore || res.CostAfter != c.costAfter || res.Reason != "" {
			errs = append(errs, fmt.Sprintf("weaken %s: cost %d -> %d (%s), want %d -> %d",
				c.program, res.CostBefore, res.CostAfter, res.Reason, c.costBefore, c.costAfter))
		}
	}
	out.optimize = time.Since(t0)

	t0 = time.Now()
	sp := benchSpan(tk, "stress.Sweep", id)
	sres, err := stress.Sweep(in.harness, stress.Options{
		Entries: in.harnessEntry, Seeds: cfg.StressSeeds, BaseSeed: cfg.Seed,
		Workers: cfg.Workers, Obs: prov,
	})
	sp.End()
	out.sweep = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("stress sweep: %w", err)
	}
	out.stress = stressPrint{sres.Schedules, sres.StepLimited, len(sres.Findings), sres.Steps}
	if err := checkStress(sres, in.harnessRacy); err != nil {
		errs = append(errs, err.Error())
	}
	return out, joinErrs("verify-optimize", errs)
}

// checkStress holds a sweep of the planted-race harness to its ground
// truth: every schedule completes, nothing violates, the planted race
// is found and no other location races.
func checkStress(res *stress.Result, racy []alias.Loc) error {
	var errs []string
	if v := res.Violations(); len(v) > 0 {
		errs = append(errs, fmt.Sprintf("%d violations, first %s", len(v), v[0]))
	}
	if res.StepLimited > 0 {
		errs = append(errs, fmt.Sprintf("%d schedules hit the step limit", res.StepLimited))
	}
	want := map[alias.Loc]bool{}
	for _, l := range racy {
		want[l] = true
	}
	found := map[alias.Loc]bool{}
	for _, r := range res.Races() {
		if !want[r.Loc] {
			errs = append(errs, fmt.Sprintf("race on %s is not planted", r.Loc))
		}
		found[r.Loc] = true
	}
	for l := range want {
		if !found[l] {
			errs = append(errs, fmt.Sprintf("planted race on %s not found in %d schedules", l, res.Schedules))
		}
	}
	return joinErrs("stress", errs)
}

// runVerifyOptimize is the verify-optimize workload: one client in a
// closed loop, each op deciding the verdict set, weakening the weaken
// set and sweeping the stress harness. Verdicts, costs and the stress
// findings are checked every op; every op's outputs must repeat the
// first op's; the first op's weakened modules must re-verify.
func runVerifyOptimize(cfg Config) (*Result, error) {
	r := newResult("verify-optimize", cfg, 1)
	in, err := timeSetup(r, cfg, func() (*vmInputs, error) { return newVMInputs(cfg) }, func(*vmInputs) {})
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	outs := map[*obs.Provider][]*vmOutput{}
	var first *vmOutput
	untraced, traced := measure(r, cfg, 1, 1, func(prov *obs.Provider) opFunc {
		tk := prov.Track("bench.verify-optimize")
		return func(c, seq int) (time.Duration, error) {
			runtime.GC() // start every op from the same collected heap
			out, err := verifyOptimize(in, cfg, prov, tk, opID("verify-optimize", c, seq))
			if out == nil {
				return 0, err
			}
			lat := out.verify + out.optimize + out.sweep
			mu.Lock()
			defer mu.Unlock()
			outs[prov] = append(outs[prov], out)
			if first == nil {
				first = out
			} else if err == nil {
				err = sameOutputs(first, out)
			}
			return lat, err
		}
	})
	r.recordLoop(untraced)
	sum := summarize(outs[nil])
	r.Detail["verify_s"] = sum.verifyS
	r.Detail["optimize_s"] = sum.optimizeS
	r.Detail["stress_schedules_per_s"] = sum.stressRate
	r.Detail["decided_frac"] = sum.decidedFrac
	r.Detail["code_cost_ratio"] = sum.costRatio
	if traced != nil {
		layerVMMetrics(r, outs[traced.prov])
	}
	if first == nil {
		return r, nil
	}

	// Every weakened module must re-verify to its baseline verdict.
	for _, c := range in.weakens {
		p := in.progs[c.program]
		res := first.weakenRes[c.program]
		chk, err := mc.Check(first.weakenMods[c.program], mc.Options{
			Model: memmodel.ModelWMM, Entries: p.entries, Workers: cfg.Workers,
			DetectRaces: c.detectRaces, TimeBudget: 2 * time.Minute,
		})
		switch {
		case err != nil:
		case chk.Verdict.String() != res.Verdict:
			err = fmt.Errorf("weakened %s re-verifies %s, baseline %s", c.program, chk.Verdict, res.Verdict)
		case res.CostAfter > res.CostBefore:
			err = fmt.Errorf("weakened %s costs more: %d -> %d", c.program, res.CostBefore, res.CostAfter)
		}
		r.op(err)
	}
	r.Facts["stress_fingerprint"] = fmt.Sprintf("%+v", first.stress)
	return r, nil
}

// sameOutputs reports drift between two ops' deterministic outputs.
func sameOutputs(a, b *vmOutput) error {
	var errs []string
	for p, h := range a.weakened {
		if b.weakened[p] != h {
			errs = append(errs, fmt.Sprintf("weakened %s differs from the first op's", p))
		}
	}
	if a.stress != b.stress {
		errs = append(errs, fmt.Sprintf("stress sweep %+v, first op %+v", b.stress, a.stress))
	}
	if a.decided != b.decided {
		errs = append(errs, fmt.Sprintf("%d verdicts decided, first op %d", b.decided, a.decided))
	}
	return joinErrs("drift", errs)
}

// vmSummary is the verify-optimize figures of README.md over a set of
// ops: medians for times and rates, the deterministic ratios from the
// first op.
type vmSummary struct {
	verifyS, optimizeS, stressRate, decidedFrac, costRatio float64
}

func summarize(outs []*vmOutput) vmSummary {
	var verify, optimize, rate []float64
	for _, o := range outs {
		verify = append(verify, o.verify.Seconds())
		optimize = append(optimize, o.optimize.Seconds())
		rate = append(rate, float64(o.stress.schedules)/o.sweep.Seconds())
	}
	s := vmSummary{verifyS: median(verify), optimizeS: median(optimize), stressRate: median(rate)}
	if len(outs) > 0 && outs[0].checks > 0 && outs[0].costBefore > 0 {
		s.decidedFrac = float64(outs[0].decided) / float64(outs[0].checks)
		s.costRatio = float64(outs[0].costAfter) / float64(outs[0].costBefore)
	}
	return s
}

// layerVMMetrics fills the mc, weaken and stress layer metrics from
// the traced ops.
func layerVMMetrics(r *Result, outs []*vmOutput) {
	if len(outs) == 0 {
		return
	}
	var execs, execRate, unknown, checks, tried, accept, checkMS, sched, stepRate, limited, findings []float64
	for _, o := range outs {
		execs = append(execs, float64(o.executions))
		execRate = append(execRate, float64(o.executions)/o.verify.Seconds())
		unknown = append(unknown, float64(o.unknown))
		checks = append(checks, float64(o.mcChecks))
		tried = append(tried, float64(o.tried))
		if o.tried > 0 {
			accept = append(accept, float64(o.accepted)/float64(o.tried))
		}
		if o.mcChecks > 0 {
			checkMS = append(checkMS, ms(o.optimize)/float64(o.mcChecks))
		}
		sched = append(sched, float64(o.stress.schedules))
		stepRate = append(stepRate, float64(o.stress.steps)/o.sweep.Seconds())
		limited = append(limited, float64(o.stress.stepLimited))
		findings = append(findings, float64(o.stress.findings))
	}
	r.Metrics["mc.executions"] = median(execs)
	r.Metrics["mc.execs_per_s"] = median(execRate)
	r.Metrics["mc.unknown"] = median(unknown)
	r.Metrics["weaken.mc_checks"] = median(checks)
	r.Metrics["weaken.tried"] = median(tried)
	r.Metrics["weaken.accept_ratio"] = median(accept)
	r.Metrics["weaken.check_ms"] = median(checkMS)
	r.Metrics["stress.schedules"] = median(sched)
	r.Metrics["stress.steps_per_s"] = median(stepRate)
	r.Metrics["stress.step_limited"] = median(limited)
	r.Metrics["stress.findings"] = median(findings)
	sum := summarize(outs)
	r.Metrics["mc.decided_frac"] = sum.decidedFrac
	r.Metrics["weaken.code_cost_ratio"] = sum.costRatio
}
