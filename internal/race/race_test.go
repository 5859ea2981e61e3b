// Corpus integration tests for the race detector. These live in an
// external test package because they drive the atomig porting pipeline,
// which itself imports internal/race for race explanation.
package race_test

import (
	"strings"
	"testing"

	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/memmodel"
	"repro/internal/race"
	"repro/internal/stress"
	"repro/internal/transform"
	"repro/internal/vm"
)

func compileProgram(t *testing.T, name string) (*corpus.Program, *ir.Module) {
	t.Helper()
	p := corpus.Get(name)
	if p == nil {
		t.Fatalf("corpus program %q not registered", name)
	}
	m, err := p.Compile()
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return p, m
}

// runDetector runs seeds executions of the module per scheduler mode
// under the given model, every one observed by det — the detector-only
// harness for tests of the detector itself (stress.Sweep runs WMM or
// TSO only and keeps a private detector per worker). Seeds follow
// stress.Sweep's grid.
func runDetector(t *testing.T, m *ir.Module, entries []string, det *race.Detector, model memmodel.Model, modes []vm.SchedMode, seeds int) {
	t.Helper()
	for _, mode := range modes {
		for s := int64(1); s <= int64(seeds); s++ {
			det.BeginExec()
			if _, err := vm.Run(m, vm.Options{
				Model:      model,
				Entries:    entries,
				Controller: vm.NewScheduler(mode, vm.GridSeed(1, mode, s)),
				Costs:      vm.DefaultCosts(),
				Hook:       det,
			}); err != nil {
				t.Fatalf("run (%s, seed %d): %v", mode, s, err)
			}
		}
	}
}

// port applies the named strategy: the full atomig pipeline for
// programs with detectable synchronization patterns, the naive
// all-SC strategy for pure litmus races (which atomig legitimately
// leaves alone — they have no synchronization to seed from).
func port(t *testing.T, m *ir.Module, strategy string) {
	t.Helper()
	switch strategy {
	case "atomig":
		if _, err := atomig.Port(m, atomig.DefaultOptions()); err != nil {
			t.Fatalf("atomig.Port: %v", err)
		}
	case "naive":
		transform.Naive(m)
	default:
		t.Fatalf("unknown port strategy %q", strategy)
	}
}

// raceCases is the shared table: every program the detector must flag
// on the legacy source, with the port strategy whose output must be
// race-free.
var raceCases = []struct {
	name string
	port string
}{
	{"sb", "naive"},
	{"lb", "naive"},
	{"iriw", "naive"},
	{"corr", "naive"},
	{"mp", "atomig"},
	{"tas", "atomig"},
	{"seqlock-gap", "atomig"},
}

// TestLegacyProgramsRaceUnderEveryMode asserts the racy verdict for
// each corpus program under each scheduler mode separately: a single
// seeded execution per mode must already expose the race (these are
// all unconditional races — every interleaving contains the
// conflicting pair).
func TestLegacyProgramsRaceUnderEveryMode(t *testing.T) {
	for _, tc := range raceCases {
		for _, mode := range vm.AllSchedModes() {
			t.Run(tc.name+"/"+mode.String(), func(t *testing.T) {
				p, m := compileProgram(t, tc.name)
				res, err := stress.Sweep(m, stress.Options{
					Model:   memmodel.ModelWMM,
					Entries: p.MCEntries,
					Modes:   []vm.SchedMode{mode},
					Seeds:   2,
				})
				if err != nil {
					t.Fatalf("sweep: %v", err)
				}
				if res.Detector.Races() == 0 {
					t.Fatalf("no races reported for legacy %s under %s", tc.name, mode)
				}
			})
		}
	}
}

// TestPortedProgramsRaceFree is the negative control: the ported
// variant of every racy program must survive the full scheduler-mode
// sweep with zero races and zero execution failures.
func TestPortedProgramsRaceFree(t *testing.T) {
	for _, tc := range raceCases {
		t.Run(tc.name, func(t *testing.T) {
			p, m := compileProgram(t, tc.name)
			port(t, m, tc.port)
			res, err := stress.Sweep(m, stress.Options{
				Model:   memmodel.ModelWMM,
				Entries: p.MCEntries,
				Seeds:   4,
			})
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			if n := res.Detector.Races(); n != 0 {
				t.Fatalf("ported %s (%s) still races (%d reports):\n%s",
					tc.name, tc.port, n, race.FormatReports(res.Races()))
			}
			// Only the atomig-ported programs must also run clean: the
			// naive all-SC port eliminates races, but this machine's SC
			// atomics deliberately keep weak outcomes unless fenced (see
			// memmodel.EligibleReads), so sb's assert may still trip.
			if v := res.Violations(); tc.port == "atomig" && len(v) != 0 {
				t.Fatalf("ported %s (%s) failed executions: %v", tc.name, tc.port, v)
			}
		})
	}
}

// TestSeqlockGapReportsExactField is the issue's acceptance check: the
// migration-gap program must be flagged with a report naming the struct
// field the port should have promoted (%gen:0, the generation counter
// the writer still stores with plain accesses).
func TestSeqlockGapReportsExactField(t *testing.T) {
	p, m := compileProgram(t, "seqlock-gap")
	res, err := stress.Sweep(m, stress.Options{
		Model:   memmodel.ModelWMM,
		Entries: p.MCEntries,
		Seeds:   4,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	var found bool
	var locs []string
	for _, r := range res.Races() {
		locs = append(locs, r.Loc.String())
		if r.Loc.String() == "%gen:0" {
			found = true
			// The gap pairs the reader's already-ported atomic load
			// with the writer's plain store: exactly one side atomic.
			if r.Prior.Atomic == r.Current.Atomic {
				t.Errorf("expected mixed atomic/plain pair on %%gen:0, got prior=%v current=%v",
					r.Prior.Atomic, r.Current.Atomic)
			}
		}
	}
	if !found {
		t.Fatalf("no race on %%gen:0; reported locations: %v", locs)
	}
}

// TestDetectorFlagsRacesUnderStrongModels checks the static-atomicity
// rule: a data race is a property of the program, not the model, so the
// same plain-access races must be reported even when executing under
// TSO and SC machines whose effective orderings hide the reordering.
func TestDetectorFlagsRacesUnderStrongModels(t *testing.T) {
	for _, model := range []memmodel.Model{memmodel.ModelSC, memmodel.ModelTSO} {
		t.Run(model.String(), func(t *testing.T) {
			p, m := compileProgram(t, "mp")
			det := race.New(model, race.Options{})
			runDetector(t, m, p.MCEntries, det, model, []vm.SchedMode{vm.SchedRandom}, 2)
			if det.Races() == 0 {
				t.Fatalf("mp not flagged under %s: races are model-independent", model)
			}
		})
	}
}

// TestReportProvenance checks the report rendering carries both access
// sites with function/block/instruction provenance and the symbolic
// location.
func TestReportProvenance(t *testing.T) {
	p, m := compileProgram(t, "mp")
	res, err := stress.Sweep(m, stress.Options{
		Model:   memmodel.ModelWMM,
		Entries: p.MCEntries,
		Modes:   []vm.SchedMode{vm.SchedRandom},
		Seeds:   1,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	out := race.FormatReports(res.Races())
	for _, want := range []string{"data race on @", "@writer", "@reader", "clock"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

// TestDedupAcrossExecutions checks that one detector observing many
// executions reports each site pair once with an occurrence count,
// not once per execution.
func TestDedupAcrossExecutions(t *testing.T) {
	p, m := compileProgram(t, "sb")
	det := race.New(memmodel.ModelWMM, race.Options{})
	runDetector(t, m, p.MCEntries, det, memmodel.ModelWMM, vm.AllSchedModes(), 4)
	n := det.Races()
	if n == 0 {
		t.Fatal("no races on sb")
	}
	// sb has 2 globals × (write/read, write/write is absent) — a small
	// fixed set of site pairs; 20 executions must not multiply them.
	if n > 8 {
		t.Fatalf("dedup failed: %d distinct reports", n)
	}
	var counted bool
	for _, r := range det.Reports() {
		if r.Count > 1 {
			counted = true
		}
	}
	if !counted {
		t.Error("no report accumulated an occurrence count > 1 across 20 executions")
	}
}

// TestMaxReportsCap checks the report cap: further distinct races are
// dropped, known pairs still count.
func TestMaxReportsCap(t *testing.T) {
	p, m := compileProgram(t, "iriw")
	det := race.New(memmodel.ModelWMM, race.Options{MaxReports: 1})
	runDetector(t, m, p.MCEntries, det, memmodel.ModelWMM, []vm.SchedMode{vm.SchedRandom}, 2)
	if det.Races() != 1 {
		t.Fatalf("cap ignored: %d reports with MaxReports=1", det.Races())
	}
}
