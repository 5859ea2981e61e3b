package mc

import (
	"testing"
	"time"

	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/memmodel"
	"repro/internal/transform"
)

func compileCorpus(t *testing.T, name string) *ir.Module {
	t.Helper()
	p := corpus.Get(name)
	if p == nil {
		t.Fatalf("corpus program %q not registered", name)
	}
	m, err := p.Compile()
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return m
}

func checkRaces(t *testing.T, m *ir.Module, model memmodel.Model, entries ...string) *Result {
	t.Helper()
	res, err := Check(m, Options{
		Model: model, Entries: entries, DetectRaces: true,
		MaxExecutions: 300_000, TimeBudget: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return res
}

// TestRaceModeSeqlockGap is the issue's model-checking acceptance
// criterion: exhaustive exploration of the legacy migration-gap program
// yields the racy verdict with a report naming the un-promoted struct
// field, and the atomig-ported program is verified race-free.
func TestRaceModeSeqlockGap(t *testing.T) {
	legacy := compileCorpus(t, "seqlock-gap")
	res := checkRaces(t, legacy, memmodel.ModelWMM, "reader", "writer")
	if res.Verdict != VerdictRace {
		t.Fatalf("legacy seqlock-gap verdict = %s, want racy (reason %q)", res.Verdict, res.Reason)
	}
	var found bool
	for _, r := range res.Races {
		if r.Loc.String() == "%gen:0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no race on %%gen:0 among %d reports", len(res.Races))
	}

	ported := compileCorpus(t, "seqlock-gap")
	if _, err := atomig.Port(ported, atomig.DefaultOptions()); err != nil {
		t.Fatalf("atomig.Port: %v", err)
	}
	pres := checkRaces(t, ported, memmodel.ModelWMM, "reader", "writer")
	if pres.Verdict != VerdictPass {
		t.Fatalf("ported seqlock-gap verdict = %s, want verified (reason %q, %d races)",
			pres.Verdict, pres.Reason, len(pres.Races))
	}
	if len(pres.Races) != 0 {
		t.Fatalf("ported seqlock-gap reported %d races", len(pres.Races))
	}
}

// TestRaceVerdictPrecedence: an assertion violation outranks a race —
// legacy MP under WMM both races and fails, and the verdict is the
// violation while the race reports remain available.
func TestRaceVerdictPrecedence(t *testing.T) {
	m := compileCorpus(t, "mp")
	res := checkRaces(t, m, memmodel.ModelWMM, "reader", "writer")
	if res.Verdict != VerdictFail {
		t.Fatalf("legacy mp verdict = %s, want violated", res.Verdict)
	}
	if len(res.Races) == 0 {
		t.Fatal("legacy mp reported no races alongside the violation")
	}
}

// TestRaceModeCleanProgram: a fully atomic program is verified with
// zero races — the detector adds no false positives and the
// fingerprint-extended hash still lets exploration terminate.
func TestRaceModeCleanProgram(t *testing.T) {
	m := compileCorpus(t, "corr")
	transform.Naive(m)
	res := checkRaces(t, m, memmodel.ModelWMM, "main_thread")
	if res.Verdict != VerdictPass {
		t.Fatalf("naive corr verdict = %s, want verified (reason %q)", res.Verdict, res.Reason)
	}
	if len(res.Races) != 0 {
		t.Fatalf("naive corr reported %d races", len(res.Races))
	}
}

// TestRaceWitnessReplay: with traces on, each newly racy execution is
// replayed into a visible-operation witness through the same
// counterexample path violations use. A witness may come from an
// execution the visited cache pruned — with several workers a race can
// be new to one worker's detector while another worker already cached
// the state — so its trace ends before the execution does; the replay
// must run past that prefix and still yield a witness at every worker
// count.
func TestRaceWitnessReplay(t *testing.T) {
	for _, tc := range []struct {
		prog    string
		entries []string
	}{
		{"lb", []string{"main_thread"}},
		{"seqlock-gap", []string{"reader", "writer"}},
		{"mp", []string{"reader", "writer"}},
	} {
		m := compileCorpus(t, tc.prog)
		for _, workers := range []int{0, 2, 4} {
			res, err := Check(m, Options{
				Model: memmodel.ModelWMM, Entries: tc.entries, Workers: workers,
				DetectRaces: true, Traces: true,
				MaxExecutions: 300_000, TimeBudget: 20 * time.Second,
			})
			if err != nil {
				t.Fatalf("%s -j %d: Check: %v", tc.prog, workers, err)
			}
			if len(res.Races) == 0 {
				t.Fatalf("%s -j %d: no races reported", tc.prog, workers)
			}
			if len(res.RaceWitnesses) == 0 {
				t.Fatalf("%s -j %d: no race witnesses replayed", tc.prog, workers)
			}
			for _, w := range res.RaceWitnesses {
				if len(w.Events) == 0 {
					t.Fatalf("%s -j %d: race witness %q has no events", tc.prog, workers, w.Msg)
				}
			}
		}
	}
}

// TestStopAtFirstRace: StopAtFirst halts exploration at the first racy
// execution without a violation.
func TestStopAtFirstRace(t *testing.T) {
	m := compileCorpus(t, "iriw")
	res, err := Check(m, Options{
		Model: memmodel.ModelWMM, Entries: []string{"main_thread"},
		DetectRaces: true, StopAtFirst: true,
		MaxExecutions: 300_000, TimeBudget: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res.Verdict != VerdictRace {
		t.Fatalf("verdict = %s, want racy", res.Verdict)
	}
	if res.Executions != 1 {
		t.Fatalf("StopAtFirst explored %d executions, want 1", res.Executions)
	}
}
