package mc

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/memmodel"
	"repro/internal/obs"
)

// verdictFingerprint reduces a Result to the parts the determinism
// contract promises are worker-count-invariant on fully explored state
// spaces: the verdict, the distinct violation messages, and the race
// keys. Counterexample traces and visit-order statistics may differ
// across worker counts (see docs/MODEL-CHECKER.md).
func verdictFingerprint(res *Result) string {
	vios := append([]string(nil), res.Violations...)
	sort.Strings(vios)
	vios = dedupSorted(vios)
	keys := make([]string, 0, len(res.Races))
	for _, r := range res.Races {
		keys = append(keys, r.Key())
	}
	sort.Strings(keys)
	return fmt.Sprintf("verdict=%s violations=%q races=%q", res.Verdict, vios, keys)
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// TestParallelDeterminism is the engine's core determinism contract:
// across worker counts 1, 2 and 8 every litmus program yields an
// identical verdict, violation set and race-report key set, in both
// plain and race-detecting mode. The -j 1 run is the reference, and
// the Workers-0 default must be exactly that run.
func TestParallelDeterminism(t *testing.T) {
	programs := []struct {
		name    string
		src     string
		entries []string
	}{
		{"mp", mpSrc, []string{"reader", "writer"}},
		{"sb", `
int x; int y; int r0 = -1; int r1 = -1;
void t0(void) { x = 1; r0 = y; }
void t1(void) { y = 1; r1 = x; }
void main_thread(void) {
  spawn(t0); spawn(t1); join();
  assert(r0 + r1 != 0);
}
`, []string{"main_thread"}},
		{"corr", `
int x; int a = -1; int b = -1;
void t0(void) { x = 1; x = 2; }
void t1(void) { a = x; b = x; }
void main_thread(void) {
  spawn(t0); spawn(t1); join();
  assert(b >= a);
}
`, []string{"main_thread"}},
		{"seqlock", `
int seq;
int msg;
void writer(void) {
  seq = seq + 1;
  msg = 7;
  seq = seq + 1;
}
void reader(void) {
  int s;
  int data;
  do {
    s = seq;
    data = msg;
  } while (s % 2 != 0 || s != seq);
  if (s == 2) {
    assert(data == 7);
  }
}
`, []string{"reader", "writer"}},
	}
	models := []memmodel.Model{memmodel.ModelTSO, memmodel.ModelWMM}
	for _, p := range programs {
		m := compile(t, p.src)
		for _, model := range models {
			for _, races := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/races=%v", p.name, model, races)
				t.Run(name, func(t *testing.T) {
					base := Options{
						Model: model, Entries: p.entries,
						MaxExecutions: 500_000, TimeBudget: time.Minute,
						DetectRaces: races,
					}
					var ref *Result
					var want string
					for _, j := range []int{1, 0, 2, 8} {
						opts := base
						opts.Workers = j
						res, err := Check(m, opts)
						if err != nil {
							t.Fatalf("-j %d Check: %v", j, err)
						}
						if res.Workers != max(1, j) {
							t.Errorf("-j %d: Result.Workers = %d", j, res.Workers)
						}
						if ref == nil {
							if res.Verdict == VerdictUnknown {
								t.Fatalf("-j 1 exploration did not finish: %s", res.Reason)
							}
							ref, want = res, verdictFingerprint(res)
							continue
						}
						if got := verdictFingerprint(res); got != want {
							t.Errorf("-j %d fingerprint drift:\n got %s\nwant %s", j, got, want)
						}
						// The default is one worker, which never splits:
						// the same depth-first search, counter for counter.
						if j == 0 && (res.Executions != ref.Executions ||
							res.Pruned != ref.Pruned || res.States != ref.States) {
							t.Errorf("Workers 0 explored %d/%d/%d (executions/pruned/states), -j 1 %d/%d/%d",
								res.Executions, res.Pruned, res.States,
								ref.Executions, ref.Pruned, ref.States)
						}
					}
				})
			}
		}
	}
}

// TestParallelViolationOrderStable: violation report order must be
// byte-identical across worker counts, not merely equal as sets.
func TestParallelViolationOrderStable(t *testing.T) {
	m := compile(t, `
int x; int y; int r0 = -1; int r1 = -1;
void t0(void) { x = 1; r0 = y; }
void t1(void) { y = 1; r1 = x; }
void main_thread(void) {
  spawn(t0); spawn(t1); join();
  assert(r0 + r1 != 0);
  assert(r0 == 9 || r1 != -7 || x == 2);
}
`)
	var want []string
	for _, j := range []int{1, 2, 4, 8} {
		res, err := Check(m, Options{
			Model: memmodel.ModelWMM, Entries: []string{"main_thread"},
			MaxExecutions: 500_000, TimeBudget: time.Minute,
			Workers: j,
		})
		if err != nil {
			t.Fatalf("-j %d: %v", j, err)
		}
		if want == nil {
			want = res.Violations
			continue
		}
		if len(res.Violations) != len(want) {
			t.Fatalf("-j %d: %d violations, want %d", j, len(res.Violations), len(want))
		}
		for i := range want {
			if res.Violations[i] != want[i] {
				t.Errorf("-j %d violation[%d] = %q, want %q", j, i, res.Violations[i], want[i])
			}
		}
	}
}

// TestResumeTokenReusable is the aliasing regression test: Check used
// to store its live visited map into the returned token by reference,
// so consuming a token once corrupted it for every later use. Resuming
// the same token twice must now yield identical results.
func TestResumeTokenReusable(t *testing.T) {
	m := compile(t, mpSrc)
	first, err := Check(m, Options{
		Model: memmodel.ModelWMM, Entries: []string{"reader", "writer"},
		MaxExecutions: 5, TimeBudget: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Resume) == 0 {
		t.Fatal("tiny execution budget did not produce a resume token")
	}
	tokens := first.Resume
	resume := func() *Result {
		res, err := Check(m, Options{
			Model: memmodel.ModelWMM, Entries: []string{"reader", "writer"},
			TimeBudget: time.Minute, Resume: tokens,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := resume(), resume()
	if a.Verdict != b.Verdict || a.Executions != b.Executions ||
		a.Pruned != b.Pruned || len(a.Violations) != len(b.Violations) {
		t.Errorf("resuming the same token twice diverged:\n first: %s %d execs %d pruned %d violations\nsecond: %s %d execs %d pruned %d violations",
			a.Verdict, a.Executions, a.Pruned, len(a.Violations),
			b.Verdict, b.Executions, b.Pruned, len(b.Violations))
	}
}

// TestParallelResume: an interrupted parallel run hands back one token
// per remaining frontier fragment; feeding them all back to Resume
// finishes the exploration with the uninterrupted verdict.
func TestParallelResume(t *testing.T) {
	m := compile(t, mpSrc)
	entries := []string{"reader", "writer"}
	full, err := Check(m, Options{
		Model: memmodel.ModelWMM, Entries: entries,
		MaxExecutions: 500_000, TimeBudget: time.Minute, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Verdict != VerdictFail {
		t.Fatalf("reference verdict %s, want %s", full.Verdict, VerdictFail)
	}

	res, err := Check(m, Options{
		Model: memmodel.ModelWMM, Entries: entries,
		MaxExecutions: 10, TimeBudget: time.Minute, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for res.Verdict == VerdictUnknown {
		if len(res.Resume) == 0 {
			t.Fatalf("unknown verdict (%s) without resume tokens", res.Reason)
		}
		if rounds++; rounds > 1000 {
			t.Fatal("parallel resume did not converge")
		}
		prev := res.Executions
		res, err = Check(m, Options{
			Model: memmodel.ModelWMM, Entries: entries,
			MaxExecutions: prev + 10, TimeBudget: time.Minute, Workers: 2,
			Resume: res.Resume,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := verdictFingerprint(res), verdictFingerprint(full); got != want {
		t.Errorf("resumed fingerprint drift:\n got %s\nwant %s", got, want)
	}
}

// TestDecodeResumeV1 keeps the pre-frontier-split token format alive: a
// hand-built mcr1 token (no floor, no per-choice ceilings) must decode
// into an equivalent whole-tree token.
func TestDecodeResumeV1(t *testing.T) {
	buf := []byte(resumeMagicV1)
	buf = binary.AppendUvarint(buf, 3) // executions
	buf = binary.AppendUvarint(buf, 1) // pruned
	buf = binary.AppendUvarint(buf, 0) // truncated
	buf = binary.AppendUvarint(buf, 2) // len(trace)
	for _, c := range []choice{{options: 3, taken: 1}, {options: 2, taken: 0}} {
		buf = binary.AppendUvarint(buf, uint64(c.options))
		buf = binary.AppendUvarint(buf, uint64(c.taken))
	}
	tok, err := DecodeResume(base64.RawURLEncoding.EncodeToString(buf))
	if err != nil {
		t.Fatalf("DecodeResume(v1): %v", err)
	}
	if tok.floor != 0 || tok.executions != 3 || tok.pruned != 1 || len(tok.trace) != 2 {
		t.Fatalf("v1 token decoded wrong: %+v", tok)
	}
	if got := tok.Frontier(); got != 2 {
		t.Fatalf("v1 Frontier = %d, want 2", got)
	}
	// And the v2 round trip preserves floor and ceilings.
	tok.floor = 1
	tok.trace[0].ceil = 2
	back, err := DecodeResume(tok.Encode())
	if err != nil {
		t.Fatalf("DecodeResume(v2): %v", err)
	}
	if back.floor != 1 || back.trace[0].ceil != 2 {
		t.Fatalf("v2 round trip lost frontier metadata: %+v", back)
	}
}

// TestShardMap covers the lock-striped visited cache: insert semantics,
// flatten, and racing inserts of overlapping hash sets.
func TestShardMap(t *testing.T) {
	s := newShardMap(4, obs.NewRegistry().Counter("mc.shard_locks_contended"))
	if len(s.shards)&(len(s.shards)-1) != 0 {
		t.Fatalf("shard count %d not a power of two", len(s.shards))
	}
	if !s.insert(42) {
		t.Error("first insert reported duplicate")
	}
	if s.insert(42) {
		t.Error("second insert reported new")
	}
	if s.size() != 1 {
		t.Errorf("size = %d, want 1", s.size())
	}

	// Hashes with identical low bits land in different shards (selection
	// uses the high bits).
	const workers = 8
	s = newShardMap(workers, obs.NewRegistry().Counter("mc.shard_locks_contended"))
	var wg sync.WaitGroup
	newCount := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); i < 2000; i++ {
				// Every worker inserts the same mixed hash set, so
				// exactly 2000 inserts in total may report new.
				h := memmodel.Mix64(i)
				if s.insert(h) {
					newCount[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range newCount {
		total += n
	}
	if total != 2000 {
		t.Errorf("%d inserts reported new, want exactly 2000", total)
	}
	if s.size() != 2000 {
		t.Errorf("size = %d, want 2000", s.size())
	}
	if flat := s.flatten(); len(flat) != 2000 {
		t.Errorf("flatten holds %d states, want 2000", len(flat))
	}
}

// TestSingleWorkerDefault: Workers 0 runs the engine with one worker,
// which reuses one VM for every execution and never contends on the
// visited cache.
func TestSingleWorkerDefault(t *testing.T) {
	m := compile(t, mpSrc)
	res, err := Check(m, Options{
		Model: memmodel.ModelWMM, Entries: []string{"reader", "writer"},
		MaxExecutions: 500_000, TimeBudget: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 1 {
		t.Errorf("default Result.Workers = %d, want 1", res.Workers)
	}
	if res.ShardContention != 0 {
		t.Errorf("single-worker ShardContention = %d, want 0", res.ShardContention)
	}
	if res.VMAllocs != 1 {
		t.Errorf("single-worker VMAllocs = %d, want 1 (VM reuse)", res.VMAllocs)
	}
	if res.VMResets != int64(res.Executions-1) {
		t.Errorf("single-worker VMResets = %d, want executions-1 = %d", res.VMResets, res.Executions-1)
	}
}

// TestFrontierOnVerdictStop: a StopAtFirst halt is final (no resume
// tokens) but must still report the branches it left unexplored — a
// zero Frontier would claim the space was fully explored.
func TestFrontierOnVerdictStop(t *testing.T) {
	p := corpus.Get("ck_sequence")
	m, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{1, 2} {
		res, err := Check(m, Options{
			Model: memmodel.ModelWMM, Entries: p.MCEntries,
			StopAtFirst: true, TimeBudget: time.Minute, Workers: j,
		})
		if err != nil {
			t.Fatalf("-j %d: %v", j, err)
		}
		if res.Verdict != VerdictFail || res.Reason != "stopped at violation" {
			t.Fatalf("-j %d: verdict %s (%s), want violated at the first violation", j, res.Verdict, res.Reason)
		}
		if len(res.Resume) != 0 {
			t.Errorf("-j %d: verdict stop emitted %d resume tokens", j, len(res.Resume))
		}
		switch {
		case j == 1 && res.Frontier != 36:
			// One worker is a plain depth-first search: the first
			// violation is always the same execution, with 36 branches
			// left on its stack.
			t.Errorf("-j 1 frontier = %d after %d executions, want 36", res.Frontier, res.Executions)
		case res.Frontier == 0:
			t.Errorf("-j %d frontier = 0 after %d executions, want unexplored branches", j, res.Executions)
		}
	}
}

// TestVerdictStopAfterBudgetStop: when a budget stop wins the race with
// a worker's verdict stop, the stop is resumable, so that worker's
// remainder must start at an unexplored execution rather than at the
// violating leaf it has already explored.
func TestVerdictStopAfterBudgetStop(t *testing.T) {
	leaf := func() *dfs {
		return &dfs{trace: []choice{{options: 2}, {options: 3, taken: 1}}}
	}
	budget := func() *engine {
		e := &engine{q: newWorkQueue()}
		e.halt("execution budget exhausted")
		return e
	}

	// The verdict stop wins: the remainder keeps the explored leaf and
	// counts its untaken alternatives (0/2 and 2/3).
	e, w := &engine{q: newWorkQueue()}, &mcWorker{}
	e.verdictStop(w, leaf(), "stopped at violation")
	if e.reason != "stopped at violation" || len(w.tokens) != 1 || w.tokens[0].Frontier() != 2 {
		t.Fatalf("winning verdict stop: reason %q, %d tokens", e.reason, len(w.tokens))
	}

	// The budget stop won: the token starts at the next execution.
	e, w = budget(), &mcWorker{}
	e.verdictStop(w, leaf(), "stopped at violation")
	if e.reason != "execution budget exhausted" || len(w.tokens) != 1 {
		t.Fatalf("losing verdict stop: reason %q, %d tokens", e.reason, len(w.tokens))
	}
	if got := w.tokens[0].trace[1].taken; got != 2 {
		t.Errorf("resumable token starts at choice %d/3, want the unexplored 2/3", got)
	}

	// Nothing left to explore: no token at all.
	e, w = budget(), &mcWorker{}
	e.verdictStop(w, &dfs{trace: []choice{{options: 1}}}, "stopped at race")
	if len(w.tokens) != 0 {
		t.Errorf("exhausted fragment left %d tokens", len(w.tokens))
	}
}
