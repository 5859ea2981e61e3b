package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Config is one run's settings. The command line sets Seed, Window and
// Trace; the sizes are the workload definitions of README.md and only
// the benchmark's own tests shrink them (shortConfig).
type Config struct {
	Seed   int64
	Window time.Duration
	Trace  bool
	// TracePath is where a traced run writes its Chrome trace.
	TracePath string

	// Workers is the pipeline, checker, weakener and stress fan-out;
	// Clients the serve-edit client count. Both default to nproc and
	// may not exceed it: the benchmark generates load from one process
	// and must not oversubscribe the host it measures.
	Workers int
	Clients int

	// Setups is how many times the workload's set-up runs; setup_s is
	// the median.
	Setups int
	// OpDeadline fails an op that takes longer.
	OpDeadline time.Duration

	PortLines   int // port-cold module size
	ServeLines  int // serve-edit per-client module size
	StressLines int // verify-optimize stress harness size
	StressSeeds int // schedules per scheduler mode per sweep
}

// defaultConfig is the benchmark as BENCHMARK.json runs it.
func defaultConfig(seed int64, window time.Duration, traced bool) Config {
	n := runtime.NumCPU()
	return Config{
		Seed: seed, Window: window, Trace: traced,
		Workers: n, Clients: n,
		Setups:      3,
		OpDeadline:  60 * time.Second,
		PortLines:   100_000,
		ServeLines:  20_000,
		StressLines: 100_000,
		StressSeeds: 256,
	}
}

// HostFacts are recorded with every result.
type HostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Clients    int    `json:"clients"`
	Workers    int    `json:"workers"`
}

func hostFacts(cfg Config, clients int) HostFacts {
	return HostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Clients: clients, Workers: cfg.Workers,
	}
}

// check refuses a configuration that would oversubscribe the host.
func (h HostFacts) check() error {
	switch {
	case h.Workers < 1 || h.Clients < 1:
		return fmt.Errorf("workers (%d) and clients (%d) must be at least 1", h.Workers, h.Clients)
	case h.Workers > h.NProc || h.Clients > h.NProc:
		return fmt.Errorf("workers (%d) or clients (%d) exceed nproc (%d)", h.Workers, h.Clients, h.NProc)
	case h.GOMAXPROCS != h.NProc:
		return fmt.Errorf("GOMAXPROCS is %d, want nproc (%d): unset the GOMAXPROCS environment variable", h.GOMAXPROCS, h.NProc)
	}
	return nil
}

// Result is one workload run.
type Result struct {
	Workload  string
	Host      HostFacts
	Attempted int
	Failed    int
	// Failures holds the first few failure messages.
	Failures []string
	// Metrics holds every catalog metric the run measured; Detail holds
	// the workload's own named figures (README.md) for the report.
	Metrics map[string]float64
	Detail  map[string]float64
	// Facts are determinism fingerprints (output hashes) for the report.
	Facts map[string]string
	// tracer is the traced half's tracer (nil untraced); it is written
	// and validated once, after the workload.
	tracer *obs.Tracer
}

func newResult(workload string, cfg Config, clients int) *Result {
	return &Result{
		Workload: workload, Host: hostFacts(cfg, clients),
		Metrics: map[string]float64{}, Detail: map[string]float64{}, Facts: map[string]string{},
	}
}

// op records one attempted op and, when err is non-nil, its failure.
func (r *Result) op(err error) {
	r.Attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failure of an op already counted as attempted.
func (r *Result) fail(err error) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, err.Error())
	}
}

// timeSetup runs setup cfg.Setups times, records the median wall time
// as setup_s, and returns the last instance (earlier ones are closed).
func timeSetup[T any](r *Result, cfg Config, setup func() (T, error), close func(T)) (T, error) {
	var last T
	var times []float64
	for i := 0; i < max(cfg.Setups, 1); i++ {
		if i > 0 {
			close(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	r.Metrics["setup_s"] = median(times)
	return last, nil
}

// opTiming is one op's latency and outcome.
type opTiming struct {
	lat time.Duration
	err error
}

// opFunc runs one op on behalf of client and returns the latency the
// client observed (the op excludes its own output checks from it).
type opFunc func(client, seq int) (time.Duration, error)

// closedLoop runs clients goroutines, each issuing op back to back
// until the window has passed and at least minOps ops have completed
// across clients. It returns every op's timing per client. A panicking
// op and an op slower than deadline are failed ops.
func closedLoop(clients int, window time.Duration, minOps int, deadline time.Duration, op opFunc) [][]opTiming {
	out := make([][]opTiming, clients)
	var done sync.WaitGroup
	var mu sync.Mutex
	completed := 0
	start := time.Now()
	for c := 0; c < clients; c++ {
		done.Add(1)
		go func(c int) {
			defer done.Done()
			for seq := 0; ; seq++ {
				mu.Lock()
				stop := time.Since(start) >= window && completed >= minOps
				mu.Unlock()
				if stop {
					return
				}
				var lat time.Duration
				err := safeOp(func() (err error) {
					lat, err = op(c, seq)
					return err
				})
				if err == nil && lat > deadline {
					err = fmt.Errorf("op took %v, deadline %v", lat, deadline)
				}
				out[c] = append(out[c], opTiming{lat: lat, err: err})
				mu.Lock()
				completed++
				mu.Unlock()
			}
		}(c)
	}
	done.Wait()
	return out
}

// phase is the ops of one closed loop that ran untraced, or traced
// through prov.
type phase struct {
	prov *obs.Provider
	ops  [][]opTiming
}

// lats returns every op latency of the phase, all clients pooled.
func (p *phase) lats() []time.Duration {
	var out []time.Duration
	for _, c := range p.ops {
		for _, o := range c {
			out = append(out, o.lat)
		}
	}
	return out
}

// count returns the phase's op count.
func (p *phase) count() int { return len(p.lats()) }

// measure runs the workload's closed loop for the window; mkOp builds
// the op for a provider (nil when untraced). An untraced run runs every
// op untraced. A traced run alternates, on every client, an untraced op
// with one traced through a fresh obs.NewTracing provider, so drift
// over the run falls on both alike and their latency ratio is the
// tracing overhead. Every op is recorded on r, and the go.* metrics
// cover the whole loop.
func measure(r *Result, cfg Config, clients, minOps int, mkOp func(prov *obs.Provider) opFunc) (untraced, traced *phase) {
	op := mkOp(nil)
	if cfg.Trace {
		traced = &phase{prov: obs.NewTracing()}
		plain, withTrace := op, mkOp(traced.prov)
		op = func(c, seq int) (time.Duration, error) {
			if seq%2 == 1 {
				return withTrace(c, seq)
			}
			return plain(c, seq)
		}
		minOps = max(minOps, 2)
	}
	runtime.GC()
	go0 := readGoStats()
	ops := closedLoop(clients, cfg.Window, minOps, cfg.OpDeadline, op)
	go1 := readGoStats()

	untraced = &phase{ops: make([][]opTiming, clients)}
	if traced != nil {
		traced.ops = make([][]opTiming, clients)
	}
	total := 0
	for c, cops := range ops {
		for seq, o := range cops {
			r.op(o.err)
			total++
			if traced != nil && seq%2 == 1 {
				traced.ops[c] = append(traced.ops[c], o)
			} else {
				untraced.ops[c] = append(untraced.ops[c], o)
			}
		}
	}
	r.recordGoStats(go0, go1, total)
	if traced != nil {
		r.tracer = traced.prov.Tracer
		r.Metrics["obs.trace_overhead_ratio"] = median(msList(traced.lats())) / median(msList(untraced.lats()))
	}
	return untraced, traced
}

// recordLoop stores the end-to-end latency and throughput of a phase.
// Throughput is clients / mean latency (Little's law for a closed loop
// without think time), so the benchmark's own output checks between ops
// do not count against it.
func (r *Result) recordLoop(p *phase) {
	lats := p.lats()
	var total time.Duration
	for _, d := range lats {
		total += d
	}
	r.Metrics["op_p50_ms"] = median(msList(lats))
	r.Metrics["ops_per_s"] = float64(len(p.ops)*len(lats)) / total.Seconds()
}

// safeOp turns a panic into an error.
func safeOp(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// median returns the middle of xs (mean of the two middles for even
// lengths); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msList converts durations to milliseconds.
func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// goStats is a runtime/metrics sample; its difference around a
// workload gives the go.* layer metrics.
type goStats struct {
	allocBytes float64
	gcCycles   float64
	pauseSec   float64
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.gcCycles = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauseSec = histSum(s[2].Value.Float64Histogram())
	}
	return g
}

// histSum estimates a runtime histogram's total from bucket midpoints
// (the runtime exports pause times only as a histogram).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(n) * (lo + hi) / 2
	}
	return sum
}

// recordGoStats stores the go.* metrics for ops ops between a and b.
func (r *Result) recordGoStats(a, b goStats, ops int) {
	if ops < 1 {
		ops = 1
	}
	r.Metrics["go.alloc_mb_per_op"] = (b.allocBytes - a.allocBytes) / 1e6 / float64(ops)
	r.Metrics["go.gc_cycles"] = b.gcCycles - a.gcCycles
	r.Metrics["go.gc_pause_ms"] = (b.pauseSec - a.pauseSec) * 1e3
}

// selfTimes sums each span name's self time — its duration minus the
// part its child spans on the same track cover — over a trace.
func selfTimes(evs []obs.TraceEvent) map[string]time.Duration {
	type open struct {
		name    string
		ts      float64
		childUS float64
	}
	stacks := map[int][]open{}
	out := map[string]time.Duration{}
	for _, ev := range evs {
		switch ev.Ph {
		case "B":
			stacks[ev.TID] = append(stacks[ev.TID], open{name: ev.Name, ts: ev.TS})
		case "E":
			st := stacks[ev.TID]
			if len(st) == 0 {
				continue
			}
			top := st[len(st)-1]
			st = st[:len(st)-1]
			dur := ev.TS - top.ts
			if len(st) > 0 {
				st[len(st)-1].childUS += dur
			}
			stacks[ev.TID] = st
			out[top.name] += time.Duration((dur - top.childUS) * float64(time.Microsecond))
		}
	}
	return out
}

// writeTrace encodes the tracer once, validates it with the program's
// own checker, and writes it to path.
func writeTrace(t *obs.Tracer, path string) error {
	data, err := obs.EncodeTrace(t)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := obs.ValidateTrace(data); err != nil {
		return fmt.Errorf("trace fails validation: %w", err)
	}
	if path == "" {
		return nil
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchSpan opens one of the benchmark's own spans around a public
// call: named after the layer, tagged with the op id. Nil-safe.
func benchSpan(tk *obs.Track, name string, op string) *obs.Span {
	return tk.Begin(name).Arg("op", op)
}

// opID names one op for span tagging.
func opID(workload string, client, seq int) string {
	return fmt.Sprintf("%s/c%d/%d", workload, client, seq)
}

// joinErrs formats a list of problems as one error, or nil.
func joinErrs(what string, errs []string) error {
	if len(errs) == 0 {
		return nil
	}
	if len(errs) > 4 {
		errs = append(errs[:4], fmt.Sprintf("... and %d more", len(errs)-4))
	}
	return fmt.Errorf("%s: %s", what, strings.Join(errs, "; "))
}
