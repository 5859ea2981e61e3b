package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/alias"
	"repro/internal/appgen"
	"repro/internal/atomig"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
)

// portOutput is one cold port's result and per-layer timings.
type portOutput struct {
	hash    string
	counts  portCounts
	lines   int
	emitLen int
	timing  minic.Timing
	compile time.Duration
	port    time.Duration
	emit    time.Duration
}

// portCounts are the atomig.* counts that must repeat exactly.
type portCounts struct{ spinloops, sticky, fences int }

// portCold runs one op: compile the source, port it, emit the IR. tk,
// when non-nil, receives the benchmark's spans around each public call.
func portCold(name, src string, workers int, prov *obs.Provider, tk *obs.Track, id string) (*portOutput, *ir.Module, error) {
	out := &portOutput{}
	sp := benchSpan(tk, "minic.CompileOpts", id)
	t0 := time.Now()
	res, err := minic.CompileOpts(name, src, minic.Options{Workers: workers, Obs: prov})
	out.compile = time.Since(t0)
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("compile: %w", err)
	}
	out.timing = res.Timing
	out.lines = res.Stats.SourceLines

	opts := atomig.DefaultOptions()
	opts.Workers = workers
	opts.Obs = prov
	sp = benchSpan(tk, "atomig.Port", id)
	t0 = time.Now()
	rep, err := atomig.Port(res.Module, opts)
	out.port = time.Since(t0)
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("port: %w", err)
	}
	out.counts = portCounts{rep.Spinloops, rep.StickyMarked, rep.ExplicitAdded}

	sp = benchSpan(tk, "ir.String", id)
	t0 = time.Now()
	text := res.Module.String()
	out.emit = time.Since(t0)
	sp.End()
	out.emitLen = len(text)
	out.hash = hashText(text)
	return out, res.Module, nil
}

func hashText(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// runPortCold is the port-cold workload: a closed loop of one client
// porting a freshly compiled ~100k-line generated module per op with
// Workers = nproc and no detection cache. Set-up generates the module
// and computes the reference, a sequential (Workers = 1) port held to
// the generator's ground truth; every timed op must reproduce its
// output hash and counts.
func runPortCold(cfg Config) (*Result, error) {
	r := newResult("port-cold", cfg, 1)
	spec := appgen.LargeSpec("port-cold.c", cfg.PortLines, cfg.Seed)
	type input struct {
		src   string
		ref   *portOutput
		refOK error // the reference's ground-truth check
	}
	in, err := timeSetup(r, cfg, func() (input, error) {
		src, gt := appgen.GenerateLarge(spec)
		ref, m, err := portCold(spec.Name, src, 1, nil, nil, "reference")
		if err != nil {
			return input{}, fmt.Errorf("reference port: %w", err)
		}
		return input{src, ref, checkGroundTruth(m, gt)}, nil
	}, func(input) {})
	if err != nil {
		return nil, err
	}
	r.op(in.refOK)
	r.Facts["output_sha256"] = in.ref.hash

	var mu sync.Mutex
	outs := map[*obs.Provider][]*portOutput{}
	untraced, traced := measure(r, cfg, 1, 1, func(prov *obs.Provider) opFunc {
		tk := prov.Track("bench.port-cold")
		return func(c, seq int) (time.Duration, error) {
			runtime.GC() // start every op from the same collected heap
			out, _, err := portCold(spec.Name, in.src, cfg.Workers, prov, tk, opID("port-cold", c, seq))
			if err != nil {
				return 0, err
			}
			mu.Lock()
			outs[prov] = append(outs[prov], out)
			mu.Unlock()
			return out.compile + out.port + out.emit, portDrift(in.ref, out)
		}
	})

	r.recordLoop(untraced)
	r.Detail["port_lines_per_s"] = r.Metrics["ops_per_s"] * float64(in.ref.lines)
	r.Detail["module_lines"] = float64(in.ref.lines)
	r.Metrics["atomig.spinloops"] = float64(in.ref.counts.spinloops)
	r.Metrics["atomig.sticky_marked"] = float64(in.ref.counts.sticky)
	r.Metrics["atomig.fences_inserted"] = float64(in.ref.counts.fences)
	if traced != nil {
		layerPortMetrics(r, outs[traced.prov], traced)
	}
	return r, nil
}

// portDrift reports an op whose output or counts differ from the
// reference's.
func portDrift(ref, o *portOutput) error {
	if o.hash != ref.hash || o.counts != ref.counts {
		return fmt.Errorf("port drifted from the sequential reference: hash %.12s vs %.12s, counts %+v vs %+v",
			o.hash, ref.hash, o.counts, ref.counts)
	}
	return nil
}

// layerPortMetrics fills the minic/atomig/ir layer metrics from the
// traced ops: wall times of the public calls, the frontend's own phase
// timing, and the self times of the pipeline's spans.
func layerPortMetrics(r *Result, outs []*portOutput, traced *phase) {
	var compile, lex, parse, lower, verify, port, emit, mb []float64
	for _, o := range outs {
		compile = append(compile, ms(o.compile))
		lex = append(lex, ms(o.timing.Lex))
		parse = append(parse, ms(o.timing.Parse))
		lower = append(lower, ms(o.timing.Lower))
		verify = append(verify, ms(o.timing.Verify))
		port = append(port, ms(o.port))
		emit = append(emit, ms(o.emit))
		mb = append(mb, float64(o.emitLen)/1e6)
	}
	r.Metrics["minic.compile_ms"] = median(compile)
	r.Metrics["minic.lex_ms"] = median(lex)
	r.Metrics["minic.parse_ms"] = median(parse)
	r.Metrics["minic.lower_ms"] = median(lower)
	r.Metrics["minic.verify_ms"] = median(verify)
	r.Metrics["atomig.port_ms"] = median(port)
	r.Metrics["ir.emit_ms"] = median(emit)
	r.Metrics["ir.emit_mb"] = median(mb)
	self := selfTimes(traced.prov.Tracer.Events())
	n := float64(max(len(outs), 1))
	for _, s := range []string{"analysis", "alias", "transform", "verify"} {
		r.Metrics["atomig."+s+"_ms"] = ms(self["pipeline."+s]) / n
	}
}

// checkGroundTruth holds a ported module to the generator's promotion
// contract: the canonical locations with seq_cst accesses are exactly
// gt.Promoted, every gt.Fenced location has an inserted fence next to
// one of its accesses, and every inserted fence sits next to an access
// of a fenced location.
func checkGroundTruth(m *ir.Module, gt appgen.GroundTruth) error {
	am := alias.BuildMap(m)
	var errs []string
	want := map[alias.Loc]bool{}
	for _, l := range gt.Promoted {
		want[am.Canon(l)] = true
	}
	got := map[alias.Loc]bool{}
	m.EachInstr(func(_ *ir.Func, in *ir.Instr) {
		if in.IsMemAccess() && in.Ord == ir.SeqCst {
			got[am.Canon(am.Loc(in))] = true
		}
	})
	for l := range want {
		if !got[l] {
			errs = append(errs, fmt.Sprintf("%s not promoted", l))
		}
	}
	for l := range got {
		if !want[l] {
			errs = append(errs, fmt.Sprintf("%s promoted but not in the ground truth", l))
		}
	}

	fenced := map[alias.Loc]bool{}
	for _, l := range gt.Fenced {
		fenced[am.Canon(l)] = true
	}
	seen := map[alias.Loc]bool{}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				if in.Op != ir.OpFence || !in.HasMark(ir.MarkInsertedFence) {
					continue
				}
				ok := false
				for _, j := range []int{i - 1, i + 1} {
					if j < 0 || j >= len(b.Instrs) || !b.Instrs[j].IsMemAccess() {
						continue
					}
					if l := am.Canon(am.Loc(b.Instrs[j])); fenced[l] {
						seen[l] = true
						ok = true
					}
				}
				if !ok {
					errs = append(errs, fmt.Sprintf("inserted fence in %s next to no fenced location", f.Name))
				}
			}
		}
	}
	for l := range fenced {
		if !seen[l] {
			errs = append(errs, fmt.Sprintf("%s not fenced", l))
		}
	}
	sort.Strings(errs) // map iteration order above is random
	return joinErrs("ground truth", errs)
}
