// Pipeline fan-out. The parallel phases all follow one shape: workers
// claim functions from an atomic cursor, write into a per-function
// result slot, and a sequential merge consumes the slots in function
// order — so the ported module and the report are byte-identical for
// every Options.Workers value (docs/PIPELINE.md).
package atomig

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/transform"
)

// funcDetect is one function's detection-phase result slot.
type funcDetect struct {
	expl    transform.ExplicitStats
	spin    []*analysis.SpinloopInfo
	polling []*analysis.SpinloopInfo
	barrier []*ir.Instr
	atomics []*ir.Instr
}

// workerPanic carries a panic out of a pool goroutine to the goroutine
// that owns the pool, preserving the worker's stack. The coordinator
// re-panics with it so the caller's diag guard turns it into a
// structured error on the right goroutine — an uncontained panic on a
// pool goroutine would kill the whole process (fatal for the daemon).
type workerPanic struct {
	val   any
	stack []byte
}

func (p *workerPanic) String() string {
	return fmt.Sprintf("worker panic: %v\n%s", p.val, p.stack)
}

// forEachFunc fans fn out over the module's functions. Workers claim
// indices from a shared cursor so a few huge functions do not stall the
// pool; fn must touch only the function it was handed. A non-nil ctx
// makes workers stop claiming once it is canceled (the caller checks
// ctx.Err() after the pool drains). Every worker goroutine exits before
// forEachFunc returns — on completion, cancellation, and panic alike —
// and the first panic is re-raised on the calling goroutine.
func forEachFunc(ctx context.Context, workers int, fns []*ir.Func, fn func(fi int, f *ir.Func)) {
	canceled := func() bool { return ctx != nil && ctx.Err() != nil }
	if workers > len(fns) {
		workers = len(fns)
	}
	if workers <= 1 {
		for i, f := range fns {
			if canceled() {
				return
			}
			fn(i, f)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Bool
	var first atomic.Pointer[workerPanic]
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					failed.Store(true)
					first.CompareAndSwap(nil, &workerPanic{val: r, stack: debug.Stack()})
				}
			}()
			for {
				if failed.Load() || canceled() {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= len(fns) {
					return
				}
				fn(i, fns[i])
			}
		}()
	}
	wg.Wait()
	if p := first.Load(); p != nil {
		panic(p)
	}
}

// optLoopCtl pairs an optimistic loop with the canonical descriptors of
// its control locations.
type optLoopCtl struct {
	loop *analysis.Loop
	ctl  map[alias.Loc]bool
}

// insertOptFences applies the optimistic-loop fence protocol to one
// function: a read of a loop's control location inside that loop gets a
// seq_cst fence before it; a store to any optimistic-control location
// gets one after it. The function is walked in block order, anchors are
// collected first (insertion mutates the instruction lists being
// scanned), then spliced — a fully deterministic sequence per function.
//
// An anchor already adjacent to a seq_cst fence is skipped: the fence
// it needs is there. That makes the port idempotent — re-porting a
// ported module inserts nothing — and merges the redundant fences that
// back-to-back protocol anchors would otherwise stack up.
func insertOptFences(f *ir.Func, loops []optLoopCtl, optLocs map[alias.Loc]bool, am *alias.Map) int {
	if len(loops) == 0 && len(optLocs) == 0 {
		return 0
	}
	var before, after []*ir.Instr
	isSCFence := func(in *ir.Instr) bool { return in.Op == ir.OpFence && in.Ord == ir.SeqCst }
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			// The walk visits each instruction once; an access fenced
			// before as a loop-control read (a cmpxchg or rmw) is not
			// fenced again after as an optimistic-control write.
			fenced := false
			if len(loops) > 0 && in.Reads() {
				loc := am.Canon(am.Loc(in))
				for _, ol := range loops {
					if !ol.loop.Blocks[b] || !ol.ctl[loc] {
						continue
					}
					fenced = true
					if i == 0 || !isSCFence(b.Instrs[i-1]) {
						before = append(before, in)
					}
					break
				}
			}
			if in.Writes() && !fenced && optLocs[am.Canon(am.Loc(in))] {
				if i+1 >= len(b.Instrs) || !isSCFence(b.Instrs[i+1]) {
					after = append(after, in)
				}
			}
		}
	}
	for _, in := range before {
		transform.InsertFenceBefore(in)
	}
	for _, in := range after {
		transform.InsertFenceAfter(in)
	}
	return len(before) + len(after)
}
