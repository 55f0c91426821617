package interp

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/sem"
	"repro/internal/types"
	"repro/internal/value"
)

// Options control execution.
type Options struct {
	// Workers is the DOALL worker count; <= 0 uses all CPUs.
	Workers int
	// Sequential forces every loop — including DOALLs — to run serially
	// (the baseline an iterative-only scheduler would produce).
	Sequential bool
	// Strict enables single-assignment and undefined-read checking.
	Strict bool
	// NoVirtual disables window allocation, physically allocating every
	// dimension (the ablation baseline for §3.4).
	NoVirtual bool
	// Grain is the minimum iterations per parallel chunk. For wavefront
	// steps it is the g of the dispatch rule (tiled, below) and the tile
	// width on the blocked plane coordinate.
	Grain int64
	// Fuse selects the loop-fused plan variant (the §5 "merge iterative
	// loops" extension), lowered once at compile time.
	Fuse bool
	// Hyperplane selects whether eligible sequential loop nests execute
	// the automatically §4-restructured (wavefront) plan variant. The
	// zero value is HyperplaneAuto: parallel runs use the wavefront
	// variant, sequential runs keep the untransformed nest (the sweep's
	// bounding box and guards only pay off when planes run on workers).
	// Selection deliberately ignores the effective worker count so the
	// variant a runner executes — and Explain reports — is deterministic
	// across hosts.
	Hyperplane HyperplaneMode
	// Pool, when non-nil, is a shared worker pool used for every DOALL of
	// the activation tree instead of spawning a pool per activation. The
	// run does not close it, and its worker count takes precedence over
	// Workers.
	Pool *par.Pool
	// Stats, when non-nil, accumulates execution counters for the run.
	Stats *Stats
	// NoSpecialize disables the direct-kernel fast path, forcing every
	// span through the checked closure tree (the parity/ablation
	// baseline for kernel specialization).
	NoSpecialize bool
	// NoArena disables arena recycling of activation arrays; every
	// run allocates fresh zeroed backings (the allocation-trajectory
	// baseline).
	NoArena bool
	// Trace, when non-nil, records timestamped span events (activation,
	// DO nests, chunks, planes, tiles, stalls, ...) on per-worker rings as
	// the run executes. nil tracing costs one branch per emission site.
	Trace *obs.Recorder
	// ProfileLabels wraps dispatched work in runtime/pprof label sets
	// (ps_module, ps_step, ps_eqs) so CPU profiles attribute samples to
	// the source equations each worker was executing.
	ProfileLabels bool
}

// HyperplaneMode controls the automatic §4 restructuring of sequential
// loop nests.
type HyperplaneMode uint8

const (
	// HyperplaneAuto (the default) runs eligible nests as wavefront
	// sweeps whenever the run executes in parallel.
	HyperplaneAuto HyperplaneMode = iota
	// HyperplaneOff always runs the untransformed sequential nests.
	HyperplaneOff
)

// EffectiveHyperplane reports whether a run with these options executes
// the auto-hyperplane (cascade) plan variant. Sequential runs never do —
// the untransformed nests double as the parity reference.
func (o *Options) EffectiveHyperplane() bool {
	return o.Hyperplane == HyperplaneAuto && !o.Sequential
}

// Stats accumulates per-run execution counters. The counters are updated
// atomically, so one Stats value may observe a run whose DOALLs execute
// on many workers; nested module calls accumulate into the same Stats.
type Stats struct {
	// EqInstances counts equation instances executed (one per evaluation
	// of one equation at one index point).
	EqInstances atomic.Int64
	// Chunks counts DOALL chunks dispatched to pool workers. Wavefront
	// steps contribute none: their parallel unit is the tile (Doacross).
	Chunks atomic.Int64
	// Planes counts hyperplane launches of wavefront steps — one per
	// time step of every §4-restructured nest — so wavefront work stays
	// distinguishable from plain DOALL chunking.
	Planes atomic.Int64
	// Doacross accumulates the wavefront tile executor's counters: tile
	// instances, stalls (parked waits on predecessor tiles) and steals.
	// All zero when every wavefront swept inline.
	Doacross sched.Stats
	// Specialized counts equation instances executed through the
	// branch-free specialized kernel path (a subset of EqInstances);
	// the remainder ran the checked closure tree.
	Specialized atomic.Int64
	// ArenaReuses counts activation arrays whose backing was recycled
	// from the arena instead of freshly allocated.
	ArenaReuses atomic.Int64
}

// RunError describes a failure while executing a module: which module,
// which equation was in execution (when known), and the underlying
// cause. The cause is preserved for errors.Is/As — a cancelled run wraps
// context.Canceled or context.DeadlineExceeded.
type RunError struct {
	Module   string
	Equation string
	Err      error
}

// Error implements the error interface.
func (e *RunError) Error() string {
	if e.Equation != "" {
		return fmt.Sprintf("interp: module %s: %s: %v", e.Module, e.Equation, e.Err)
	}
	return fmt.Sprintf("interp: module %s: %v", e.Module, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *RunError) Unwrap() error { return e.Err }

// Program is a compiled, runnable PS program. It is immutable after
// Compile and safe for concurrent Run/RunCtx calls from many goroutines:
// every activation builds its own environment.
type Program struct {
	Prog   *sem.Program
	Scheds map[*sem.Module]*core.Schedule
	mods   map[*sem.Module]*compiledModule
	// arena recycles activation-array backings across runs (and across
	// concurrent runs; it is goroutine-safe). Strict-mode runs and
	// Options.NoArena bypass it.
	arena *value.Arena
}

// runtimeError wraps execution failures carried by panic across the
// evaluator (subscript errors, division by zero, strict violations,
// cancellation). eq is the label of the equation in execution when the
// failure was raised, filled in at the nearest point where it is known.
type runtimeError struct {
	err error
	eq  string
}

// Compile prepares every module of a checked program for execution:
// each module's dependency graph is scheduled with the core scheduler
// and the resulting flowchart is lowered once into the flat plan IR
// (all four [fuse][cascade] variants) that Run executes.
func Compile(prog *sem.Program) (*Program, error) {
	p := &Program{
		Prog:   prog,
		Scheds: make(map[*sem.Module]*core.Schedule),
		mods:   make(map[*sem.Module]*compiledModule),
		arena:  &value.Arena{},
	}
	for _, m := range prog.Modules {
		if _, done := p.mods[m]; done {
			continue
		}
		if _, err := p.compileCallee(m); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// compileCallee schedules and compiles one module on demand.
func (p *Program) compileCallee(m *sem.Module) (*compiledModule, error) {
	g := depgraph.Build(m)
	sched, err := core.Build(g)
	if err != nil {
		return nil, err
	}
	p.Scheds[m] = sched
	return p.compileModule(m, sched)
}

// Schedule returns the flowchart computed for a module.
func (p *Program) Schedule(name string) *core.Schedule {
	m := p.Prog.Module(name)
	if m == nil {
		return nil
	}
	return p.Scheds[m]
}

// Plan returns the lowered loop program for a module in the requested
// variant (fusion × auto-hyperplane). It is nil for unknown modules.
// Where no nest wavefronts, both hyperplane settings return the one
// cascade-lowered program, so its Cascade is set either way.
func (p *Program) Plan(name string, opts plan.Options) *plan.Program {
	m := p.Prog.Module(name)
	if m == nil {
		return nil
	}
	cm := p.mods[m]
	if cm == nil {
		return nil
	}
	return cm.variant(opts.Fuse, opts.Hyperplane).pl
}

// runState is the execution context shared by a root activation and
// every nested module call it makes: options, the worker pool, the
// cancellation signal and the statistics sink.
type runState struct {
	opts Options
	ctx  context.Context
	// canceled is set once ctx is done; nil when the context cannot be
	// cancelled. Loops poll this flag (a plain atomic load) instead of
	// calling ctx.Err() on hot paths.
	canceled *atomic.Bool
	stats    *Stats
	pool     *par.Pool
	// rec is the run's event recorder (Options.Trace); nil disables
	// tracing. labels mirrors Options.ProfileLabels.
	rec    *obs.Recorder
	labels bool
}

// cancelled reports whether the run's context has fired.
func (rs *runState) cancelled() bool { return rs.canceled != nil && rs.canceled.Load() }

// cancelChan returns the channel pool workers watch to stop claiming
// chunks, or nil when the run is not cancellable.
func (rs *runState) cancelChan() <-chan struct{} {
	if rs.canceled == nil {
		return nil
	}
	return rs.ctx.Done()
}

// env is the runtime state of one module activation.
type env struct {
	cm *compiledModule
	// cp is the plan variant this activation executes ([fuse][cascade]).
	cp      *compiledPlan
	scalars []any
	arrays  []*value.Array
	// bounds holds each subrange's lo/hi for this activation, indexed by
	// frame slot; evaluated once at activation entry (PS bounds depend
	// only on module scalars), so loops never re-evaluate bound thunks.
	bounds [][2]int64
	rs     *runState
	strict bool
	// inParallel marks that an enclosing DOALL is already distributing
	// work, so nested DOALLs run sequentially within each worker.
	inParallel bool
	// eqCount counts equation instances executed through this env (or a
	// per-chunk copy of it); deltas are flushed into rs.stats.
	eqCount int64
	// specCount counts the subset of eqCount that ran the specialized
	// branch-free kernel path.
	specCount int64
	// noSpec forces every span through the checked kernel
	// (Options.NoSpecialize).
	noSpec bool
	// curEq is the kernel index of the equation currently executing
	// (an index into cp.pl.Eqs), or -1; read when a runtime failure
	// needs attribution.
	curEq int32
	// ring is the event ring this env (activation goroutine or worker
	// chunk) emits trace spans on; nil when tracing is off. Every
	// worker-state copy of an env resets it — rings are single-writer.
	ring *obs.Ring
	// inSpan marks that an enclosing compute span (DO nest, sequential
	// DOALL, inline plane) is already open on ring, so
	// nested sequential steps — and nested module calls — must not emit
	// their own: overlapping spans would double-count the breakdown.
	inSpan bool
	// ck is the context checked kernels evaluate on (env.checked).
	ck kctx
}

// eqLabel resolves the executing equation's label for error reports.
func (en *env) eqLabel() string {
	if en.curEq >= 0 {
		return en.cp.pl.Eqs[en.curEq].Label
	}
	return ""
}

// beginSpan opens a sequential compute span — a DO nest, a DOALL step or
// an inline plane run on the activation goroutine — returning
// the ring to close it on and its start time. The ring is nil when
// tracing is off or an enclosing span (a worker chunk, an open
// sequential span) already covers this work. Until endSpan, nested
// sequential steps and module calls emit nothing (en.inSpan).
func (en *env) beginSpan() (ring *obs.Ring, t0 int64) {
	if en.ring == nil || en.inParallel || en.inSpan {
		return nil, 0
	}
	en.inSpan = true
	return en.ring, en.ring.Now()
}

// endSpan closes and records the span beginSpan opened, if any.
func (en *env) endSpan(ring *obs.Ring, kind obs.Kind, t0, arg0, arg1 int64) {
	if ring != nil {
		en.inSpan = false
		ring.Emit(kind, t0, ring.Now()-t0, arg0, arg1)
	}
}

// workerState is pooled per-chunk execution state: a private env copy
// and index frame reused across DOALL dispatches instead of allocated
// per chunk.
type workerState struct {
	en env
	fr []int64
}

// workerScope is what the bodies of one parallel dispatch share: the
// dispatching activation's env and frame, whether a body is a pool
// chunk, and the first failure any body raised.
type workerScope struct {
	en *env
	fr []int64
	// chunk is set for DOALL chunks: each body then counts in
	// Stats.Chunks and, when tracing, emits a KChunk span on a ring of
	// its own. Wavefront tiles leave it unset: sched.Run records their
	// spans on its own rings.
	chunk    bool
	once     sync.Once
	panicked any
}

// run executes body on pooled worker state — a private env copy and
// index frame borrowed from cm.ws instead of allocated per body — with
// the frame starting at the dispatcher's coordinates. The copy's
// instance counters start at zero and are flushed into the run's Stats
// when body returns or fails. A failure (runtimeError, value.Error or a
// foreign panic) is captured once, for rethrow on the dispatching
// goroutine after every body has stopped, and reported as false. ring is
// the event ring the body's executor already owns on this goroutine (a
// sched worker's, for tiles), or nil; the body emits its instants there.
func (w *workerScope) run(points int64, ring *obs.Ring, body func(sub *env, wfr []int64)) (ok bool) {
	rs, cm := w.en.rs, w.en.cm
	ws, _ := cm.ws.Get().(*workerState)
	if ws == nil {
		ws = &workerState{}
	}
	if cap(ws.fr) < len(w.fr) {
		ws.fr = make([]int64, len(w.fr))
	}
	wfr := ws.fr[:len(w.fr)]
	copy(wfr, w.fr)
	ws.en = *w.en
	sub := &ws.en
	sub.inParallel = true
	sub.eqCount = 0
	sub.specCount = 0
	// The env copy aliased the dispatcher's ring, and rings are
	// single-writer: a body emits on its executor's ring, a chunk on one
	// acquired here, anything else on none.
	sub.ring = ring
	var t0 int64
	if w.chunk && rs.rec != nil {
		sub.ring = rs.rec.Acquire()
		t0 = sub.ring.Now()
	}
	defer func() {
		if rs.stats != nil {
			if w.chunk {
				rs.stats.Chunks.Add(1)
			}
			rs.stats.EqInstances.Add(sub.eqCount)
			rs.stats.Specialized.Add(sub.specCount)
		}
		if w.chunk && sub.ring != nil {
			sub.ring.Emit(obs.KChunk, t0, sub.ring.Now()-t0, points, 0)
			rs.rec.Release(sub.ring)
		}
		if r := recover(); r != nil {
			switch e := r.(type) {
			case runtimeError:
				if e.eq == "" {
					e.eq = sub.eqLabel()
				}
				r = e
			case value.Error:
				r = runtimeError{err: e, eq: sub.eqLabel()}
			}
			w.once.Do(func() { w.panicked = r })
			ok = false
		}
		cm.ws.Put(ws)
	}()
	body(sub, wfr)
	return true
}

// rethrow re-raises the failure a body recorded, if any.
func (w *workerScope) rethrow() {
	if w.panicked != nil {
		panic(w.panicked)
	}
}

// Run executes the named module with the given arguments. Scalar
// arguments are Go ints/floats/bools; array arguments are *value.Array.
// It returns one value per declared result.
func (p *Program) Run(name string, args []any, opts Options) ([]any, error) {
	return p.RunCtx(context.Background(), name, args, opts)
}

// RunCtx is Run with a context: cancellation or deadline expiry aborts
// sequential loops within one iteration (a leaf DO within one span) and
// in-flight DOALLs within one chunk, returning a *RunError wrapping
// ctx.Err().
func (p *Program) RunCtx(ctx context.Context, name string, args []any, opts Options) ([]any, error) {
	m := p.Prog.Module(name)
	if m == nil {
		return nil, fmt.Errorf("interp: no module %s", name)
	}
	rs, cleanup, err := p.newRunState(ctx, opts)
	if err != nil {
		return nil, &RunError{Module: m.Name, Err: err}
	}
	defer cleanup()
	return p.runModule(rs, p.mods[m], args, false, false)
}

// newRunState builds the shared execution context of one activation (or
// one batch of activations): the resolved context, the cancellation
// flag watcher, and the worker pool. The returned cleanup stops the
// watcher and closes a run-owned pool; call it when the run completes.
// A context that is already done is reported as an error before any
// state is created.
func (p *Program) newRunState(ctx context.Context, opts Options) (*runState, func(), error) {
	rs := &runState{opts: opts, ctx: ctx, stats: opts.Stats, rec: opts.Trace, labels: opts.ProfileLabels}
	if ctx == nil {
		rs.ctx = context.Background()
	} else if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	cleanups := make([]func(), 0, 2)
	if done := rs.ctx.Done(); done != nil {
		// One watcher goroutine flips the flag the loops poll, keeping
		// ctx.Err() calls off the per-iteration path.
		var flag atomic.Bool
		rs.canceled = &flag
		stop := make(chan struct{})
		cleanups = append(cleanups, func() { close(stop) })
		go func() {
			select {
			case <-done:
				flag.Store(true)
			case <-stop:
			}
		}()
	}
	if !opts.Sequential {
		if opts.Pool != nil {
			rs.pool = opts.Pool
		} else {
			// No shared pool injected: one persistent pool per activation
			// tree, so DOALL planes inside an iterative loop reuse parked
			// workers instead of spawning goroutines per plane.
			rs.pool = par.NewPool(opts.Workers)
			cleanups = append(cleanups, rs.pool.Close)
		}
	}
	return rs, func() {
		for _, f := range cleanups {
			f()
		}
	}, nil
}

// runModule executes one activation. covered marks a nested call whose
// caller is already inside a traced compute span (a worker chunk, tile,
// stage body or sequential span): the activation then emits no spans of
// its own — the enclosing span accounts its time.
func (p *Program) runModule(rs *runState, cm *compiledModule, args []any, inParallel, covered bool) (results []any, err error) {
	var en *env
	defer func() {
		// Flush sequential instance counts whether the run completed,
		// failed or was cancelled: RunStats promises the counters
		// accumulated up to the abort.
		if rs.stats != nil && en != nil {
			if en.eqCount != 0 {
				rs.stats.EqInstances.Add(en.eqCount)
				en.eqCount = 0
			}
			if en.specCount != 0 {
				rs.stats.Specialized.Add(en.specCount)
				en.specCount = 0
			}
		}
		if r := recover(); r != nil {
			curEq := ""
			if en != nil {
				curEq = en.eqLabel()
			}
			switch e := r.(type) {
			case runtimeError:
				if e.eq == "" {
					e.eq = curEq
				}
				err = &RunError{Module: cm.m.Name, Equation: e.eq, Err: e.err}
			case value.Error:
				err = &RunError{Module: cm.m.Name, Equation: curEq, Err: e}
			default:
				panic(r)
			}
		}
	}()
	m := cm.m
	if rs.cancelled() {
		return nil, &RunError{Module: m.Name, Err: rs.ctx.Err()}
	}
	if len(args) != len(m.Params) {
		return nil, &RunError{Module: m.Name, Err: fmt.Errorf("takes %d arguments, got %d", len(m.Params), len(args))}
	}
	opts := rs.opts
	en = &env{
		cm:         cm,
		cp:         cm.variant(opts.Fuse, opts.EffectiveHyperplane()),
		scalars:    make([]any, len(cm.syms)),
		arrays:     make([]*value.Array, len(cm.syms)),
		rs:         rs,
		strict:     opts.Strict,
		noSpec:     opts.NoSpecialize,
		inParallel: inParallel,
		curEq:      -1,
	}
	if rs.rec != nil && !covered {
		ring := rs.rec.Acquire()
		en.ring = ring
		actStart := ring.Now()
		defer func() {
			ring.Emit(obs.KActivation, actStart, ring.Now()-actStart, 0, 0)
			rs.rec.Release(ring)
		}()
	}

	// Bind parameters.
	for i, sym := range m.Params {
		si := cm.symIdx[sym]
		v, cerr := coerceArg(args[i], sym.Type)
		if cerr != nil {
			return nil, &RunError{Module: m.Name, Err: fmt.Errorf("argument %d (%s): %w", i+1, sym.Name, cerr)}
		}
		if a, isArr := v.(*value.Array); isArr {
			en.arrays[si] = a
		} else {
			en.scalars[si] = v
		}
	}

	// Evaluate every subrange bound once for this activation: loops and
	// array allocations below read the resolved values by frame slot.
	fr := make([]int64, cm.nSlots)
	en.bounds = make([][2]int64, cm.nSlots)
	k := en.checked(fr)
	for i, b := range cm.bounds {
		en.bounds[i] = [2]int64{b[0](k), b[1](k)}
	}

	// Allocate result and local arrays from the plan variant's
	// precomputed descriptors, honoring virtual dimensions unless
	// ablated. Non-strict runs draw backings from the program arena,
	// zeroing recycled storage only when the write-coverage analysis
	// could not prove every element is defined before being read.
	arena := p.arena
	if opts.Strict || opts.NoArena {
		arena = nil
	}
	// One axes block serves every array of the activation: each array
	// gets a full-capped sub-slice, so the per-array descriptor
	// allocations collapse into a single make.
	nAxes := 0
	for _, al := range en.cp.allocs {
		nAxes += len(al.dims)
	}
	axesBuf := make([]value.Axis, nAxes)
	for _, al := range en.cp.allocs {
		axes := axesBuf[:len(al.dims):len(al.dims)]
		axesBuf = axesBuf[len(al.dims):]
		for d, ad := range al.dims {
			b := en.bounds[ad.slot]
			axes[d] = value.Axis{Lo: b[0], Hi: b[1]}
			if ad.window > 0 && !opts.NoVirtual {
				axes[d].Window = ad.window
			}
		}
		a, reused := arena.NewArrayIn(al.elem, axes, al.zero)
		if reused {
			if rs.stats != nil {
				rs.stats.ArenaReuses.Add(1)
			}
			if en.ring != nil {
				en.ring.Emit(obs.KArenaReuse, en.ring.Now(), 0, int64(al.si), 0)
			}
		}
		if opts.Strict {
			a.EnableStrict()
		}
		en.arrays[al.si] = a
	}

	// Execute the plan.
	if rs.labels {
		pprof.Do(rs.ctx, pprof.Labels("ps_module", m.Name), func(context.Context) {
			p.execSteps(en, fr, 0, len(en.cp.pl.Steps))
		})
	} else {
		p.execSteps(en, fr, 0, len(en.cp.pl.Steps))
	}
	if rs.cancelled() {
		return nil, &RunError{Module: m.Name, Err: rs.ctx.Err()}
	}

	// Collect results.
	results = make([]any, len(m.Results))
	for i, sym := range m.Results {
		si := cm.symIdx[sym]
		if en.arrays[si] != nil {
			results[i] = en.arrays[si]
		} else {
			results[i] = en.scalars[si]
		}
	}
	// Local arrays die with the activation: recycle their backings.
	// (A local slot holding a callee's result array is still the only
	// live reference — callee results transfer ownership.) Results are
	// never released here; their owner is the caller.
	if arena != nil {
		for _, al := range en.cp.allocs {
			if al.local {
				arena.Release(en.arrays[al.si])
			}
		}
	}
	return results, nil
}

// coerceArg converts a Go argument to the runtime representation of t.
func coerceArg(v any, t types.Type) (any, error) {
	switch t.Kind() {
	case types.RealKind:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int:
			return float64(x), nil
		case int64:
			return float64(x), nil
		}
	case types.IntKind, types.SubrangeKind, types.CharKind, types.EnumKind:
		switch x := v.(type) {
		case int64:
			return x, nil
		case int:
			return int64(x), nil
		}
	case types.BoolKind:
		if x, ok := v.(bool); ok {
			return x, nil
		}
	case types.StringKind:
		if x, ok := v.(string); ok {
			return x, nil
		}
	case types.ArrayKind:
		if a, ok := v.(*value.Array); ok {
			if a.Rank() != types.Rank(t) {
				return nil, fmt.Errorf("array rank %d, want %d", a.Rank(), types.Rank(t))
			}
			return a, nil
		}
	case types.RecordKind:
		if r, ok := v.(*value.Record); ok {
			return r, nil
		}
	}
	return nil, fmt.Errorf("cannot use %T as %s", v, t)
}

// execSteps runs the plan instructions [lo, hi) at the current frame.
// This is the per-iteration hot path: dispatch is a switch on a plan
// opcode, bounds are slot-indexed slice reads and kernels are direct
// slice-indexed calls — no map lookups, no flowchart descriptors.
func (p *Program) execSteps(en *env, fr []int64, lo, hi int) {
	steps := en.cp.pl.Steps
	kernels := en.cp.kernels
	for i := lo; i < hi; {
		st := &steps[i]
		switch st.Op {
		case plan.OpEq:
			en.curEq = int32(st.Eq)
			en.eqCount++
			kernels[st.Eq](en, fr)
			i++
		case plan.OpDo:
			p.execDo(en, fr, st, i)
			i = st.End
		case plan.OpWavefront:
			p.execWavefront(en, fr, st, i+1)
			i = st.End
		default: // plan.OpDoAll
			p.execDoAll(en, fr, st, i+1)
			i = st.End
		}
	}
}

// seqNest reports whether the loop step at i holds only DO and equation
// steps, so nothing in it leaves the calling goroutine.
func seqNest(steps []plan.Step, i int) bool {
	for k := i + 1; k < steps[i].End; k++ {
		if op := steps[k].Op; op != plan.OpDo && op != plan.OpEq {
			return false
		}
	}
	return true
}

// execDo runs one sequential DO step at the step index self. A leaf DO
// is the paper's §3 iterative loop around a single equation: its whole
// range is one span of that kernel, ascending by one, which the
// specialized kernel certifies once and runs store-before-next-read, so
// reads carried along the loop see exactly the point-wise program order.
// Cancellation is polled per span there and per iteration otherwise.
// Either way the frame is left at the last iteration. A nest of DO and
// equation steps runs whole on this goroutine, so its outermost DO
// records one KDo span (beginSpan declines inside an open span or a
// chunk).
func (p *Program) execDo(en *env, fr []int64, st *plan.Step, self int) {
	if en.ring != nil && seqNest(en.cp.pl.Steps, self) {
		ring, t0 := en.beginSpan()
		defer en.endSpan(ring, obs.KDo, t0, int64(self), 0)
	}
	slot := st.Dims[0]
	b := en.bounds[slot]
	canceled := en.rs.canceled
	if st.Leaf {
		if b[1] < b[0] {
			return
		}
		if canceled != nil && canceled.Load() {
			panic(runtimeError{err: en.rs.ctx.Err()})
		}
		eqi := en.cp.pl.Steps[self+1].Eq
		en.curEq = int32(eqi)
		fr[slot] = b[0]
		en.cp.spans[eqi].fn(en, fr, st.Dims, unitDir, b[1]-b[0]+1)
		fr[slot] = b[1]
		return
	}
	for v := b[0]; v <= b[1]; v++ {
		if canceled != nil && canceled.Load() {
			panic(runtimeError{err: en.rs.ctx.Err()})
		}
		fr[slot] = v
		p.execSteps(en, fr, self+1, st.End)
	}
}

// unitDir is the span direction of a DOALL row or a leaf DO: the
// innermost dimension advances by one per point. Read-only.
var unitDir = []int64{1}

// execDoAll runs one (pre-collapsed) DOALL step: the plan has already
// flattened directly nested parallel loops into one linear iteration
// space, so execution only resolves bounds and dispatches chunks.
func (p *Program) execDoAll(en *env, fr []int64, st *plan.Step, bodyLo int) {
	rs := en.rs
	var lob, hib [plan.MaxCollapse]int64
	ndim := len(st.Dims)
	total := int64(1)
	for d, slot := range st.Dims {
		b := en.bounds[slot]
		if b[1] < b[0] {
			return // empty dimension: no equation instances at all
		}
		lob[d], hib[d] = b[0], b[1]
		total *= b[1] - b[0] + 1
	}
	bodyHi := st.End

	if rs.pool == nil || en.inParallel || rs.pool.Workers() == 1 {
		// Sequential execution of the collapsed nest: walk the linear
		// space odometer-style, innermost dimension fastest. The step is
		// recorded as one KDoAll span.
		ring, t0 := en.beginSpan()
		for d := 0; d < ndim; d++ {
			fr[st.Dims[d]] = lob[d]
		}
		canceled := rs.canceled
		if st.Leaf {
			// Leaf fast path: the body is equation steps only, so hand
			// each kernel a full innermost row as one span (specialized
			// kernels advance the flat offset incrementally; the generic
			// wrapper walks point-by-point — behavior unchanged).
			rowLen := hib[ndim-1] - lob[ndim-1] + 1
			rowSlots := st.Dims[ndim-1:]
			steps := en.cp.pl.Steps
			spans := en.cp.spans
			for c := int64(0); c < total; c += rowLen {
				if canceled != nil && canceled.Load() {
					panic(runtimeError{err: rs.ctx.Err()})
				}
				for k := bodyLo; k < bodyHi; k++ {
					eqi := steps[k].Eq
					en.curEq = int32(eqi)
					spans[eqi].fn(en, fr, rowSlots, unitDir, rowLen)
				}
				// The span restored the innermost coordinate; jump it to
				// the row end so advance carries into the outer dims.
				fr[st.Dims[ndim-1]] = hib[ndim-1]
				advance(fr, st.Dims, &lob, &hib)
			}
			en.endSpan(ring, obs.KDoAll, t0, total, 0)
			return
		}
		for c := int64(0); c < total; c++ {
			if canceled != nil && canceled.Load() {
				panic(runtimeError{err: rs.ctx.Err()})
			}
			p.execSteps(en, fr, bodyLo, bodyHi)
			advance(fr, st.Dims, &lob, &hib)
		}
		en.endSpan(ring, obs.KDoAll, t0, total, 0)
		return
	}

	// Parallel dispatch. Each chunk runs on pooled worker state (env +
	// frame), decomposes its start index once, and advances the frame
	// odometer-style — no div/mod per iteration. Runtime failures in
	// workers are captured once and re-raised on the caller; the pool
	// stops claiming chunks when the run's context fires.
	scope := workerScope{en: en, fr: fr, chunk: true}
	leaf := st.Leaf
	work := func(start, end int64) {
		scope.run(end-start+1, nil, func(sub *env, wfr []int64) {
			rem := start
			for d := ndim - 1; d >= 0; d-- {
				n := hib[d] - lob[d] + 1
				wfr[st.Dims[d]] = lob[d] + rem%n
				rem /= n
			}
			if leaf {
				// Leaf fast path: the body is equation steps only, so hand
				// the kernels row spans clipped to this chunk instead of
				// re-entering the step dispatcher per point.
				steps := sub.cp.pl.Steps
				spans := sub.cp.spans
				innerSlot := st.Dims[ndim-1]
				rowSlots := st.Dims[ndim-1:]
				for li := start; ; {
					seg := hib[ndim-1] - wfr[innerSlot] + 1
					if li+seg-1 > end {
						seg = end - li + 1
					}
					for k := bodyLo; k < bodyHi; k++ {
						eqi := steps[k].Eq
						sub.curEq = int32(eqi)
						spans[eqi].fn(sub, wfr, rowSlots, unitDir, seg)
					}
					li += seg
					if li > end {
						break
					}
					wfr[innerSlot] += seg - 1
					advance(wfr, st.Dims, &lob, &hib)
				}
				return
			}
			for li := start; ; li++ {
				p.execSteps(sub, wfr, bodyLo, bodyHi)
				if li == end {
					break
				}
				advance(wfr, st.Dims, &lob, &hib)
			}
		})
	}
	if rs.labels {
		work = labeled(rs, work, pprof.Labels(
			"ps_module", en.cm.m.Name, "ps_step", "doall", "ps_eqs", stepEqs(en.cp, bodyLo, bodyHi)))
	}
	completed := rs.pool.ForRangesOpts(rs.cancelChan(), 0, total-1, rs.opts.Grain, work)
	scope.rethrow()
	if !completed {
		panic(runtimeError{err: rs.ctx.Err()})
	}
}

// labeled wraps a chunk function in a pprof label set so CPU samples
// taken while the chunk runs carry the executing module/step/equations.
func labeled(rs *runState, work func(start, end int64), lbls pprof.LabelSet) func(start, end int64) {
	return func(start, end int64) {
		pprof.Do(rs.ctx, lbls, func(context.Context) { work(start, end) })
	}
}

// stepEqs joins the labels of the equation steps in [lo, hi) — the
// ps_eqs pprof label value.
func stepEqs(cp *compiledPlan, lo, hi int) string {
	var sb strings.Builder
	for i := lo; i < hi; i++ {
		if cp.pl.Steps[i].Op != plan.OpEq {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(cp.pl.Eqs[cp.pl.Steps[i].Eq].Label)
	}
	return sb.String()
}

// eqsLabel joins the labels of the given kernel indices — the ps_eqs
// value for wavefront bodies, which carry their equations as indices.
func eqsLabel(cp *compiledPlan, eqis []int) string {
	var sb strings.Builder
	for _, eqi := range eqis {
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(cp.pl.Eqs[eqi].Label)
	}
	return sb.String()
}

// wfSpace is the resolved geometry of one wavefront activation: the
// original iteration box, the interval bounds of every transformed
// coordinate over it, and the π-term sums used for per-plane
// tightening of basis coordinates. The inline sweep and the tile
// executor work from the same space, which is why they are bitwise
// identical.
type wfSpace struct {
	st *plan.Step
	hy *plan.Hyper
	n  int
	// eqis are the kernel indices of the step's body equations in group
	// order; every in-box plane point runs all of them, so in-plane
	// zero-distance dependences between group equations are satisfied by
	// execution order. Singleton nests have exactly one.
	eqis []int
	// lo, hi is the original iteration box.
	lo, hi [plan.MaxCollapse]int64
	// tlo, thi bounds each transformed coordinate row_r(T)·x over the
	// box; row 0 is the time axis.
	tlo, thi [plan.MaxCollapse]int64
	// piLoSum, piHiSum bound Σ π_j·x_j over the box (π non-negative).
	piLoSum, piHiSum int64
	// row is the plane coordinate kernels sweep as spans: the basis
	// coordinate of the innermost original dimension when one exists
	// (unit array stride, so specialized kernels advance flat offsets
	// by ±1), else the last plane coordinate.
	row int
	// ord lists the remaining plane coordinates in increasing order;
	// the plane's linear index is decomposed ord-major, row fastest.
	ord []int
	// dcol is T⁻¹'s column for row: the per-point motion of every
	// original coordinate along a row span.
	dcol []int64
}

// resolve fills the space from the activation's bounds; false means
// some dimension is empty and the nest has no iterations.
func (w *wfSpace) resolve(en *env, st *plan.Step, bodyLo int) bool {
	w.st, w.hy = st, st.Hyper
	w.n = len(st.Dims)
	// The body is equation steps only (tryWavefront guarantees it), so
	// points invoke the kernels directly instead of re-entering the step
	// dispatcher — the wavefront analogue of the DOALL leaf fast path.
	w.eqis = w.eqis[:0]
	for b := bodyLo; b < st.End; b++ {
		w.eqis = append(w.eqis, en.cp.pl.Steps[b].Eq)
	}
	for j, slot := range st.Dims {
		b := en.bounds[slot]
		if b[1] < b[0] {
			return false
		}
		w.lo[j], w.hi[j] = b[0], b[1]
	}
	for r := 0; r < w.n; r++ {
		for j, c := range w.hy.T[r] {
			if c >= 0 {
				w.tlo[r] += c * w.lo[j]
				w.thi[r] += c * w.hi[j]
			} else {
				w.tlo[r] += c * w.hi[j]
				w.thi[r] += c * w.lo[j]
			}
		}
	}
	for j := 0; j < w.n; j++ {
		w.piLoSum += w.hy.Pi[j] * w.lo[j]
		w.piHiSum += w.hy.Pi[j] * w.hi[j]
	}
	w.row = w.n - 1
	bestJ := -1
	for r := 1; r < w.n; r++ {
		if j := w.hy.Basis[r]; j > bestJ {
			bestJ = j
			w.row = r
		}
	}
	w.ord = w.ord[:0]
	for r := 1; r < w.n; r++ {
		if r != w.row {
			w.ord = append(w.ord, r)
		}
	}
	w.dcol = w.dcol[:0]
	for j := 0; j < w.n; j++ {
		w.dcol = append(w.dcol, w.hy.TInv[j][w.row])
	}
	return true
}

// planeBounds computes plane t's coordinate ranges: start from the box
// interval and, for plane coordinates that are original dimensions
// (basis rows of T), solve π·x = t for that coordinate's feasible
// range. This keeps the guarded slack per plane small even when the
// time axis is much longer than the other dimensions. It returns the
// plane's candidate-point count (0 for an empty plane).
func (w *wfSpace) planeBounds(t int64, plo, phi *[plan.MaxCollapse]int64) int64 {
	hy := w.hy
	planeTotal := int64(1)
	for r := 1; r < w.n; r++ {
		l, h := w.tlo[r], w.thi[r]
		if j := hy.Basis[r]; j >= 0 {
			if c := hy.Pi[j]; c > 0 {
				othersLo := w.piLoSum - c*w.lo[j]
				othersHi := w.piHiSum - c*w.hi[j]
				if q := ceilDiv(t-othersHi, c); q > l {
					l = q
				}
				if q := floorDiv(t-othersLo, c); q < h {
					h = q
				}
			}
		}
		if l > h {
			return 0
		}
		plo[r], phi[r] = l, h
		planeTotal *= h - l + 1
	}
	return planeTotal
}

// execPlaneBox runs the candidate points [start, end] (linear indices
// into the plane's bounding box, row coordinate fastest) of plane t on
// the calling goroutine. Each row of the box is handled as one segment:
// the sub-interval of points whose T⁻¹ preimage lies in the original
// iteration box is solved in closed form (the preimage moves by dcol
// per step, so each original dimension bounds a k-interval), and the
// feasible run is handed to the kernels as a single span — in-box
// filtering costs a few divisions per row instead of a branch per
// point, and specialized kernels advance flat offsets incrementally
// across the run. Exactly the original points execute, each once, in
// group order per point sequence, so results are bitwise identical to
// the per-point walk. Cancellation is polled per row.
func (p *Program) execPlaneBox(en *env, fr []int64, w *wfSpace, t int64, plo, phi *[plan.MaxCollapse]int64, start, end int64) {
	n, row := w.n, w.row
	rowLen := phi[row] - plo[row] + 1
	var xpBuf, xBuf [plan.MaxCollapse]int64
	xp, x := xpBuf[:n], xBuf[:n]
	xp[0] = t
	// Decompose start: row-fastest, then w.ord outer coordinates with
	// the last ord entry varying next-fastest.
	rem := start / rowLen
	xp[row] = plo[row] + start%rowLen
	for oi := len(w.ord) - 1; oi >= 0; oi-- {
		r := w.ord[oi]
		span := phi[r] - plo[r] + 1
		xp[r] = plo[r] + rem%span
		rem /= span
	}
	preimage(w.hy.TInv, xp, x)
	canceled := en.rs.canceled
	dcol := w.dcol
	spans := en.cp.spans
	dims := w.st.Dims
	for li := start; li <= end; {
		if canceled != nil && canceled.Load() {
			panic(runtimeError{err: en.rs.ctx.Err()})
		}
		seg := phi[row] - xp[row] + 1
		if li+seg-1 > end {
			seg = end - li + 1
		}
		// Feasible sub-interval of this segment: lo ≤ x + k·dcol ≤ hi
		// per original dimension, intersected over all of them.
		kLo, kHi := int64(0), seg-1
		for j := 0; j < n; j++ {
			switch d := dcol[j]; {
			case d == 0:
				if x[j] < w.lo[j] || x[j] > w.hi[j] {
					kLo, kHi = seg, seg-1
				}
			case d > 0:
				if q := ceilDiv(w.lo[j]-x[j], d); q > kLo {
					kLo = q
				}
				if q := floorDiv(w.hi[j]-x[j], d); q < kHi {
					kHi = q
				}
			default:
				if q := ceilDiv(x[j]-w.hi[j], -d); q > kLo {
					kLo = q
				}
				if q := floorDiv(x[j]-w.lo[j], -d); q < kHi {
					kHi = q
				}
			}
		}
		if kLo <= kHi {
			for j := 0; j < n; j++ {
				fr[dims[j]] = x[j] + kLo*dcol[j]
			}
			cnt := kHi - kLo + 1
			for _, eqi := range w.eqis {
				en.curEq = int32(eqi)
				spans[eqi].fn(en, fr, dims, dcol, cnt)
			}
		}
		li += seg
		if li > end {
			break
		}
		// Advance to the next row: rewind the row coordinate, then bump
		// the ord odometer (last entry fastest), updating the preimage
		// with T⁻¹ columns.
		if back := xp[row] - plo[row]; back != 0 {
			for j := 0; j < n; j++ {
				x[j] -= back * dcol[j]
			}
			xp[row] = plo[row]
		}
		for oi := len(w.ord) - 1; oi >= 0; oi-- {
			r := w.ord[oi]
			if xp[r]++; xp[r] <= phi[r] {
				for j := 0; j < n; j++ {
					x[j] += w.hy.TInv[j][r]
				}
				break
			}
			span := phi[r] - plo[r]
			xp[r] = plo[r]
			for j := 0; j < n; j++ {
				x[j] -= span * w.hy.TInv[j][r]
			}
		}
	}
}

// minTilePlane is g of the dispatch rule when the caller set no grain:
// below 32 points per plane and worker, claiming and waiting on tiles
// costs more than the plane's kernel work.
const minTilePlane = 32

// TilePlane is the wavefront dispatch rule, a pure function of the
// run's worker count and grain: it returns the smallest average plane
// (points / planes of the activation's iteration box) that runs on the
// tile executor, g × workers, where g is grain when the caller set one
// and minTilePlane otherwise. 0 means the run never tiles — one worker
// has nothing to overlap. Narrower nests sweep inline on the calling
// goroutine.
func TilePlane(workers int, grain int64) int64 {
	if workers <= 1 {
		return 0
	}
	if grain <= 0 {
		grain = minTilePlane
	}
	return grain * int64(workers)
}

// tiled applies TilePlane to this activation's bounds.
func (w *wfSpace) tiled(workers int, grain int64) bool {
	least := TilePlane(workers, grain)
	if least == 0 {
		return false
	}
	points := int64(1)
	for j := 0; j < w.n; j++ {
		points *= w.hi[j] - w.lo[j] + 1
	}
	return points/(w.thi[0]-w.tlo[0]+1) >= least
}

// execWavefront runs one §4-restructured nest: hyperplanes t = π·x
// executed in dependence order, each plane a traversal of the bounding
// box of the remaining transformed coordinates. Per point the step's
// baked T⁻¹ recovers the original indices; points whose preimage falls
// outside the original iteration box are skipped, so exactly the
// original points execute, each once, with every dependence satisfied
// (π·d ≥ 1 places a point's inputs on strictly earlier planes, and
// in-plane points are independent by construction). A top-level
// activation on a pool whose planes are wide enough (tiled) hands the
// nest to the tile executor; everything else — one worker, a nest inside
// a parallel chunk or batch element, narrow planes — sweeps the planes
// in order on the calling goroutine.
func (p *Program) execWavefront(en *env, fr []int64, st *plan.Step, bodyLo int) {
	rs := en.rs
	var w wfSpace
	if !w.resolve(en, st, bodyLo) {
		return // empty dimension: the nest has no iterations
	}
	if rs.pool != nil && !en.inParallel && w.tiled(rs.pool.Workers(), rs.opts.Grain) {
		p.execWavefrontTiles(en, fr, &w)
		return
	}
	canceled := rs.canceled
	for t := w.tlo[0]; t <= w.thi[0]; t++ {
		if canceled != nil && canceled.Load() {
			panic(runtimeError{err: rs.ctx.Err()})
		}
		var plo, phi [plan.MaxCollapse]int64
		planeTotal := w.planeBounds(t, &plo, &phi)
		if planeTotal == 0 {
			continue // no candidate points on this hyperplane
		}
		if rs.stats != nil {
			rs.stats.Planes.Add(1)
		}
		// Plane spans land on the activation's ring; inside a parallel
		// chunk (or an already-open sequential span) the enclosing span
		// covers the work and nothing is emitted here.
		ring, t0 := en.beginSpan()
		p.execPlaneBox(en, fr, &w, t, &plo, &phi, 0, planeTotal-1)
		en.endSpan(ring, obs.KPlane, t0, t, 0)
	}
}

// execWavefrontTiles runs a wavefront nest on the pool as a doacross
// pipeline: the widest plane coordinate is blocked into tiles on a fixed
// global grid, each tile carries an atomic completion counter, and a
// tile entering plane t waits point-to-point only on the predecessor
// tiles the plan's dependence window implies (internal/sched) — no
// per-plane pool barrier, so successive hyperplanes overlap. Tile
// instances compute the same tightened plane bounds as the inline sweep
// and run the same kernels at the same points, so the two are bitwise
// identical.
func (p *Program) execWavefrontTiles(en *env, fr []int64, w *wfSpace) {
	rs := en.rs
	hy := w.hy
	// Block the plane coordinate with the widest transformed span: more
	// tiles means a deeper pipeline, and every other coordinate stays
	// whole within a tile so only one shift table is consulted.
	blk := 1
	for r := 2; r < w.n; r++ {
		if w.thi[r]-w.tlo[r] > w.thi[blk]-w.tlo[blk] {
			blk = r
		}
	}
	nest := sched.Nest{
		TLo: w.tlo[0], THi: w.thi[0],
		CoordLo: w.tlo[blk], CoordHi: w.thi[blk],
		Window:  hy.Window,
		Preds:   hy.Pred[blk-1],
		Workers: rs.pool.Workers(),
		// Options.Grain is the minimum iterations per parallel chunk; here
		// the chunk is a tile, so the grain bounds the tile width on the
		// blocked coordinate (0 keeps the default
		// span/(workers×TilesPerWorker) blocking).
		TileWidth: rs.opts.Grain,
	}
	var doStats *sched.Stats
	if rs.stats != nil {
		doStats = &rs.stats.Doacross
	}
	scope := workerScope{en: en, fr: fr}
	canceled := rs.canceled
	body := func(ring *obs.Ring, t int64, k int, blo, bhi int64) bool {
		// Most tile instances of a narrow plane are empty (the tile grid
		// is global, the tightened plane is not), so the bounds check
		// runs before any pooled-state setup.
		var plo, phi [plan.MaxCollapse]int64
		total := w.planeBounds(t, &plo, &phi)
		if total == 0 {
			return true // empty plane: the instance completes immediately
		}
		if k == 0 && rs.stats != nil {
			// Tile 0 exists on every plane, so it counts each non-empty
			// plane exactly once — keeping WavefrontPlanes equal to the
			// inline sweep's.
			rs.stats.Planes.Add(1)
		}
		// Clamp the blocked coordinate to this tile's slice.
		if plo[blk] < blo {
			plo[blk] = blo
		}
		if phi[blk] > bhi {
			phi[blk] = bhi
		}
		if plo[blk] > phi[blk] {
			return true // tightening left nothing in this tile
		}
		total = 1
		for r := 1; r < w.n; r++ {
			total *= phi[r] - plo[r] + 1
		}
		// The tile runs on pooled worker state, capturing failures the way
		// DOALL chunks do: a recorded failure stops the scheduling here and
		// re-raises after Run.
		ok := scope.run(0, ring, func(sub *env, wfr []int64) {
			p.execPlaneBox(sub, wfr, w, t, &plo, &phi, 0, total-1)
		})
		return ok && !(canceled != nil && canceled.Load())
	}
	if rs.labels {
		lbls := pprof.Labels("ps_module", en.cm.m.Name,
			"ps_step", "doacross", "ps_eqs", eqsLabel(en.cp, w.eqis))
		inner := body
		body = func(ring *obs.Ring, t int64, k int, blo, bhi int64) (ok bool) {
			pprof.Do(rs.ctx, lbls, func(context.Context) { ok = inner(ring, t, k, blo, bhi) })
			return ok
		}
	}
	completed := sched.Run(nest, rs.pool, rs.cancelChan(), body, doStats, rs.rec)
	scope.rethrow()
	if !completed {
		panic(runtimeError{err: rs.ctx.Err()})
	}
}

// ceilDiv and floorDiv divide with rounding toward +∞/−∞; b must be
// positive (π coefficients are non-negative by construction). Neither
// overflows for any a: the span splitter divides differences that may
// be near the int64 limits.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// preimage computes x = T⁻¹·xp.
func preimage(tinv [][]int64, xp, x []int64) {
	for j, row := range tinv {
		var v int64
		for r, c := range row {
			v += c * xp[r]
		}
		x[j] = v
	}
}

// advance steps the frame one point through a collapsed iteration space,
// innermost dimension fastest with carry into the outer ones. Every
// collapsed path — sequential and both chunk walkers — must move the
// frame identically, so they all share this helper.
func advance(fr []int64, dims []int, lob, hib *[plan.MaxCollapse]int64) {
	for d := len(dims) - 1; d >= 0; d-- {
		slot := dims[d]
		if fr[slot]++; fr[slot] <= hib[d] {
			return
		}
		fr[slot] = lob[d]
	}
}
