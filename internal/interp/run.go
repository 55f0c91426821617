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
	// Workers is the worker count of DOALL and wavefront steps; <= 0 uses
	// all CPUs.
	Workers int
	// Sequential forces every loop — including DOALLs — to run serially
	// (the baseline an iterative-only scheduler would produce), and
	// selects the plan the run executes. Parallel runs execute the
	// cascade plan, in which §5 fusion merges nests where the merge
	// yields a parallel step and eligible sequential loop nests become §4
	// wavefronts; sequential runs keep the schedule as emitted (the
	// sweep's bounding box and guards only pay off when planes run on
	// workers, and a fused sequential nest gains no parallel step), which
	// doubles as the parity reference. Selection deliberately ignores the
	// effective worker count so the variant a runner executes — and
	// Explain reports — is deterministic across hosts.
	Sequential bool
	// Strict enables single-assignment and undefined-read checking.
	Strict bool
	// NoVirtual disables window allocation, physically allocating every
	// dimension (the ablation baseline for §3.4).
	NoVirtual bool
	// Grain is the g of the one dispatch rule (TilePlane): a DOALL or
	// wavefront step tiles when its average plane holds g × workers
	// points, a DOALL being one plane. It is also the minimum tile width
	// of a DOALL's linear index; wavefront tiles are cut from the box
	// alone. <= 0 means 32.
	Grain int64
	// Pool, when non-nil, is a shared worker pool whose loops run every
	// tiled step of the activation tree (through internal/sched) instead
	// of a pool spawned per activation. The run does not close it, and its
	// worker count takes precedence over Workers.
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
	// DO nests, chunks, inline wavefront sweeps, tiles, stalls, ...) on
	// per-worker rings as the run executes. nil tracing costs one branch
	// per emission site.
	Trace *obs.Recorder
	// ProfileLabels wraps dispatched work in runtime/pprof label sets
	// (ps_module, ps_step, ps_eqs) so CPU profiles attribute samples to
	// the source equations each worker was executing.
	ProfileLabels bool
}

// Stats accumulates per-run execution counters. The counters are updated
// atomically, so one Stats value may observe a run whose DOALLs execute
// on many workers; nested module calls accumulate into the same Stats.
type Stats struct {
	// EqInstances counts equation instances executed (one per evaluation
	// of one equation at one index point).
	EqInstances atomic.Int64
	// Chunks counts the tiles of DOALL steps and batch axes run on the
	// pool. Wavefront tiles count in Doacross instead; steps run inline
	// contribute nothing.
	Chunks atomic.Int64
	// Planes counts the planes wavefront steps launched — the
	// anti-diagonals of a tiled nest's tile grid, or 1 for a nest swept
	// inline — so wavefront work stays distinguishable from plain DOALL
	// chunking.
	Planes atomic.Int64
	// Doacross accumulates the tile executor's counters over wavefront
	// grids: the tiles run, stalls (parked waits on a tile's
	// predecessors) and steals. All zero when every wavefront swept
	// inline.
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
// (one plan per execution mode) that Run executes.
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

// Plan returns the lowered loop program for a module with or without the
// cascade (opts.Hyperplane). It is nil for unknown modules. Where the
// cascade neither fuses nor wavefronts a nest, both settings return the
// one cascade-lowered program, so its Cascade is set either way.
func (p *Program) Plan(name string, opts plan.Options) *plan.Program {
	m := p.Prog.Module(name)
	if m == nil {
		return nil
	}
	cm := p.mods[m]
	if cm == nil {
		return nil
	}
	return cm.variant(opts.Hyperplane).pl
}

// runState is the execution context shared by a root activation and
// every nested module call it makes: options, the worker pool, the
// cancellation signal and the statistics sink.
type runState struct {
	opts Options
	ctx  context.Context
	// canceled is set once ctx is done (by context.AfterFunc). Loops
	// poll this flag (a plain atomic load) instead of calling ctx.Err()
	// on hot paths, and tile bodies return false on it: it is how a
	// cancellation reaches the tile executor.
	canceled atomic.Bool
	stats    *Stats
	pool     *par.Pool
	// rec is the run's event recorder (Options.Trace); nil disables
	// tracing. labels mirrors Options.ProfileLabels.
	rec    *obs.Recorder
	labels bool
}

// cancelled reports whether the run's context has fired.
func (rs *runState) cancelled() bool { return rs.canceled.Load() }

// pollCancel raises the run's cancellation as a runtimeError once its
// context has fired: the check every loop makes per iteration, row or
// span.
func (rs *runState) pollCancel() {
	if rs.canceled.Load() {
		panic(runtimeError{err: rs.ctx.Err()})
	}
}

// env is the runtime state of one module activation.
type env struct {
	cm *compiledModule
	// cp is the plan this activation executes (cascade or not).
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

// workerState is pooled per-tile execution state: a private env copy
// and index frame reused across dispatches instead of allocated per
// tile.
type workerState struct {
	en env
	fr []int64
}

// workerScope is what the bodies of one parallel dispatch share: the
// dispatching activation's env and frame, whether a body is a pool
// chunk, and the failure of the lowest-indexed tile that raised one.
type workerScope struct {
	en *env
	fr []int64
	// chunk is set for DOALL tiles: each body then counts in
	// Stats.Chunks and, when tracing, emits a KChunk span on a ring of
	// its own (their sched.Run records nothing). Wavefront tiles leave it
	// unset: sched.Run records their spans on its own rings.
	chunk bool
	// mu guards panicked, the failure kept, and failAt, its tile.
	mu       sync.Mutex
	failAt   int
	panicked any
}

// run executes body on pooled worker state — a private env copy and
// index frame borrowed from cm.ws instead of allocated per body — with
// the frame starting at the dispatcher's coordinates. The copy's
// instance counters start at zero and are flushed into the run's Stats
// when body returns or fails. A failure (runtimeError, value.Error or a
// foreign panic) is reported as false and kept, for rethrow on the
// dispatching goroutine after every body has stopped, unless a tile
// with a lower index than tile already failed. ring is
// the event ring the body's executor already owns on this goroutine (a
// sched worker's, for tiles), or nil; the body emits its instants there.
func (w *workerScope) run(tile int, points int64, ring *obs.Ring, body func(sub *env, wfr []int64)) (ok bool) {
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
			w.mu.Lock()
			if w.panicked == nil || tile < w.failAt {
				w.panicked, w.failAt = r, tile
			}
			w.mu.Unlock()
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

// RunCtx is Run with a context: cancellation or deadline expiry stops a
// leaf DO before its one span, any other DO within one iteration, and a
// DOALL or wavefront tile within one row, returning a *RunError wrapping
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
	return p.keep(p.runModule(rs, p.mods[m], args, false, false))
}

// keep hands a top-level activation's result arrays to the caller for
// good, taking them off the arena's books.
func (p *Program) keep(results []any, err error) ([]any, error) {
	for _, r := range results {
		if a, ok := r.(*value.Array); ok {
			p.arena.Keep(a)
		}
	}
	return results, err
}

// newRunState builds the shared execution context of one activation (or
// one batch of activations): the resolved context, the cancellation
// flag, and the worker pool. The returned cleanup unregisters the flag's
// context.AfterFunc and closes a run-owned pool; call it when the run
// completes.
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
	if rs.ctx.Done() != nil {
		stop := context.AfterFunc(rs.ctx, func() { rs.canceled.Store(true) })
		cleanups = append(cleanups, func() { stop() })
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
		// Local arrays die with the activation, and a failed one's results
		// with it: recycle their backings. (A local slot holding a callee's
		// result array is still the only live reference — callee results
		// transfer ownership.) A completed activation's results are never
		// released here; their owner is the caller. Every parallel body
		// has stopped by now, aborted or not. Arrays the arena did not hand
		// out (strict or NoArena runs) are left alone by Release.
		if en != nil {
			for _, al := range en.cp.allocs {
				if al.local || err != nil {
					p.arena.Release(en.arrays[al.si])
				}
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
		cp:         cm.variant(!opts.Sequential),
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
// is the paper's §3 iterative loop around its equations: its whole range
// is one span of its body, ascending by one, each point running the
// equations in body order, which the span executor certifies once and
// runs store-before-next-read, so reads carried along the loop see
// exactly the point-wise program order.
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
	if st.Leaf {
		if b[1] < b[0] {
			return
		}
		en.rs.pollCancel()
		fr[slot] = b[0]
		en.cp.spans[self][0].span(en, fr, b[1]-b[0]+1)
		fr[slot] = b[1]
		return
	}
	for v := b[0]; v <= b[1]; v++ {
		en.rs.pollCancel()
		fr[slot] = v
		p.execSteps(en, fr, self+1, st.End)
	}
}

// execDoAll runs one (pre-collapsed) DOALL step: the plan has already
// flattened directly nested parallel loops into one linear iteration
// space 0..total−1. A DOALL is one plane with no carried dependence, so
// it dispatches by the wavefront's rule (TilePlane) with planes = 1: a
// top-level step on a pool of W > 1 workers whose points reach g × W
// runs as one row of tiles of that linear index on the executor
// (internal/sched); anything smaller, or inside a parallel chunk, tile
// or batch element, runs on the calling goroutine as one KDoAll span.
// Both sides walk the space with walkDoAll.
func (p *Program) execDoAll(en *env, fr []int64, st *plan.Step, bodyLo int) {
	rs := en.rs
	var lob, hib [plan.MaxCollapse]int64
	total := int64(1)
	for d, slot := range st.Dims {
		b := en.bounds[slot]
		if b[1] < b[0] {
			return // empty dimension: no equation instances at all
		}
		lob[d], hib[d] = b[0], b[1]
		total *= b[1] - b[0] + 1
	}
	least := int64(0)
	if rs.pool != nil && !en.inParallel {
		least = TilePlane(rs.pool.Workers(), rs.opts.Grain)
	}
	if least == 0 || total < least {
		ring, t0 := en.beginSpan()
		p.walkDoAll(en, fr, st, bodyLo, &lob, &hib, 0, total-1)
		en.endSpan(ring, obs.KDoAll, t0, total, 0)
		return
	}

	// The linear index is one row of independent tiles, each on pooled
	// worker state (env + frame) and counted as a chunk. A tile that
	// fails leaves the others running, so the failure re-raised on the
	// caller is the lowest tile's, at the earliest failing point of the
	// linear index — the one the inline walk meets. A tile that ends
	// with the run's context fired returns false, which stops the
	// executor claiming tiles.
	cols, w := sched.Cut(total, sched.TilesPerWorker*int64(rs.pool.Workers()), rs.opts.Grain)
	scope := workerScope{en: en, fr: fr, chunk: true}
	body := func(_ *obs.Ring, _, b int) bool {
		lo := int64(b) * w
		hi := min(lo+w, total) - 1
		scope.run(b, hi-lo+1, nil, func(sub *env, wfr []int64) {
			p.walkDoAll(sub, wfr, st, bodyLo, &lob, &hib, lo, hi)
		})
		return !rs.cancelled()
	}
	if rs.labels {
		body = labeled(rs, body, pprof.Labels(
			"ps_module", en.cm.m.Name, "ps_step", "doall", "ps_eqs", stepEqs(en.cp, bodyLo, st.End)))
	}
	completed := sched.Run(sched.Grid{Rows: 1, Cols: cols}, rs.pool, body, nil, nil)
	scope.rethrow()
	if !completed {
		panic(runtimeError{err: rs.ctx.Err()})
	}
}

// walkDoAll runs the linear indices [start, end] of a collapsed DOALL
// step (box lob..hib over st.Dims, innermost dimension fastest) on en:
// it decomposes start into the frame once, then advances it
// odometer-style — no div/mod per point. A leaf body hands its kernels
// row spans clipped to [start, end] instead of re-entering the step
// dispatcher per point. Cancellation is polled per row (leaf) or point.
func (p *Program) walkDoAll(en *env, fr []int64, st *plan.Step, bodyLo int, lob, hib *[plan.MaxCollapse]int64, start, end int64) {
	dims := st.Dims
	ndim := len(dims)
	rem := start
	for d := ndim - 1; d >= 0; d-- {
		n := hib[d] - lob[d] + 1
		fr[dims[d]] = lob[d] + rem%n
		rem /= n
	}
	if !st.Leaf {
		for li := start; ; li++ {
			en.rs.pollCancel()
			p.execSteps(en, fr, bodyLo, st.End)
			if li == end {
				return
			}
			advance(fr, dims, lob, hib)
		}
	}
	spans := en.cp.spans[bodyLo-1]
	inner := dims[ndim-1]
	for li := start; ; {
		en.rs.pollCancel()
		seg := min(hib[ndim-1]-fr[inner]+1, end-li+1)
		for _, b := range spans {
			b.span(en, fr, seg)
		}
		if li += seg; li > end {
			return
		}
		// The span restored the innermost coordinate; jump it to the row
		// end so advance carries into the outer dims.
		fr[inner] += seg - 1
		advance(fr, dims, lob, hib)
	}
}

// labeled wraps a tile body in a pprof label set so CPU samples taken
// while it runs carry the executing module/step/equations.
func labeled(rs *runState, body sched.Body, lbls pprof.LabelSet) sched.Body {
	return func(ring *obs.Ring, a, b int) (ok bool) {
		pprof.Do(rs.ctx, lbls, func(context.Context) { ok = body(ring, a, b) })
		return ok
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

// wfGrid is the resolved geometry of one wavefront activation: the
// original iteration box and the range of the two skewed coordinates
// s_r, s_r+1 the tiles cut. The inline sweep is one tile covering the
// whole box, so it and the tile executor run the same walker (sweepTile).
type wfGrid struct {
	st *plan.Step
	// sk is the step's skew S (Hyper.Skew).
	sk [][]int64
	// bodyLo is the step's first body step; spans are the body spans
	// each row runs (one per equation for split rows, one of the whole
	// body for jammed rows).
	bodyLo int
	spans  []*bodySpan
	// lo, hi is the original iteration box.
	lo, hi [plan.MaxCollapse]int64
	// r skips the leading coordinates the box fixes to one value; slo,
	// shi bound s_r and s_r+1 over the box.
	r        int
	slo, shi [2]int64
}

// resolve fills the grid from the activation's bounds; false means some
// dimension is empty and the nest has no iterations.
func (g *wfGrid) resolve(en *env, st *plan.Step, bodyLo int) bool {
	g.st, g.sk = st, st.Hyper.Skew
	g.bodyLo, g.spans = bodyLo, en.cp.spans[bodyLo-1]
	for j, slot := range st.Dims {
		b := en.bounds[slot]
		if b[1] < b[0] {
			return false
		}
		g.lo[j], g.hi[j] = b[0], b[1]
	}
	for g.r < len(st.Dims)-2 && g.lo[g.r] == g.hi[g.r] {
		g.r++
	}
	for k := range g.slo {
		for j, c := range g.sk[g.r+k][:g.r+k+1] {
			g.slo[k] += min(c*g.lo[j], c*g.hi[j])
			g.shi[k] += max(c*g.lo[j], c*g.hi[j])
		}
	}
	return true
}

// extent is the number of values s_r+k takes over the box.
func (g *wfGrid) extent(k int) int64 { return g.shi[k] - g.slo[k] + 1 }

// tiled applies TilePlane to this activation's bounds. The planes of a
// wavefront are the anti-diagonals of its two tiled coordinates at unit
// width, extent(0) + extent(1) − 1 of them; a grid of one chain runs
// inline.
func (g *wfGrid) tiled(workers int, grain int64) bool {
	least := TilePlane(workers, grain)
	if least == 0 || g.extent(0) < 2 || g.extent(1) < 2 {
		return false
	}
	points := int64(1)
	for j := range g.st.Dims {
		points *= g.hi[j] - g.lo[j] + 1
	}
	return points/(g.extent(0)+g.extent(1)-1) >= least
}

// tileWidths cuts the two tiled coordinates for a pool of workers, none
// narrower than one coordinate value: each into TilesPerWorker tiles per
// worker, except the innermost coordinate. There the tiled coordinate
// is the row itself, and every cut adds a span (its certificate and
// guard split) per row; it is cut once per worker, the fewest tiles that
// still keep every worker in the pipeline. It is a pure function of the
// box and the worker count.
func (g *wfGrid) tileWidths(workers int) (w [2]int64) {
	for k := range w {
		per := int64(sched.TilesPerWorker * workers)
		if g.r+k == len(g.st.Dims)-1 {
			per = int64(workers)
		}
		w[k] = (g.extent(k) + per - 1) / per
	}
	return w
}

// sweepTile runs every box point whose s_r lies in [tlo[0], thi[0]] and
// s_r+1 in [tlo[1], thi[1]], in skewed-lexicographic order. S is unit
// lower-triangular, so with the outer indices fixed s_j = x_j + c: each
// level is a range of x_j clipped to the box (and, for s_r and s_r+1,
// to the tile), and a tile covering the box runs the original order.
func (p *Program) sweepTile(en *env, fr []int64, g *wfGrid, j int, tlo, thi *[2]int64) {
	lo, hi := g.lo[j], g.hi[j]
	if k := j - g.r; k >= 0 && k < len(tlo) {
		var off int64
		for i := 0; i < j; i++ {
			off += g.sk[j][i] * fr[g.st.Dims[i]]
		}
		lo, hi = max(lo, tlo[k]-off), min(hi, thi[k]-off)
	}
	if j < len(g.st.Dims)-1 {
		slot := g.st.Dims[j]
		for x := lo; x <= hi; x++ {
			fr[slot] = x
			p.sweepTile(en, fr, g, j+1, tlo, thi)
		}
		return
	}
	en.rs.pollCancel()
	// One row: the innermost index at unit stride, as one span of every
	// equation in turn, or — when a dependence inside the row runs from a
	// later equation to an earlier one — as one span of the body, its
	// equations jammed point by point.
	slot := g.st.Dims[j]
	fr[slot] = lo
	for _, b := range g.spans {
		b.span(en, fr, hi-lo+1)
	}
}

// minTilePlane is g of the dispatch rule when the caller set no grain:
// below 32 points per plane and worker, starting workers and claiming
// tiles costs more than the plane's kernel work.
const minTilePlane = 32

// TilePlane is the dispatch rule of every parallel step, a pure
// function of the run's worker count and grain: it returns the smallest
// average plane (points / planes of the activation's iteration box; a
// DOALL is one plane, a wavefront has one per anti-diagonal of its two
// tiled coordinates) that runs on the tile executor, g × workers, where
// g is grain when the caller set one and minTilePlane otherwise. 0 means
// the run never tiles — one worker has nothing to overlap. Smaller steps
// run inline on the calling goroutine.
func TilePlane(workers int, grain int64) int64 {
	if workers <= 1 {
		return 0
	}
	if grain <= 0 {
		grain = minTilePlane
	}
	return grain * int64(workers)
}

// execWavefront runs one §4-restructured nest as tiles of skewed
// iteration space (plan.Hyper). A top-level activation on a pool whose
// average plane is wide enough (tiled) hands the tile grid to the tile
// executor; everything else — one worker, a nest inside a parallel chunk
// or batch element, a small box — sweeps one tile covering the box on
// the calling goroutine, which is the original loop order.
func (p *Program) execWavefront(en *env, fr []int64, st *plan.Step, bodyLo int) {
	rs := en.rs
	var g wfGrid
	if !g.resolve(en, st, bodyLo) {
		return // empty dimension: the nest has no iterations
	}
	if rs.pool != nil && !en.inParallel && g.tiled(rs.pool.Workers(), rs.opts.Grain) {
		p.execWavefrontTiles(en, fr, &g)
		return
	}
	if rs.stats != nil {
		rs.stats.Planes.Add(1)
	}
	// The sweep's span lands on the activation's ring; inside a parallel
	// chunk (or an already-open sequential span) the enclosing span
	// covers the work and nothing is emitted here.
	ring, t0 := en.beginSpan()
	p.sweepTile(en, fr, &g, 0, &g.slo, &g.shi)
	en.endSpan(ring, obs.KPlane, t0, int64(bodyLo-1), 0)
}

// execWavefrontTiles runs a wavefront nest's tile grid on the pool. The
// tiled coordinates s_r, s_r+1 are cut into A × B tiles (tileWidths),
// run as a chained sched.Grid: tile (a, b) starts once (a−1, b) and
// (a, b−1) are done, and every dependence of the skewed nest points to
// a tile with no larger coordinate, reached through that chain. Each
// tile runs sweepTile over its rectangle, so the points, kernels and
// per-point order are those of the inline sweep, and the two are
// bitwise identical.
func (p *Program) execWavefrontTiles(en *env, fr []int64, g *wfGrid) {
	rs := en.rs
	w := g.tileWidths(rs.pool.Workers())
	na := int((g.extent(0) + w[0] - 1) / w[0])
	nb := int((g.extent(1) + w[1] - 1) / w[1])
	var stats *sched.Stats
	if rs.stats != nil {
		stats = &rs.stats.Doacross
	}
	scope := workerScope{en: en, fr: fr}
	body := func(ring *obs.Ring, a, b int) bool {
		if rs.stats != nil && (b == 0 || a == na-1) {
			// The first tile of each anti-diagonal counts it once.
			rs.stats.Planes.Add(1)
		}
		tlo := [2]int64{g.slo[0] + int64(a)*w[0], g.slo[1] + int64(b)*w[1]}
		thi := [2]int64{min(tlo[0]+w[0]-1, g.shi[0]), min(tlo[1]+w[1]-1, g.shi[1])}
		// The tile runs on pooled worker state, capturing failures the way
		// DOALL tiles do; a recorded failure stops the whole grid here and
		// re-raises after Run.
		ok := scope.run(a*nb+b, 0, ring, func(sub *env, wfr []int64) {
			p.sweepTile(sub, wfr, g, 0, &tlo, &thi)
		})
		return ok && !rs.cancelled()
	}
	if rs.labels {
		body = labeled(rs, body, pprof.Labels("ps_module", en.cm.m.Name,
			"ps_step", "wavefront", "ps_eqs", stepEqs(en.cp, g.bodyLo, g.st.End)))
	}
	completed := sched.Run(sched.Grid{Rows: na, Cols: nb, Chain: true}, rs.pool, body, stats, rs.rec)
	scope.rethrow()
	if !completed {
		panic(runtimeError{err: rs.ctx.Err()})
	}
}

// ceilDiv and floorDiv divide with rounding toward +∞/−∞; b must be
// positive. Neither overflows for any a: the span splitter divides
// differences that may be near the int64 limits.
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

// advance steps the frame one point through a collapsed iteration space,
// innermost dimension fastest with carry into the outer ones.
func advance(fr []int64, dims []int, lob, hib *[plan.MaxCollapse]int64) {
	for d := len(dims) - 1; d >= 0; d-- {
		slot := dims[d]
		if fr[slot]++; fr[slot] <= hib[d] {
			return
		}
		fr[slot] = lob[d]
	}
}
