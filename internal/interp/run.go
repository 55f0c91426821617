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
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/sem"
	"repro/internal/types"
	"repro/internal/value"
)

// Options control execution.
type Options struct {
	// Workers is the width ps.Prepare resolves into a pool (Pool); <= 0
	// asks for the engine's default. The interpreter itself never reads
	// it: a run's width is its Pool's.
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
	// points, a DOALL being one plane. It sets no tile width: tiles are
	// cut from the box and the worker count alone. <= 0 means 32.
	Grain int64
	// Pool is the worker pool whose loops run every tiled step of the
	// activation tree (through sched.Run); the run does not close it. A
	// run is parallel exactly when Pool is set and Sequential is not:
	// with no pool every step runs inline on the calling goroutine.
	Pool *sched.Pool
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
	// Chunks counts the tiles of DOALL steps run on the pool, cut as
	// tileGrid.cuts says. Wavefront tiles count in Doacross
	// instead; steps run inline contribute nothing.
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
	// ArenaReuses counts local arrays whose backing was recycled from
	// the arena instead of freshly allocated. Results are never drawn
	// from the arena.
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
	pool     *sched.Pool
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
// dispatching activation's env and frame, and the failure of the
// lowest-indexed tile that raised one.
type workerScope struct {
	en *env
	fr []int64
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
// with a lower index than tile already failed. ring is the event ring
// the sched worker running the tile owns, or nil; the body emits its
// instants there.
func (w *workerScope) run(tile int, ring *obs.Ring, body func(sub *env, wfr []int64)) (ok bool) {
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
	// single-writer: a body emits on its worker's ring.
	sub.ring = ring
	defer func() {
		if rs.stats != nil {
			rs.stats.EqInstances.Add(sub.eqCount)
			rs.stats.Specialized.Add(sub.specCount)
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
	rs, stop, err := p.newRunState(ctx, opts)
	if err != nil {
		return nil, &RunError{Module: m.Name, Err: err}
	}
	defer stop()
	return p.runModule(rs, p.mods[m], args, false, false)
}

// newRunState builds the shared execution context of one top-level
// activation and the calls it makes: the resolved context, the
// cancellation flag, and the caller's worker pool (none for a
// sequential run). The returned stop unregisters the flag's
// context.AfterFunc; call it when the run completes.
// A context that is already done is reported as an error before any
// state is created.
func (p *Program) newRunState(ctx context.Context, opts Options) (*runState, func() bool, error) {
	rs := &runState{opts: opts, ctx: ctx, stats: opts.Stats, rec: opts.Trace, labels: opts.ProfileLabels}
	if ctx == nil {
		rs.ctx = context.Background()
	} else if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if !opts.Sequential {
		rs.pool = opts.Pool
	}
	stop := func() bool { return false }
	if rs.ctx.Done() != nil {
		stop = context.AfterFunc(rs.ctx, func() { rs.canceled.Store(true) })
	}
	return rs, stop, nil
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
		// Local arrays die with the activation: recycle their backings.
		// Every parallel body has stopped by now, aborted or not. Arrays
		// the arena did not hand out (strict or NoArena runs) are left
		// alone by Release.
		if en != nil {
			for _, al := range en.cp.allocs {
				if al.local {
					p.arena.Release(en.arrays[al.si])
				}
			}
		}
	}()
	m := cm.m
	if rs.cancelled() {
		return nil, &RunError{Module: m.Name, Err: rs.ctx.Err()}
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

	fr, err := en.bind(args, true)
	if err != nil {
		return nil, err
	}

	// Allocate result and local arrays from the plan variant's
	// precomputed descriptors, honoring virtual dimensions unless
	// ablated. Results are allocated at exact size and handed to the
	// caller. Non-strict runs draw locals from the program arena,
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
		ar := arena
		if !al.local {
			ar = nil // a nil arena allocates at exact size
		}
		a, reused := ar.NewArrayIn(al.elem, axes, al.zero)
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

// bind binds an activation's arguments and evaluates every subrange
// bound once over its scalars, returning the activation's frame. Arrays
// are bound only when arrays is set (ParamAxes wants the shapes before
// the arrays exist), and each must then have exactly the bounds of its
// declared dimensions, with no window.
func (en *env) bind(args []any, arrays bool) ([]int64, error) {
	cm := en.cm
	m := cm.m
	if len(args) != len(m.Params) {
		return nil, &RunError{Module: m.Name, Err: fmt.Errorf("takes %d arguments, got %d", len(m.Params), len(args))}
	}
	for i, sym := range m.Params {
		pa := cm.params[i]
		if pa.dims != nil && !arrays {
			continue
		}
		v, err := coerceArg(args[i], sym.Type)
		if err != nil {
			return nil, &RunError{Module: m.Name, Err: fmt.Errorf("argument %d (%s): %w", i+1, sym.Name, err)}
		}
		if a, isArr := v.(*value.Array); isArr {
			en.arrays[pa.si] = a
		} else {
			en.scalars[pa.si] = v
		}
	}
	fr := make([]int64, cm.nSlots)
	en.bounds = make([][2]int64, cm.nSlots)
	k := en.checked(fr)
	for i, b := range cm.bounds {
		en.bounds[i] = [2]int64{b[0](k), b[1](k)}
	}
	if !arrays {
		return fr, nil
	}
	for i, pa := range cm.params {
		for d, slot := range pa.dims {
			ax, b := en.arrays[pa.si].Axes[d], en.bounds[slot]
			if ax.Lo != b[0] || ax.Hi != b[1] || ax.Window != 0 {
				win := ""
				if ax.Window != 0 {
					win = fmt.Sprintf(" with a window of %d", ax.Window)
				}
				return nil, &RunError{Module: m.Name, Err: fmt.Errorf("argument %d (%s): dimension %d is %d..%d%s, declared %d..%d",
					i+1, m.Params[i].Name, d+1, ax.Lo, ax.Hi, win, b[0], b[1])}
			}
		}
	}
	return fr, nil
}

// ParamAxes evaluates, with an activation's binding and bound thunks,
// the declared axes of each array parameter of the named module for the
// scalars in args (its array entries are not read); scalars get nil.
func (p *Program) ParamAxes(name string, args []any) (axes [][]value.Axis, err error) {
	m := p.Prog.Module(name)
	if m == nil {
		return nil, fmt.Errorf("interp: no module %s", name)
	}
	cm := p.mods[m]
	en := &env{cm: cm, scalars: make([]any, len(cm.syms)), arrays: make([]*value.Array, len(cm.syms))}
	defer func() {
		if r := recover(); r != nil {
			e, isRun := r.(runtimeError)
			if !isRun {
				panic(r)
			}
			axes, err = nil, &RunError{Module: m.Name, Err: e.err}
		}
	}()
	if _, err = en.bind(args, false); err != nil {
		return nil, err
	}
	axes = make([][]value.Axis, len(cm.params))
	for i, pa := range cm.params {
		for _, slot := range pa.dims {
			axes[i] = append(axes[i], value.Axis{Lo: en.bounds[slot][0], Hi: en.bounds[slot][1]})
		}
	}
	return axes, nil
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
		default: // plan.OpDoAll, plan.OpWavefront
			p.execGrid(en, fr, st, i+1)
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

// tileGrid is the resolved geometry of one parallel step's activation:
// the volume of its iteration box and the range of the coordinates s_r,
// s_r+1 the tiles cut. A wavefront's s is its skewed space, cut on both
// coordinates into a chained grid. A DOALL is the same nest with the
// identity skew and no carried dependence: s is the box itself, cut into
// independent tiles on s_r, and on s_r+1 too when s_r is short (cuts).
// The inline run is one tile covering the whole box, so it and the tile
// executor run the same walker (sweepTile).
type tileGrid struct {
	st *plan.Step
	// sk is the wavefront's skew S (Hyper.Skew); nil for a DOALL.
	sk [][]int64
	// bodyLo is the step's first body step; spans are the body spans
	// each row runs (one per equation for split rows, one of the whole
	// body for jammed rows), nil for a DOALL whose body holds loops.
	bodyLo int
	spans  []*bodySpan
	// points is the volume of the box, the activation's bounds of
	// st.Dims (env.bounds, which every tile's env shares).
	points int64
	// r skips the leading coordinates the box fixes to one value; slo,
	// shi bound s_r and s_r+1 over the box (0, 0 when a DOALL's s_r is
	// its last coordinate).
	r        int
	slo, shi [2]int64
}

// resolve fills the grid from the activation's bounds; false means some
// dimension is empty and the nest has no iterations.
func (g *tileGrid) resolve(en *env, st *plan.Step, bodyLo int) bool {
	g.st, g.bodyLo, g.spans = st, bodyLo, en.cp.spans[bodyLo-1]
	if st.Hyper != nil {
		g.sk = st.Hyper.Skew
	}
	g.points = 1
	for _, slot := range st.Dims {
		b := en.bounds[slot]
		if b[1] < b[0] {
			return false
		}
		g.points *= b[1] - b[0] + 1
	}
	last := len(st.Dims) - 1
	if g.chained() {
		last-- // a wavefront tiles two coordinates
	}
	for g.r < last && en.bounds[st.Dims[g.r]][0] == en.bounds[st.Dims[g.r]][1] {
		g.r++
	}
	for k := range min(len(g.slo), len(st.Dims)-g.r) {
		j := g.r + k
		if !g.chained() {
			b := en.bounds[st.Dims[j]]
			g.slo[k], g.shi[k] = b[0], b[1]
			continue
		}
		for i, c := range g.sk[j][:j+1] {
			b := en.bounds[st.Dims[i]]
			g.slo[k] += min(c*b[0], c*b[1])
			g.shi[k] += max(c*b[0], c*b[1])
		}
	}
	return true
}

// chained reports whether the grid is a wavefront's: its tiles wait on
// their neighbours in s_r and s_r+1.
func (g *tileGrid) chained() bool { return g.sk != nil }

// extent is the number of values s_r+k takes over the box.
func (g *tileGrid) extent(k int) int64 { return g.shi[k] - g.slo[k] + 1 }

// tiled applies TilePlane to this activation's bounds. A DOALL is one
// plane; the planes of a wavefront are the anti-diagonals of its two
// tiled coordinates at unit width, extent(0) + extent(1) − 1 of them. A
// grid of one tile, or of one chain, runs inline.
func (g *tileGrid) tiled(workers int, grain int64) bool {
	least, planes := TilePlane(workers, grain), int64(1)
	if g.chained() {
		planes = g.extent(0) + g.extent(1) - 1
	}
	return least > 0 && g.extent(0) >= 2 && (!g.chained() || g.extent(1) >= 2) &&
		g.points/planes >= least
}

// cuts gives the tile grid for a pool of workers, n[k] tiles on s_r+k
// none narrower than one value, as a pure function of the box and the
// worker count. A DOALL cuts s_r into TilesPerWorker tiles per worker
// or, when s_r is shorter, one per value and s_r+1 into the rest, so
// its tiles keep the points' order; their widths differ by at most one.
// A wavefront cuts both coordinates into tiles w[k] wide, TilesPerWorker
// per worker, but its row only once per worker: every cut there adds a
// span (its certificate and guard split) per row, and once per worker
// still keeps every worker in the pipeline.
func (g *tileGrid) cuts(workers int) (n, w [2]int64) {
	per := int64(sched.TilesPerWorker * workers)
	if !g.chained() {
		return [2]int64{min(per, g.extent(0)), min(ceilDiv(per, g.extent(0)), g.extent(1))}, w
	}
	for k := range w {
		if g.r+k == len(g.st.Dims)-1 {
			per = int64(workers)
		}
		w[k] = ceilDiv(g.extent(k), per)
		n[k] = ceilDiv(g.extent(k), w[k])
	}
	return n, w
}

// sweepTile runs every box point whose s_r lies in [tlo[0], thi[0]] and
// s_r+1 in [tlo[1], thi[1]], in skewed-lexicographic order. S is unit
// lower-triangular, so with the outer indices fixed s_j = x_j + c: each
// level is a range of x_j clipped to the box (and, for s_r and s_r+1,
// to the tile), and a tile covering the box runs the original order. A
// DOALL's c is 0.
func (p *Program) sweepTile(en *env, fr []int64, g *tileGrid, j int, tlo, thi *[2]int64) {
	slot := g.st.Dims[j]
	lo, hi := en.bounds[slot][0], en.bounds[slot][1]
	if k := j - g.r; k >= 0 && k < len(tlo) {
		var off int64
		for i := 0; g.chained() && i < j; i++ {
			off += g.sk[j][i] * fr[g.st.Dims[i]]
		}
		lo, hi = max(lo, tlo[k]-off), min(hi, thi[k]-off)
	}
	if j < len(g.st.Dims)-1 {
		for x := lo; x <= hi; x++ {
			fr[slot] = x
			p.sweepTile(en, fr, g, j+1, tlo, thi)
		}
		return
	}
	if g.spans == nil {
		// A DOALL whose body holds loops runs it at each point.
		for x := lo; x <= hi; x++ {
			en.rs.pollCancel()
			fr[slot] = x
			p.execSteps(en, fr, g.bodyLo, g.st.End)
		}
		return
	}
	en.rs.pollCancel()
	// One row: the innermost index at unit stride, as one span of every
	// equation in turn, or — when a dependence inside the row runs from a
	// later equation to an earlier one — as one span of the body, its
	// equations jammed point by point.
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

// execGrid runs one parallel step: a DOALL (§3) or a §4-restructured
// nest, as tiles of its iteration space (tileGrid). A top-level
// activation on a pool whose average plane is wide enough (tiled) hands
// the tile grid to the tile executor; everything else — one worker, a
// step inside a parallel chunk or tile, a small box — sweeps one tile
// covering the box on the calling goroutine, which is the original loop
// order.
func (p *Program) execGrid(en *env, fr []int64, st *plan.Step, bodyLo int) {
	rs := en.rs
	var g tileGrid
	if !g.resolve(en, st, bodyLo) {
		return // empty dimension: the nest has no iterations
	}
	if rs.pool != nil && !en.inParallel && g.tiled(rs.pool.Workers(), rs.opts.Grain) {
		p.execTiles(en, fr, g)
		return
	}
	if g.chained() && rs.stats != nil {
		rs.stats.Planes.Add(1)
	}
	// The sweep's span lands on the activation's ring; inside a parallel
	// chunk (or an already-open sequential span) the enclosing span
	// covers the work and nothing is emitted here.
	ring, t0 := en.beginSpan()
	p.sweepTile(en, fr, &g, 0, &g.slo, &g.shi)
	if g.chained() {
		en.endSpan(ring, obs.KPlane, t0, int64(bodyLo-1), 0)
	} else {
		en.endSpan(ring, obs.KDoAll, t0, g.points, 0)
	}
}

// execTiles runs a step's tile grid on the pool. The tiled coordinates
// are cut as cuts says. A wavefront's A × B tiles run as a chained
// sched.Grid: tile (a, b) starts once (a−1, b) and (a, b−1) are done,
// and every dependence of the skewed nest points to a tile with no
// larger coordinate, reached through that chain. A DOALL's A × B tiles
// are the columns of one unchained row, tile (a, b) its column a·B + b,
// which is the points' order. Each tile runs sweepTile over its
// rectangle, so the points, kernels and per-point order are those of the
// inline sweep, and the two are bitwise identical.
func (p *Program) execTiles(en *env, fr []int64, g tileGrid) {
	rs := en.rs
	chain := g.chained()
	n, w := g.cuts(rs.pool.Workers())
	na, nb := int(n[0]), int(n[1])
	grid, step := sched.Grid{Rows: na, Cols: nb, Chain: true}, "wavefront"
	var stats *sched.Stats
	if !chain {
		grid, step = sched.Grid{Rows: 1, Cols: na * nb}, "doall"
	} else if rs.stats != nil {
		stats = &rs.stats.Doacross
	}
	scope := workerScope{en: en, fr: fr}
	body := func(ring *obs.Ring, a, b int) bool {
		if !chain {
			a, b = b/nb, b%nb // column b of a DOALL's row is its tile a*nb+b
		} else if rs.stats != nil && (b == 0 || a == na-1) {
			// The first tile of each anti-diagonal counts it once.
			rs.stats.Planes.Add(1)
		}
		var tlo, thi [2]int64
		for k, t := range [2]int64{int64(a), int64(b)} {
			if chain {
				tlo[k], thi[k] = g.slo[k]+t*w[k], min(g.slo[k]+(t+1)*w[k]-1, g.shi[k])
			} else { // n[k] tiles, their widths differing by at most one
				tlo[k], thi[k] = g.slo[k]+t*g.extent(k)/n[k], g.slo[k]+(t+1)*g.extent(k)/n[k]-1
			}
		}
		// A DOALL tile is a chunk: it counts in Stats.Chunks and spans
		// itself as a KChunk on its worker's ring (sched spans only a
		// chained grid's tiles).
		var t0 int64
		if !chain && ring != nil {
			t0 = ring.Now()
		}
		// The tile runs on pooled worker state, which captures a failure.
		// A failed wavefront tile stops the whole grid here; DOALL tiles
		// keep running, so the failure re-raised after Run is the lowest
		// tile's, at its earliest point — the one the inline sweep meets.
		// A tile that ends with the run's context fired returns false,
		// which stops the executor claiming tiles.
		ok := scope.run(a*nb+b, ring, func(sub *env, wfr []int64) {
			p.sweepTile(sub, wfr, &g, 0, &tlo, &thi)
		})
		if !chain {
			if rs.stats != nil {
				rs.stats.Chunks.Add(1)
			}
			if ring != nil {
				points := g.points / (g.extent(0) * g.extent(1)) * (thi[0] - tlo[0] + 1) * (thi[1] - tlo[1] + 1)
				ring.Emit(obs.KChunk, t0, ring.Now()-t0, points, 0)
			}
		}
		return (ok || !chain) && !rs.cancelled()
	}
	if rs.labels {
		// CPU samples taken while a tile runs carry its module, step and
		// equations.
		lbls, unlabeled := pprof.Labels("ps_module", en.cm.m.Name,
			"ps_step", step, "ps_eqs", stepEqs(en.cp, g.bodyLo, g.st.End)), body
		body = func(ring *obs.Ring, a, b int) (ok bool) {
			pprof.Do(rs.ctx, lbls, func(context.Context) { ok = unlabeled(ring, a, b) })
			return ok
		}
	}
	completed := sched.Run(grid, rs.pool, body, stats, rs.rec)
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
