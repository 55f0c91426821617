package ps

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/interp"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/types"
)

// Runner is a prepared activation of one module: the module is
// resolved, options are merged (engine defaults first, then Prepare's),
// and every Run reuses that state. A Runner is immutable and safe for
// concurrent Run calls from many goroutines — the intended shape for a
// service handling simultaneous requests over one compiled program.
type Runner struct {
	prog *Program
	mod  *Module
	opts interp.Options
	// pool is the persistent pool serving this runner's DOALLs: the
	// engine's shared pool, or a dedicated engine-tracked pool when the
	// runner was prepared with a different worker count. nil for
	// engine-less programs (each Run then spawns a transient pool) and
	// for sequential runners.
	pool *par.Pool
	// lastTiming holds the breakdown of the most recent TraceRun, for
	// the timing line of Explain; nil until a traced run completes.
	lastTiming atomic.Pointer[TimingBreakdown]
}

// Prepare resolves the named module and fixes its execution options,
// returning a reusable Runner. Engine default options (for programs
// compiled through an Engine) are applied before opts.
//
// For engine programs the runner is bound to a persistent pool at
// Prepare time: the engine's shared pool, or — when a Workers option
// asks for a different width — a dedicated pool created once here and
// closed with the engine, so the per-Run path never pays pool setup.
func (p *Program) Prepare(module string, opts ...RunOption) (*Runner, error) {
	m := p.Module(module)
	if m == nil {
		return nil, &Error{Phase: PhaseRun, Module: module, Err: fmt.Errorf("no module %q", module)}
	}
	var o interp.Options
	if p.eng != nil {
		for _, f := range p.eng.defaults {
			f(&o)
		}
	}
	for _, f := range opts {
		f(&o)
	}
	r := &Runner{prog: p, mod: m, opts: o}
	if eng := p.eng; eng != nil && !o.Sequential {
		if o.Workers <= 0 || o.Workers == eng.pool.Workers() {
			r.pool = eng.pool
		} else {
			pool := par.NewPool(o.Workers)
			if !eng.trackPool(pool) {
				pool.Close()
				return nil, &Error{Phase: PhaseRun, Module: module, Err: errors.New("engine is closed")}
			}
			r.pool = pool
		}
	}
	return r, nil
}

// Module returns the module this runner activates.
func (r *Runner) Module() *Module { return r.mod }

// Explain renders the exact loop program this runner executes: a header
// with the execution mode (workers, grain, strictness, variant) followed
// by the lowered plan listing. It is the API form of `psrun -explain`.
func (r *Runner) Explain() string {
	var sb strings.Builder
	o := r.opts
	o.Pool = r.pool // mirror Run's pool binding for the worker count
	mode := fmt.Sprintf("%d workers", effectiveWorkers(o))
	if r.opts.Sequential {
		mode = "sequential"
	}
	if r.opts.Grain > 0 {
		mode += fmt.Sprintf(", grain %d", r.opts.Grain)
	}
	if r.opts.Strict {
		mode += ", strict"
	}
	if r.opts.NoVirtual {
		mode += ", no-virtual"
	}
	if r.opts.Hyperplane == HyperplaneOff {
		mode += ", hyperplane off"
	}
	planOpts := plan.Options{
		Fuse:          o.Fuse,
		Hyperplane:    o.EffectiveHyperplane(),
		PipelineFirst: o.EffectiveHyperplane() && o.Schedule == SchedulePipeline,
	}
	pl := r.prog.ip.Plan(r.mod.sem.Name, planOpts)
	variant := "base plan"
	if r.opts.Fuse {
		variant = "fused plan"
	}
	switch {
	case pl.HasPipeline() && pl.HasWavefront():
		variant = "auto-cascade (wavefront+pipeline) " + variant
	case pl.HasPipeline():
		variant = "auto-pipeline " + variant
	case pl.HasWavefront():
		variant = "auto-hyperplane " + variant
	}
	if r.opts.Schedule == SchedulePipeline {
		mode += ", schedule pipeline"
	}
	fmt.Fprintf(&sb, "runner %s: %s, %s\n", r.mod.Name(), mode, variant)
	// The cascade report: per eligible nest, which backend won and why
	// the earlier stages of the DOALL → wavefront → pipeline cascade
	// (reordered under SchedulePipeline) were rejected.
	if planOpts.Hyperplane {
		sb.WriteString(pl.CascadeReport())
	}
	if pl.HasWavefront() && !r.opts.Sequential {
		// The dispatch rule, evaluated for this runner's worker count and
		// grain; which side an activation lands on depends only on its
		// bounds (RunStats.DoacrossTiles is > 0 exactly when it tiled).
		workers := effectiveWorkers(o)
		if least := interp.TilePlane(workers, o.Grain); least > 0 {
			fmt.Fprintf(&sb, "wavefront dispatch: tiles when the average plane holds >= %d points (%d x %d workers), inline sweep otherwise\n",
				least, least/int64(workers), workers)
		} else {
			sb.WriteString("wavefront dispatch: inline sweep (one worker)\n")
		}
	}
	for _, ks := range r.prog.ip.Kernels(r.mod.sem.Name, planOpts) {
		if !ks.Specialized {
			fmt.Fprintf(&sb, "kernel %s (%s): generic (%s)\n", ks.Eq, ks.Target, ks.Reason)
			continue
		}
		fmt.Fprintf(&sb, "kernel %s (%s): specialized", ks.Eq, ks.Target)
		switch ks.Guards {
		case 0:
		case 1:
			sb.WriteString(", split on 1 guard")
		default:
			fmt.Fprintf(&sb, ", split on %d guards", ks.Guards)
		}
		if ks.PointWise != "" {
			fmt.Fprintf(&sb, " (point-wise: %s)", ks.PointWise)
		}
		sb.WriteString("\n")
	}
	if tb := r.lastTiming.Load(); tb != nil {
		// Present only after a TraceRun: where the workers' time went,
		// per schedule, on the most recent traced activation.
		fmt.Fprintf(&sb, "timing (last traced run): %s\n", tb)
	}
	sb.WriteString(pl.String())
	return sb.String()
}

// Run executes the module with positional arguments. Scalar arguments
// are Go ints, float64s, bools or strings; array arguments are
// *ps.Array. One value is returned per declared module result, along
// with populated RunStats (also on failure, with the counters
// accumulated up to the abort).
//
// ctx cancellation or deadline expiry aborts sequential loops within
// one iteration (an innermost single-equation DO within its one span)
// and in-flight DOALLs within one chunk; the returned
// error then satisfies errors.Is(err, ctx.Err()).
func (r *Runner) Run(ctx context.Context, args []any) ([]any, *RunStats, error) {
	o := r.opts
	var st interp.Stats
	o.Stats = &st
	if eng := r.prog.eng; eng != nil {
		if eng.closed.Load() {
			return nil, &RunStats{Workers: 1}, &Error{Phase: PhaseRun, Module: r.mod.Name(), Err: errors.New("engine is closed")}
		}
		o.Pool = r.pool
	}
	start := time.Now()
	results, err := r.prog.ip.RunCtx(ctx, r.mod.Name(), args, o)
	stats := &RunStats{
		EquationInstances:  st.EqInstances.Load(),
		DOALLChunks:        st.Chunks.Load(),
		WavefrontPlanes:    st.Planes.Load(),
		DoacrossTiles:      st.Doacross.Tiles.Load(),
		DoacrossStalls:     st.Doacross.Stalls.Load(),
		DoacrossSteals:     st.Doacross.Steals.Load(),
		PipelineStages:     st.PipelineStages.Load(),
		StageStalls:        st.PipelineStalls.Load(),
		SpecializedKernels: st.Specialized.Load(),
		ArenaReuses:        st.ArenaReuses.Load(),
		Workers:            effectiveWorkers(o),
		WallTime:           time.Since(start),
	}
	if err != nil {
		return nil, stats, runError(r.mod.Name(), err)
	}
	return results, stats, nil
}

// Args is one activation's positional argument list — the element type
// of a batch.
type Args = []any

// BatchResult is one batch element's outcome: exactly what Run would
// have returned for the same argument list. Values is nil when Err is
// non-nil.
type BatchResult struct {
	Values []any
	Err    error
}

// RunBatch executes the module once per argument set, fused into a
// single batch DOALL: the batch index becomes a synthesized outermost
// parallel dimension (it appears in no equation subscript, so batch
// elements are trivially independent under the paper's dependence
// test), and the whole batch dispatches to the worker pool as one
// parallel loop. Results are bitwise identical to len(batch)
// sequential Run calls — per element, out[i] mirrors Run(ctx,
// batch[i]) including its typed error — while plan lookup and pool
// dispatch are paid once for the batch.
// This is the serving layer's execution primitive: N pending requests
// for one prepared Runner become one activation batch.
//
// The returned RunStats aggregates the whole batch (counters summed
// over all elements, wall time for the fused dispatch). The error is
// non-nil only for whole-batch failures — a closed engine or a context
// that was already done; per-element failures land in their
// BatchResult. An empty batch returns (nil, stats, nil).
func (r *Runner) RunBatch(ctx context.Context, batch []Args) ([]BatchResult, *RunStats, error) {
	o := r.opts
	var st interp.Stats
	o.Stats = &st
	if eng := r.prog.eng; eng != nil {
		if eng.closed.Load() {
			return nil, &RunStats{Workers: 1}, &Error{Phase: PhaseRun, Module: r.mod.Name(), Err: errors.New("engine is closed")}
		}
		o.Pool = r.pool
	}
	start := time.Now()
	results, errs, err := r.prog.ip.RunBatchCtx(ctx, r.mod.Name(), batch, o)
	stats := &RunStats{
		EquationInstances:  st.EqInstances.Load(),
		DOALLChunks:        st.Chunks.Load(),
		WavefrontPlanes:    st.Planes.Load(),
		DoacrossTiles:      st.Doacross.Tiles.Load(),
		DoacrossStalls:     st.Doacross.Stalls.Load(),
		DoacrossSteals:     st.Doacross.Steals.Load(),
		PipelineStages:     st.PipelineStages.Load(),
		StageStalls:        st.PipelineStalls.Load(),
		SpecializedKernels: st.Specialized.Load(),
		ArenaReuses:        st.ArenaReuses.Load(),
		Workers:            effectiveWorkers(o),
		WallTime:           time.Since(start),
	}
	if err != nil {
		return nil, stats, runError(r.mod.Name(), err)
	}
	out := make([]BatchResult, len(batch))
	for i := range out {
		if errs[i] != nil {
			out[i].Err = runError(r.mod.Name(), errs[i])
		} else {
			out[i].Values = results[i]
		}
	}
	return out, stats, nil
}

// RunNamed executes the module with arguments keyed by parameter name,
// the natural shape for service payloads. Every declared parameter must
// be present; unknown names are rejected.
func (r *Runner) RunNamed(ctx context.Context, args map[string]any) ([]any, *RunStats, error) {
	argv, err := r.positional(args)
	if err != nil {
		return nil, &RunStats{Workers: effectiveWorkers(r.opts)}, err
	}
	return r.Run(ctx, argv)
}

// positional maps named arguments onto the module's declared parameter
// order.
func (r *Runner) positional(args map[string]any) ([]any, error) {
	params := r.mod.sem.Params
	byName := make(map[string]int, len(params))
	for i, sym := range params {
		byName[sym.Name] = i
	}
	for name := range args {
		if _, ok := byName[name]; !ok {
			return nil, &Error{Phase: PhaseRun, Module: r.mod.Name(),
				Err: fmt.Errorf("unknown argument %q", name)}
		}
	}
	argv := make([]any, len(params))
	for i, sym := range params {
		v, ok := args[sym.Name]
		if !ok {
			return nil, &Error{Phase: PhaseRun, Module: r.mod.Name(),
				Err: fmt.Errorf("missing argument %q (%s)", sym.Name, sym.Type)}
		}
		argv[i] = v
	}
	return argv, nil
}

// effectiveWorkers reports the worker count a run with these options
// uses.
func effectiveWorkers(o interp.Options) int {
	switch {
	case o.Sequential:
		return 1
	case o.Pool != nil:
		return o.Pool.Workers()
	case o.Workers > 0:
		return o.Workers
	default:
		return par.DefaultWorkers()
	}
}

// Params describes the module's declared parameters as (name, type)
// pairs in positional order — the contract RunNamed checks against.
func (r *Runner) Params() []ParamInfo {
	params := r.mod.sem.Params
	out := make([]ParamInfo, len(params))
	for i, sym := range params {
		out[i] = ParamInfo{Name: sym.Name, Type: sym.Type.String(), IsArray: types.Rank(sym.Type) > 0}
	}
	return out
}

// ParamInfo describes one declared module parameter.
type ParamInfo struct {
	Name    string
	Type    string
	IsArray bool
}
