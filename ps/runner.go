package ps

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/sem"
)

// Runner is a prepared activation of one module: the module is
// resolved, options are merged (engine defaults first, then Prepare's),
// and every Run reuses that state. A Runner is immutable and safe for
// concurrent Run calls from many goroutines — the intended shape for a
// service handling simultaneous requests over one compiled program.
type Runner struct {
	prog *Program
	mod  *Module
	// opts are the merged options every run starts from; opts.Pool is
	// the engine's pool of the runner's width, which serves its tiled
	// steps. nil for sequential runners.
	opts interp.Options
	// workers is the width every run reports in RunStats.Workers and
	// Explain prints: the pool's worker count, or 1 for a sequential
	// runner. Prepare resolves it once.
	workers int
	// lastTiming holds the breakdown of the most recent TraceRun, for
	// the timing line of Explain; nil until a traced run completes.
	lastTiming atomic.Pointer[TimingBreakdown]
}

// Prepare resolves the named module and fixes its execution options,
// returning a reusable Runner. The engine's default options are applied
// before opts.
//
// A parallel runner is bound at Prepare time to the engine's pool of
// its width: the default pool, or — when a Workers option asks for a
// different width — the engine's pool of that width, started by the
// first Prepare to ask for it and shared by every later one, so the
// per-Run path never pays pool setup.
func (p *Program) Prepare(module string, opts ...RunOption) (*Runner, error) {
	m := p.Module(module)
	if m == nil {
		return nil, &Error{Phase: PhaseRun, Module: module, Err: fmt.Errorf("no module %q", module)}
	}
	eng := p.eng
	var o interp.Options
	for _, f := range eng.defaults {
		f(&o)
	}
	for _, f := range opts {
		f(&o)
	}
	r := &Runner{prog: p, mod: m, opts: o, workers: 1}
	if !o.Sequential {
		if r.opts.Pool = eng.pool(o.Workers); r.opts.Pool == nil {
			return nil, &Error{Phase: PhaseRun, Module: module, Err: errors.New("engine is closed")}
		}
		r.workers = r.opts.Pool.Workers()
	}
	return r, nil
}

// Module returns the module this runner activates.
func (r *Runner) Module() *Module { return r.mod }

// Explain renders the exact loop program this runner executes: a header
// with the execution mode (workers, grain, strictness) and the plan it
// runs — the cascade plan on a parallel runner, the base plan (the
// schedule as emitted) on a sequential one — followed by the lowered
// plan listing. It is the API form of `psrun -explain`.
func (r *Runner) Explain() string {
	var sb strings.Builder
	o := r.opts
	mode := fmt.Sprintf("%d workers", r.workers)
	if o.Sequential {
		mode = "sequential"
	}
	if o.Grain > 0 {
		mode += fmt.Sprintf(", grain %d", o.Grain)
	}
	if o.Strict {
		mode += ", strict"
	}
	if o.NoVirtual {
		mode += ", no-virtual"
	}
	planOpts := plan.Options{Hyperplane: !o.Sequential}
	pl := r.prog.ip.Plan(r.mod.sem.Name, planOpts)
	variant := "cascade plan"
	if o.Sequential {
		variant = "base plan"
	}
	fmt.Fprintf(&sb, "runner %s: %s, %s\n", r.mod.Name(), mode, variant)
	// The cascade report: per nest, which backend won and why the earlier
	// stages of the DOALL → wavefront → sequential cascade were rejected.
	if planOpts.Hyperplane {
		sb.WriteString(pl.CascadeReport())
	}
	if pl.HasParallel() && !o.Sequential {
		// The one dispatch rule of DOALL and wavefront steps, evaluated for
		// this runner's worker count and grain; which side an activation
		// lands on depends only on its bounds (RunStats.DOALLChunks and
		// DoacrossTiles count the tiles it ran).
		if least := interp.TilePlane(r.workers, o.Grain); least > 0 {
			fmt.Fprintf(&sb, "parallel dispatch: tiles when a step's average plane holds >= %d points (%d x %d workers); a DOALL is one plane",
				least, least/int64(r.workers), r.workers)
			if pl.HasWavefront() {
				sb.WriteString(", a wavefront one per anti-diagonal of its two tiled coordinates")
			}
			sb.WriteByte('\n')
		} else {
			sb.WriteString("parallel dispatch: inline (one worker)\n")
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
		switch {
		case len(ks.CopyArms) == 0:
		case ks.Guards == 0:
			sb.WriteString(", copy span")
		default:
			arms := make([]string, len(ks.CopyArms))
			for i, a := range ks.CopyArms {
				arms[i] = fmt.Sprint(a)
			}
			fmt.Fprintf(&sb, ", copy span on arm %s", strings.Join(arms, ", "))
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
// *ps.Array, each with exactly the bounds its declared dimensions take
// for the scalar arguments, and no window: any other array is refused
// before the run, with an error naming the argument and both ranges.
// One value is returned per declared module result, along with
// populated RunStats (also on failure, with the counters accumulated up
// to the abort).
//
// ctx cancellation or deadline expiry stops a leaf DO (a DO around
// equations only) before its one span, any other DO within one
// iteration, a DOALL within one row and a wavefront tile within one
// row; the returned error then satisfies
// errors.Is(err, ctx.Err()).
func (r *Runner) Run(ctx context.Context, args []any) ([]any, *RunStats, error) {
	if err := r.engineClosed(); err != nil {
		return nil, &RunStats{Workers: r.workers}, err
	}
	o := r.opts
	var st interp.Stats
	o.Stats = &st
	start := time.Now()
	results, err := r.prog.ip.RunCtx(ctx, r.mod.Name(), args, o)
	stats := newRunStats(&st, r.workers, time.Since(start))
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

// RunBatch executes the module once per argument set, one activation
// after another, each on the same path as Run with the runner's full
// inner parallelism. Per element, out[i] mirrors Run(ctx, batch[i]) —
// bitwise identical values, the same typed error — and one failing
// element never disturbs the others. The serving layer does not use it:
// a served request is one Run.
//
// The returned RunStats aggregates the whole batch (counters summed
// over all elements, wall time for the whole batch). The error is
// non-nil only for whole-batch failures — a closed engine or a context
// that was already done; per-element failures land in their
// BatchResult, and a cancellation mid-batch fails the element in flight
// and every later one with ctx.Err(). An empty batch returns an empty
// result list.
func (r *Runner) RunBatch(ctx context.Context, batch []Args) ([]BatchResult, *RunStats, error) {
	if err := r.engineClosed(); err != nil {
		return nil, &RunStats{Workers: r.workers}, err
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, &RunStats{Workers: r.workers}, runError(r.mod.Name(), &interp.RunError{Module: r.mod.Name(), Err: ctx.Err()})
	}
	o := r.opts
	var st interp.Stats
	o.Stats = &st
	start := time.Now()
	out := make([]BatchResult, len(batch))
	for i, args := range batch {
		values, err := r.prog.ip.RunCtx(ctx, r.mod.Name(), args, o)
		if err != nil {
			out[i].Err = runError(r.mod.Name(), err)
		} else {
			out[i].Values = values
		}
	}
	return out, newRunStats(&st, r.workers, time.Since(start)), nil
}

// RunNamed executes the module with arguments keyed by parameter name,
// the natural shape for service payloads. Every declared parameter must
// be present and every name must be a declared parameter; the values
// then follow Run's rules.
func (r *Runner) RunNamed(ctx context.Context, args map[string]any) ([]any, *RunStats, error) {
	argv, err := positional(r.mod, args)
	if err != nil {
		return nil, &RunStats{Workers: r.workers}, err
	}
	return r.Run(ctx, argv)
}

// positional orders named arguments by the module's declared
// parameters, refusing a missing parameter and an undeclared name. It
// binds RunNamed's arguments and ArgsFromJSON's inputs alike.
func positional[V any](m *Module, named map[string]V) ([]V, error) {
	params := m.sem.Params
	argv := make([]V, len(params))
	for i, sym := range params {
		v, ok := named[sym.Name]
		if !ok {
			return nil, &Error{Phase: PhaseRun, Module: m.Name(),
				Err: fmt.Errorf("missing argument %q (%s)", sym.Name, sym.Type)}
		}
		argv[i] = v
	}
	if len(named) > len(params) {
		for name := range named {
			if !slices.ContainsFunc(params, func(sym *sem.Symbol) bool { return sym.Name == name }) {
				return nil, &Error{Phase: PhaseRun, Module: m.Name(), Err: fmt.Errorf("unknown argument %q", name)}
			}
		}
	}
	return argv, nil
}

// engineClosed returns the typed error of a run on a closed engine, or
// nil while the engine is open.
func (r *Runner) engineClosed() error {
	if r.prog.eng.closed.Load() {
		return &Error{Phase: PhaseRun, Module: r.mod.Name(), Err: errors.New("engine is closed")}
	}
	return nil
}
