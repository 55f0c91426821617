package psgen

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/sem"
	"repro/internal/value"
	"repro/ps"
)

// Options configure one differential check.
type Options struct {
	// CC is the C compiler path; "" skips the C parity leg.
	CC string
	// OpenMP also compiles the C leg with -fopenmp.
	OpenMP bool
	// Timeout is the per-run watchdog (default 10s). A run that
	// neither finishes nor honours cancellation within 2×Timeout is
	// reported as a hang.
	Timeout time.Duration
	// Quick restricts the variant matrix to one row per executor path
	// (the fuzz-engine configuration, where throughput buys coverage).
	Quick bool
}

// Finding is one divergence, invariant violation, panic or hang.
type Finding struct {
	Stage   string // "compile", "run", "compare", "stats", "cc", "hang"
	Variant string
	Detail  string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s: %s", f.Stage, f.Variant, f.Detail)
}

// Outcome is the result of checking one generated program: which
// cascade backends its lowering reached, which kernel paths its runs
// took, and every divergence found.
type Outcome struct {
	Spec Spec
	// Backends marks cascade backends this program's lowering reached:
	// "doall", "wavefront", "multi-wavefront", "sequential-reject", the
	// fusion step's "fused", plus the runtime-observed "doacross".
	Backends map[string]bool
	// SpecFallback reports that a non-strict parallel run executed at
	// least one equation instance on the generic checked kernel.
	SpecFallback bool
	// Specialized reports that a non-strict run executed at least one
	// equation instance on the direct kernels.
	Specialized bool
	// Jammed reports that a lowered plan runs a body of two or more
	// equations as one span (a leaf DO or jammed wavefront rows), which
	// the sequential reference or the cascade rows then executed.
	Jammed bool
	// Copied and Fused report that a run executed direct kernels of a
	// program whose spans hold a copy arm (Program.Kernels' CopyArms) or
	// whose direct kernels hold a fused node (a closure inlining a read,
	// literal or scalar operand).
	Copied, Fused bool
	Findings      []Finding
}

// Failed reports whether any finding was recorded.
func (o *Outcome) Failed() bool { return len(o.Findings) > 0 }

func (o *Outcome) addf(stage, variant, format string, args ...any) {
	o.Findings = append(o.Findings, Finding{Stage: stage, Variant: variant, Detail: fmt.Sprintf(format, args...)})
}

// variant is one row of the execution matrix.
type variant struct {
	name   string
	opts   []ps.RunOption
	traced bool
	strict bool // SpecializedKernels must be 0
	planes bool // wavefront tile-grid invariant applies
	// tiles marks a Grain(1) row: the wavefront nest runs on the tile
	// executor exactly when its average plane holds one point per worker
	// (the dispatch rule at g = 1).
	tiles bool
}

// The reference implementations the ablation rows diff against are
// interp.Options fields, not exported run options: noSpec runs every span
// on the checked kernels, noVirtual allocates every §3.4 window
// physically, and noArena allocates fresh zeroed storage for every
// activation array instead of recycling arena backings.
var (
	noSpec    = ps.RunOption(func(o *interp.Options) { o.NoSpecialize = true })
	noVirtual = ps.RunOption(func(o *interp.Options) { o.NoVirtual = true })
	noArena   = ps.RunOption(func(o *interp.Options) { o.NoArena = true })
)

// matrix builds the variant rows. The first row is always the
// sequential reference; the second, seq-nospec, runs the same plan on
// the checked kernels alone, so the span kernels the reference reaches
// are themselves diffed against a point-wise evaluation.
func matrix(quick bool) []variant {
	if quick {
		return []variant{
			{name: "seq", opts: []ps.RunOption{ps.Sequential()}},
			{name: "seq-nospec", opts: []ps.RunOption{ps.Sequential(), noSpec}, strict: true},
			{name: "w2", opts: []ps.RunOption{ps.Workers(2)}, planes: true},
			{name: "w2-doacross", opts: []ps.RunOption{ps.Workers(2), ps.Grain(1)}, tiles: true},
			{name: "w2-strict", opts: []ps.RunOption{ps.Workers(2), ps.Strict()}, strict: true},
			{name: "w2-traced", opts: []ps.RunOption{ps.Workers(2)}, traced: true},
		}
	}
	return []variant{
		{name: "seq", opts: []ps.RunOption{ps.Sequential()}},
		{name: "seq-nospec", opts: []ps.RunOption{ps.Sequential(), noSpec}, strict: true},
		{name: "w1", opts: []ps.RunOption{ps.Workers(1)}},
		{name: "w2", opts: []ps.RunOption{ps.Workers(2)}, planes: true},
		{name: "w4", opts: []ps.RunOption{ps.Workers(4)}, planes: true},
		{name: "w2-doacross", opts: []ps.RunOption{ps.Workers(2), ps.Grain(1)}, planes: true, tiles: true},
		{name: "w4-doacross", opts: []ps.RunOption{ps.Workers(4), ps.Grain(1)}, planes: true, tiles: true},
		{name: "w2-strict", opts: []ps.RunOption{ps.Workers(2), ps.Strict()}, strict: true},
		{name: "w2-nospec", opts: []ps.RunOption{ps.Workers(2), noSpec}, strict: true},
		{name: "w2-noarena", opts: []ps.RunOption{ps.Workers(2), noArena}},
		{name: "w2-novirtual", opts: []ps.RunOption{ps.Workers(2), noVirtual}},
		{name: "seq-traced", opts: []ps.RunOption{ps.Sequential()}, traced: true},
		{name: "w2-traced", opts: []ps.RunOption{ps.Workers(2)}, traced: true},
		{name: "w2-doacross-traced", opts: []ps.RunOption{ps.Workers(2), ps.Grain(1)}, traced: true, tiles: true},
	}
}

// runResult is one watched run.
type runResult struct {
	out   []any
	stats *ps.RunStats
	err   error
	hang  bool
}

// watchedRun executes one variant under the per-run watchdog. A run
// that ignores cancellation past the grace period is abandoned (its
// goroutine leaks — the caller reports the hang and moves on).
func watchedRun(ctx context.Context, prog *ps.Program, v variant, args []any, timeout time.Duration) runResult {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	done := make(chan runResult, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- runResult{err: fmt.Errorf("panic: %v", p)}
			}
		}()
		run, err := prog.Prepare(ModuleName, v.opts...)
		if err != nil {
			done <- runResult{err: err}
			return
		}
		var r runResult
		if v.traced {
			r.out, r.stats, _, r.err = run.TraceRun(rctx, args)
		} else {
			r.out, r.stats, r.err = run.Run(rctx, args)
		}
		done <- r
	}()
	select {
	case r := <-done:
		return r
	case <-time.After(2 * timeout):
		return runResult{hang: true}
	}
}

// Check generates, lowers, runs and cross-checks one spec. It never
// returns a Go error: every failure mode is a Finding so campaigns can
// aggregate.
func Check(ctx context.Context, sp Spec, o Options) *Outcome {
	out := &Outcome{Spec: sp, Backends: map[string]bool{}}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	src := sp.Render()

	// One engine serves every row; it is closed once every row has
	// returned. A row reported as a hang leaks it, as it leaks the
	// row's goroutine.
	eng := ps.NewEngine(ps.EngineWorkers(2))
	hung := false
	defer func() {
		if !hung {
			eng.Close()
		}
	}()
	prog, err := eng.Compile("psgen.ps", src)
	if err != nil {
		out.addf("compile", "-", "%v", err)
		return out
	}

	fe, perr := frontend(src)
	if perr != nil {
		out.addf("compile", "cascade", "%v", perr)
		return out
	}
	pl := plan.Lower(fe.mod, fe.schd, plan.Options{Hyperplane: true})
	classify(pl, out)
	copies, fused, err := kernelPaths(fe)
	if err != nil {
		out.addf("compile", "kernels", "%v", err)
	}
	out.Jammed = jammed(pl) || jammed(plan.Lower(fe.mod, fe.schd, plan.Options{}))
	if err := plan.VerifyTiles(pl, fe.graph); err != nil {
		out.addf("verify", "cascade", "%v", err)
	}

	args := sp.Inputs()
	rows := matrix(o.Quick)
	ref := watchedRun(ctx, prog, rows[0], args, o.Timeout)
	switch {
	case ref.hang:
		hung = true
		out.addf("hang", rows[0].name, "sequential reference did not finish in %s", 2*o.Timeout)
		return out
	case ref.err != nil:
		out.addf("run", rows[0].name, "%v", ref.err)
		return out
	}

	skew := wavefrontSkew(&sp, pl)
	for _, v := range rows[1:] {
		if ctx.Err() != nil {
			return out
		}
		r := watchedRun(ctx, prog, v, args, o.Timeout)
		switch {
		case r.hang:
			hung = true
			out.addf("hang", v.name, "run did not finish in %s", 2*o.Timeout)
			continue
		case r.err != nil:
			out.addf("run", v.name, "%v", r.err)
			continue
		}
		if diff := compareResults(ref.out, r.out); diff != "" {
			out.addf("compare", v.name, "diverges from sequential reference: %s", diff)
		}
		checkStats(out, &sp, v, ref.stats, r.stats, skew)
		if r.stats.DoacrossTiles > 0 {
			out.Backends["doacross"] = true
		}
		if !v.strict && r.stats.SpecializedKernels < r.stats.EquationInstances {
			out.SpecFallback = true
		}
		if !v.strict && r.stats.SpecializedKernels > 0 {
			out.Specialized = true
		}
	}

	out.Copied, out.Fused = out.Specialized && copies, out.Specialized && fused
	if o.CC != "" {
		ccCheck(ctx, out, &sp, fe, pl, ref.out, o)
	}
	return out
}

// kernelPaths reports whether either plan of the program runs a copy arm
// on its spans, and whether any direct kernel holds a fused node.
func kernelPaths(fe *frontendResult) (copies, fused bool, err error) {
	ip, err := interp.Compile(fe.prog)
	if err != nil {
		return false, false, err
	}
	for _, opts := range []plan.Options{{}, {Hyperplane: true}} {
		for _, ks := range ip.Kernels(ModuleName, opts) {
			copies = copies || len(ks.CopyArms) > 0 && ks.PointWise == ""
			fused = fused || ks.Fused > 0
		}
	}
	return copies, fused, nil
}

// frontendResult is the front half of the pipeline, kept so the
// harness can inspect the scheduler cascade's Decision records and
// hand the same module to the C generator.
type frontendResult struct {
	prog  *sem.Program
	mod   *sem.Module
	graph *depgraph.Graph
	schd  *core.Schedule
}

func frontend(src string) (*frontendResult, error) {
	parsed, err := parser.ParseProgram("psgen.ps", src)
	if err != nil {
		return nil, err
	}
	cp, err := sem.Check(parsed)
	if err != nil {
		return nil, err
	}
	m := cp.Module(ModuleName)
	if m == nil {
		return nil, fmt.Errorf("no module %s", ModuleName)
	}
	g := depgraph.Build(m)
	schd, err := core.Build(g)
	if err != nil {
		return nil, err
	}
	return &frontendResult{prog: cp, mod: m, graph: g, schd: schd}, nil
}

// classify folds the cascade decisions into the outcome's backend set.
func classify(pl *plan.Program, out *Outcome) {
	for _, d := range pl.Cascade {
		if d.Merged {
			out.Backends["fused"] = true
		}
		switch d.Choice {
		case "doall":
			out.Backends["doall"] = true
		case "wavefront":
			if len(pl.BodyEqs(d.Step)) >= 2 {
				out.Backends["multi-wavefront"] = true
			} else {
				out.Backends["wavefront"] = true
			}
		case "sequential":
			if len(d.Rejections) > 0 {
				out.Backends["sequential-reject"] = true
			}
		}
	}
}

// jammed reports whether pl runs some body of two or more equations as
// one span.
func jammed(pl *plan.Program) bool {
	for i := range pl.Steps {
		if pl.BodySpan(i) && len(pl.BodyEqs(i)) > 1 {
			return true
		}
	}
	return false
}

// wavefrontSkew returns the skew of the lowered plan's wavefront step.
// It applies only to the single-wavefront-nest shapes the generator
// emits (one wavefront step over the spec's dimensions, in order, not
// enclosed by any loop); anything else disables the tile-grid invariant
// and yields nil.
func wavefrontSkew(sp *Spec, pl *plan.Program) [][]int64 {
	var skew [][]int64
	for i := range pl.Steps {
		if st := &pl.Steps[i]; st.Op == plan.OpWavefront {
			if skew != nil || len(st.Dims) != len(sp.Dims) {
				return nil
			}
			skew = st.Hyper.Skew
		}
	}
	return skew
}

// tileGrid is the geometry the spec's box implies for a wavefront of
// skew s run at the given workers and grain, re-derived from the
// documented rule rather than taken from the executor: the skewed
// coordinates s0 and s1 (no spec dimension is fixed to one value) take
// e0 and e1 values over the box; the nest tiles when its points over
// e0 + e1 − 1 anti-diagonals reach the dispatch threshold; each is then
// cut into tiles of width ⌈e / (4 × workers)⌉, or ⌈e / workers⌉ when it
// is a 2-D nest's row. It returns the grid's planes and tiles, or 0, 0
// for an inline sweep.
func (sp *Spec) tileGrid(s [][]int64, workers int, grain int64) (planes, tiles int64) {
	var ext, n [2]int64
	for r := range ext {
		for j, c := range s[r] {
			ext[r] += max(c, -c) * (sp.Dims[j].Hi - sp.Dims[j].Lo)
		}
		ext[r]++
	}
	least := interp.TilePlane(workers, grain)
	if least == 0 || sp.Box()/(ext[0]+ext[1]-1) < least {
		return 0, 0
	}
	for r, e := range ext {
		per := int64(4 * workers)
		if r == len(s)-1 {
			per = int64(workers)
		}
		w := (e + per - 1) / per
		n[r] = (e + w - 1) / w
	}
	return n[0] + n[1] - 1, n[0] * n[1]
}

// checkStats enforces the cross-variant counter invariants.
func checkStats(out *Outcome, sp *Spec, v variant, ref, st *ps.RunStats, skew [][]int64) {
	if st.EquationInstances != ref.EquationInstances {
		out.addf("stats", v.name, "EquationInstances = %d, sequential reference executed %d",
			st.EquationInstances, ref.EquationInstances)
	}
	if st.SpecializedKernels > st.EquationInstances {
		out.addf("stats", v.name, "SpecializedKernels = %d exceeds EquationInstances = %d",
			st.SpecializedKernels, st.EquationInstances)
	}
	if v.strict && st.SpecializedKernels != 0 {
		out.addf("stats", v.name, "SpecializedKernels = %d under a no-specialize variant", st.SpecializedKernels)
	}
	if v.planes && skew != nil {
		var grain int64
		if v.tiles {
			grain = 1
		}
		planes, tiles := sp.tileGrid(skew, st.Workers, grain)
		if tiles == 0 {
			planes = 1 // an inline sweep counts one plane
		}
		if st.WavefrontPlanes != planes || st.DoacrossTiles != tiles {
			out.addf("stats", v.name, "WavefrontPlanes = %d, DoacrossTiles = %d; skew %v over the box implies %d and %d",
				st.WavefrontPlanes, st.DoacrossTiles, skew, planes, tiles)
		}
	}
	if v.traced {
		checkTiming(out, v, st)
	}
}

// checkTiming enforces the per-worker accounting identity of traced
// runs: IdleNs is exactly Workers×Wall − Compute − Stall − BarrierIdle,
// and that remainder is never negative — no executor runs more than
// Workers goroutines of one activation at a time, so the clamp on
// IdleNs must not fire.
func checkTiming(out *Outcome, v variant, st *ps.RunStats) {
	b := st.Timing
	if b == nil {
		out.addf("stats", v.name, "traced run returned no timing breakdown")
		return
	}
	for name, ns := range map[string]int64{
		"ComputeNs": b.ComputeNs, "DoacrossStallNs": b.DoacrossStallNs,
		"BarrierIdleNs": b.BarrierIdleNs, "IdleNs": b.IdleNs, "WallNs": b.WallNs,
	} {
		if ns < 0 {
			out.addf("stats", v.name, "timing %s = %d is negative", name, ns)
		}
	}
	want := int64(b.Workers)*b.WallNs - b.ComputeNs - b.StallNs() - b.BarrierIdleNs
	if want < 0 {
		out.addf("stats", v.name, "timing oversubscribed: compute + stall = %d exceeds workers×wall = %d",
			b.ComputeNs+b.StallNs(), int64(b.Workers)*b.WallNs)
		want = 0
	}
	if b.IdleNs != want {
		out.addf("stats", v.name, "timing identity broken: IdleNs = %d, want max(0, workers×wall − compute − stall − barrier_idle) = %d",
			b.IdleNs, want)
	}
}

// compareResults compares two result lists bitwise (NaNs of any
// payload compare equal). Empty string means identical.
func compareResults(want, got []any) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d results vs %d", len(want), len(got))
	}
	for i := range want {
		wa, wok := want[i].(*value.Array)
		ga, gok := got[i].(*value.Array)
		if wok != gok {
			return fmt.Sprintf("result %d: kind mismatch", i)
		}
		if !wok {
			if d := diffScalar(want[i], got[i]); d != "" {
				return fmt.Sprintf("result %d: %s", i, d)
			}
			continue
		}
		if d := diffArray(wa, ga); d != "" {
			return fmt.Sprintf("result %d: %s", i, d)
		}
	}
	return ""
}

func diffScalar(w, g any) string {
	wf, wok := w.(float64)
	gf, gok := g.(float64)
	if wok && gok {
		if !bitsEqual(wf, gf) {
			return fmt.Sprintf("%v != %v", wf, gf)
		}
		return ""
	}
	if w != g {
		return fmt.Sprintf("%v != %v", w, g)
	}
	return ""
}

func diffArray(w, g *value.Array) string {
	if len(w.Axes) != len(g.Axes) {
		return fmt.Sprintf("rank %d vs %d", len(w.Axes), len(g.Axes))
	}
	for d := range w.Axes {
		if w.Axes[d].Lo != g.Axes[d].Lo || w.Axes[d].Hi != g.Axes[d].Hi {
			return fmt.Sprintf("dim %d bounds [%d,%d] vs [%d,%d]", d, w.Axes[d].Lo, w.Axes[d].Hi, g.Axes[d].Lo, g.Axes[d].Hi)
		}
	}
	var diff string
	eachIndex(w.Axes, func(idx []int64) {
		if diff != "" {
			return
		}
		switch {
		case w.F != nil:
			a, b := w.GetF(idx), g.GetF(idx)
			if !bitsEqual(a, b) {
				diff = fmt.Sprintf("[%s]: %v (%#x) != %v (%#x)", idxString(idx), a, math.Float64bits(a), b, math.Float64bits(b))
			}
		case w.I != nil:
			if a, b := w.GetI(idx), g.GetI(idx); a != b {
				diff = fmt.Sprintf("[%s]: %d != %d", idxString(idx), a, b)
			}
		default:
			if a, b := w.Get(idx), g.Get(idx); a != b {
				diff = fmt.Sprintf("[%s]: %v != %v", idxString(idx), a, b)
			}
		}
	})
	return diff
}

// bitsEqual is bitwise float equality with all NaN payloads identified.
func bitsEqual(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func eachIndex(axes []value.Axis, f func(idx []int64)) {
	idx := make([]int64, len(axes))
	for i, ax := range axes {
		idx[i] = ax.Lo
	}
	if len(axes) == 0 {
		return
	}
	for {
		f(idx)
		k := len(idx) - 1
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] <= axes[k].Hi {
				break
			}
			idx[k] = axes[k].Lo
		}
		if k < 0 {
			return
		}
	}
}

func idxString(idx []int64) string {
	parts := make([]string, len(idx))
	for i, v := range idx {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, ",")
}
