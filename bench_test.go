// Package repro benchmarks every experiment artifact of the paper:
//
//   - BenchmarkFig5_Scheduling: the scheduler itself (component
//     decomposition + flowchart construction).
//   - BenchmarkFig6_*: the Jacobi relaxation — sequential baseline vs the
//     DOALL schedule on 1..N workers.
//   - BenchmarkFig7_*: the Gauss–Seidel revision — its all-iterative
//     schedule admits only sequential execution.
//   - BenchmarkSec4_*: the hyperplane-transformed module — the solver,
//     the transformation, and wavefront execution on 1..N workers.
//   - BenchmarkWindow_*: §3.4 window allocation vs full allocation
//     (run with -benchmem: the B/op column is the paper's storage claim).
//   - BenchmarkNative_*: the same algorithms hand-written in Go, isolating
//     the algorithmic shape from interpreter overhead.
//   - BenchmarkEngine_Activation: the service path — a prepared Runner on
//     an Engine's shared pool vs a Runner prepared and run on a fresh
//     Engine per activation.
package repro

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/hyperplane"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/psrc"
	"repro/internal/sched"
	"repro/ps"
)

// benchGrid builds the standard input grid.
func benchGrid(m int64) *ps.Array {
	in := ps.NewRealArray(ps.Axis{Lo: 0, Hi: m + 1}, ps.Axis{Lo: 0, Hi: m + 1})
	for i := int64(1); i <= m; i++ {
		for j := int64(1); j <= m; j++ {
			in.SetF([]int64{i, j}, float64((i*31+j*17)%19)/19.0)
		}
	}
	return in
}

func mustCompile(b *testing.B, src string) *ps.Program {
	b.Helper()
	prog, err := newEngine(b).Compile("bench.ps", src)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// benchRun prepares module with opts once and times b.N runs of it.
func benchRun(b *testing.B, prog *ps.Program, module string, args []any, opts ...ps.RunOption) {
	b.Helper()
	r, err := prog.Prepare(module, opts...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Run(ctx, args); err != nil {
			b.Fatal(err)
		}
	}
}

// uncachedEngine returns an engine on which every Compile of a fresh
// name misses: its cache keeps only the most recent program.
func uncachedEngine(b *testing.B) *ps.Engine {
	eng := ps.NewEngine(ps.EngineWorkers(1), ps.WithCacheLimit(1))
	b.Cleanup(eng.Close)
	return eng
}

// BenchmarkFig5_Scheduling measures the full front half of the compiler
// on the Figure 1 module: parse, check, dependency graph, MSCC
// decomposition and flowchart construction.
func BenchmarkFig5_Scheduling(b *testing.B) {
	eng := uncachedEngine(b)
	for i := 0; i < b.N; i++ {
		if _, err := eng.Compile(fmt.Sprintf("relaxation%d.ps", i), psrc.Relaxation); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6_Jacobi executes the Figure 6 schedule: the outer K loop
// is iterative, the I/J loops are DOALLs. Sequential is the baseline an
// iterative-only scheduler would produce; workers=N exercises the
// parallel runtime.
func BenchmarkFig6_Jacobi(b *testing.B) {
	const m, maxK = 192, 6
	prog := mustCompile(b, psrc.Relaxation)
	in := benchGrid(m)
	run := func(b *testing.B, opts ...ps.RunOption) {
		b.Helper()
		benchRun(b, prog, "Relaxation", []any{in, int64(m), int64(maxK)}, opts...)
	}
	b.Run("Seq", func(b *testing.B) { run(b, ps.Sequential()) })
	for w := 1; w <= runtime.NumCPU(); w *= 2 {
		b.Run(fmt.Sprintf("Par%d", w), func(b *testing.B) { run(b, ps.Workers(w)) })
	}
}

// BenchmarkFig7_GaussSeidel executes the Figure 7 schedule. All loops are
// iterative, so there is nothing to parallelize — the benchmark records
// the baseline the §4 transformation competes against. The Par variant
// documents that worker count cannot help an all-DO schedule.
func BenchmarkFig7_GaussSeidel(b *testing.B) {
	const m, maxK = 192, 6
	prog := mustCompile(b, psrc.RelaxationGS)
	in := benchGrid(m)
	run := func(b *testing.B, opts ...ps.RunOption) {
		b.Helper()
		benchRun(b, prog, "Relaxation", []any{in, int64(m), int64(maxK)}, opts...)
	}
	b.Run("Seq", func(b *testing.B) { run(b, ps.Sequential()) })
	b.Run("ParNoEffect", func(b *testing.B) { run(b, ps.Workers(runtime.NumCPU())) })
}

// BenchmarkSec4_Solve measures the least-time-vector solver on the
// paper's five-inequality system.
func BenchmarkSec4_Solve(b *testing.B) {
	deps := [][]int64{{1, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 0, -1}, {1, -1, 0}}
	for i := 0; i < b.N; i++ {
		if _, err := hyperplane.SolveTimeVector(deps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec4_Transform measures the full source-to-source rewrite:
// analysis, unimodular completion, module reconstruction, and recompile.
func BenchmarkSec4_Transform(b *testing.B) {
	prog := mustCompile(b, psrc.RelaxationGS)
	mod := prog.Module("Relaxation")
	eng := uncachedEngine(b)
	for i := 0; i < b.N; i++ {
		hp, err := mod.Hyperplane("eq.3")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Compile(fmt.Sprintf("gsh%d.ps", i), hp.TransformedSource); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec4_Wavefront executes the transformed module: DO over the
// K'=2K+I+J hyperplanes with DOALL planes. Workers=1 measures the sweep
// overhead the transformation introduces (the bounding box of the skewed
// domain plus guards); higher worker counts show the recovered
// parallelism that Figure 7's schedule cannot offer at any worker count.
func BenchmarkSec4_Wavefront(b *testing.B) {
	const m, maxK = 192, 6
	gs := mustCompile(b, psrc.RelaxationGS)
	hp, err := gs.Module("Relaxation").Hyperplane("eq.3")
	if err != nil {
		b.Fatal(err)
	}
	prog := mustCompile(b, hp.TransformedSource)
	in := benchGrid(m)
	for w := 1; w <= runtime.NumCPU(); w *= 2 {
		b.Run(fmt.Sprintf("Par%d", w), func(b *testing.B) {
			benchRun(b, prog, hp.TransformedModule, []any{in, int64(m), int64(maxK)}, ps.Workers(w))
		})
	}
}

// BenchmarkWindow compares §3.4 window allocation against physical
// allocation of the full K dimension. Run with -benchmem: the window
// variant allocates 2 planes instead of maxK planes (the B/op gap grows
// linearly in maxK).
func BenchmarkWindow(b *testing.B) {
	const m, maxK = 48, 64
	prog := mustCompile(b, psrc.Relaxation)
	in := benchGrid(m)
	args := []any{in, int64(m), int64(maxK)}
	b.Run("Virtual2Planes", func(b *testing.B) {
		b.ReportAllocs()
		benchRun(b, prog, "Relaxation", args, ps.Workers(1))
	})
	b.Run("PhysicalMaxKPlanes", func(b *testing.B) {
		b.ReportAllocs()
		benchRun(b, prog, "Relaxation", args, ps.Workers(1), noVirtual)
	})
}

// BenchmarkEngine_Activation compares the service path — one Engine
// whose pool is shared by every activation of a prepared Runner —
// against a fresh Engine per activation, which starts and closes a
// worker pool and prepares a Runner for every Run. The gap is pure
// activation overhead, the cost that dominates when many small requests
// hit the runtime.
func BenchmarkEngine_Activation(b *testing.B) {
	const m, maxK = 48, 4
	workers := runtime.NumCPU()
	in := benchGrid(m)
	args := []any{in, int64(m), int64(maxK)}

	eng := ps.NewEngine(ps.EngineWorkers(workers))
	defer eng.Close()
	prog, err := eng.Compile("bench.ps", psrc.Relaxation)
	if err != nil {
		b.Fatal(err)
	}
	run, err := prog.Prepare("Relaxation")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("PreparedRunnerSharedPool", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := run.Run(ctx, args); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("OneShotPoolPerRun", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := ps.NewEngine(ps.EngineWorkers(workers))
			prog, err := eng.Compile("bench.ps", psrc.Relaxation)
			if err != nil {
				b.Fatal(err)
			}
			run, err := prog.Prepare("Relaxation")
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := run.Run(ctx, args); err != nil {
				b.Fatal(err)
			}
			eng.Close()
		}
	})
}

// BenchmarkDOALL_Relaxation measures per-activation DOALL dispatch on the
// testdata Jacobi module through the service path (Engine + prepared
// Runner): the outer K loop is iterative and every plane is a collapsed
// I×J DOALL, so the benchmark is dominated by how cheaply the executor
// turns a schedule into loop iterations. Grain variants move the
// dispatch threshold.
func BenchmarkDOALL_Relaxation(b *testing.B) {
	benchDOALL(b, "testdata/relaxation.ps", "Relaxation")
}

// BenchmarkDOALL_GaussSeidel is the same measurement on the testdata
// Gauss–Seidel revision, whose schedule is all-iterative (DO K (DO I (DO
// J))): it isolates the sequential per-iteration path, where descriptor
// dispatch and bound lookups used to be re-paid on every iteration.
func BenchmarkDOALL_GaussSeidel(b *testing.B) {
	benchDOALL(b, "testdata/gauss_seidel.ps", "Relaxation")
}

func benchDOALL(b *testing.B, file, module string) {
	src, err := os.ReadFile(file)
	if err != nil {
		b.Fatal(err)
	}
	eng := ps.NewEngine()
	defer eng.Close()
	prog, err := eng.Compile(file, string(src))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Small keeps the grid tiny so fixed per-activation cost (bound
	// evaluation, allocation, loop setup, dispatch) dominates;
	// Large is kernel-work-dominated and bounds the end-to-end effect.
	sizes := []struct {
		name    string
		m, maxK int64
	}{{"Small", 8, 3}, {"Large", 48, 4}}
	for _, sz := range sizes {
		args := []any{benchGrid(sz.m), sz.m, sz.maxK}
		run := func(b *testing.B, opts ...ps.RunOption) {
			b.Helper()
			r, err := prog.Prepare(module, opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := r.Run(ctx, args); err != nil {
					b.Fatal(err)
				}
			}
		}
		// Par2 uses a two-worker pool even on a single-CPU host, so the
		// DOALL tile path is exercised wherever a step reaches the dispatch
		// threshold (Small only at the default grain, Large at every grain
		// here).
		b.Run(sz.name+"/Seq", func(b *testing.B) { run(b, ps.Sequential()) })
		b.Run(sz.name+"/Par2", func(b *testing.B) { run(b, ps.Workers(2)) })
		for _, g := range []int64{64, 1024} {
			b.Run(fmt.Sprintf("%s/Par2Grain%d", sz.name, g), func(b *testing.B) { run(b, ps.Workers(2), ps.Grain(g)) })
		}
	}
}

// BenchmarkWavefront_GaussSeidel measures the automatic §4 pass on the
// testdata Gauss–Seidel module: Seq is the all-iterative baseline the
// Figure 7 schedule admits, and AutoParN runs the compiler-generated
// wavefront plan at increasing widths.
func BenchmarkWavefront_GaussSeidel(b *testing.B) {
	sizes := []struct {
		name    string
		m, maxK int64
	}{{"Small", 24, 4}, {"Large", 96, 6}}
	benchWavefront(b, "testdata/gauss_seidel.ps", "Relaxation", func(m, maxK int64) []any {
		return []any{benchGrid(m), m, maxK}
	}, sizes)
}

// BenchmarkWavefront_SkewStencil is the same measurement on the 2-D
// skewed stencil, whose single sweep is entirely sequential without the
// transform.
func BenchmarkWavefront_SkewStencil(b *testing.B) {
	sizes := []struct {
		name    string
		m, maxK int64
	}{{"Small", 32, 0}, {"Large", 192, 0}}
	benchWavefront(b, "testdata/skew_stencil.ps", "SkewStencil", func(n, _ int64) []any {
		return []any{benchGrid(n), n}
	}, sizes)
}

// benchWavefront runs one dependence-carrying module through an Engine
// at Small/Large sizes under Seq and Auto×workers.
func benchWavefront(b *testing.B, file, module string, argsFor func(m, maxK int64) []any,
	sizes []struct {
		name    string
		m, maxK int64
	}) {
	b.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		b.Fatal(err)
	}
	eng := ps.NewEngine()
	defer eng.Close()
	prog, err := eng.Compile(file, string(src))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, sz := range sizes {
		args := argsFor(sz.m, sz.maxK)
		run := func(b *testing.B, opts ...ps.RunOption) {
			b.Helper()
			r, err := prog.Prepare(module, opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := r.Run(ctx, args); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(sz.name+"/Seq", func(b *testing.B) { run(b, ps.Sequential()) })
		workers := []int{2}
		for w := 4; w <= runtime.NumCPU(); w *= 2 {
			workers = append(workers, w)
		}
		for _, w := range workers {
			w := w
			b.Run(fmt.Sprintf("%s/AutoPar%d", sz.name, w), func(b *testing.B) {
				run(b, ps.Workers(w))
			})
		}
	}
}

// --- native references ----------------------------------------------------

// nativeGS runs the Gauss–Seidel recurrence directly in Go, sequentially,
// with a two-plane window — the best the Figure 7 schedule can do.
func nativeGS(in []float64, m, maxK int64) []float64 {
	n := m + 2
	prev := make([]float64, n*n)
	copy(prev, in)
	next := make([]float64, n*n)
	for k := int64(2); k <= maxK; k++ {
		for i := int64(0); i < n; i++ {
			for j := int64(0); j < n; j++ {
				if i == 0 || j == 0 || i == m+1 || j == m+1 {
					next[i*n+j] = prev[i*n+j]
				} else {
					next[i*n+j] = (next[i*n+j-1] + next[(i-1)*n+j] +
						prev[i*n+j+1] + prev[(i+1)*n+j]) / 4
				}
			}
		}
		prev, next = next, prev
	}
	return prev
}

// nativeGSWavefront runs the same recurrence along t = 2k+i+j hyperplanes
// with the plane parallelized over workers — the execution the §4
// transformation yields, hand-written.
func nativeGSWavefront(in []float64, m, maxK int64, workers int) []float64 {
	n := m + 2
	// Three-plane window over k is not used here: keep per-k planes so
	// the in-plane dependences of Gauss–Seidel resolve by wavefront order.
	planes := make([][]float64, maxK+1)
	planes[1] = make([]float64, n*n)
	copy(planes[1], in)
	for k := int64(2); k <= maxK; k++ {
		planes[k] = make([]float64, n*n)
	}
	// Every cell (k,i,j) with 2k+i+j = t is independent of the others on
	// the same hyperplane. Each k contributes one anti-diagonal segment
	// i ∈ [max(0,t-2k-(m+1)), min(m+1,t-2k)]; segments are distributed
	// over the workers as one row of independent tiles per plane, so
	// exactly the valid cells are visited.
	pool := par.NewPool(workers)
	defer pool.Close()
	for t := int64(4); t <= 2*maxK+2*(m+1); t++ {
		kLo := int64(2)
		if lo := (t - 2*(m+1) + 1) / 2; lo > kLo {
			kLo = lo
		}
		kHi := maxK
		if hi := t / 2; hi < kHi {
			kHi = hi
		}
		if kLo > kHi {
			continue
		}
		cols, w := sched.Cut(kHi-kLo+1, sched.TilesPerWorker*int64(workers), 0)
		sched.Run(sched.Grid{Rows: 1, Cols: cols}, pool, nil, func(_ *obs.Ring, _, b int) bool {
			lo := kLo + int64(b)*w
			hi := min(lo+w-1, kHi)
			for k := lo; k <= hi; k++ {
				d := t - 2*k // i+j on this plane
				iLo, iHi := int64(0), d
				if d-(m+1) > iLo {
					iLo = d - (m + 1)
				}
				if m+1 < iHi {
					iHi = m + 1
				}
				cur, prev := planes[k], planes[k-1]
				for i := iLo; i <= iHi; i++ {
					j := d - i
					if i == 0 || j == 0 || i == m+1 || j == m+1 {
						cur[i*n+j] = prev[i*n+j]
					} else {
						cur[i*n+j] = (cur[i*n+j-1] + cur[(i-1)*n+j] +
							prev[i*n+j+1] + prev[(i+1)*n+j]) / 4
					}
				}
			}
			return true
		}, nil, nil)
	}
	return planes[maxK]
}

// BenchmarkNative_GS isolates the §4 algorithmic shape from interpreter
// overhead: the sequential recurrence vs its wavefront execution at
// increasing worker counts, in plain Go.
func BenchmarkNative_GS(b *testing.B) {
	const m, maxK = 512, 24
	n := int64(m + 2)
	in := make([]float64, n*n)
	for i := int64(1); i <= m; i++ {
		for j := int64(1); j <= m; j++ {
			in[i*n+j] = float64((i*31+j*17)%19) / 19.0
		}
	}
	b.Run("Seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nativeGS(in, m, maxK)
		}
	})
	for w := 1; w <= runtime.NumCPU(); w *= 2 {
		b.Run(fmt.Sprintf("WavefrontPar%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nativeGSWavefront(in, m, maxK, w)
			}
		})
	}
}

// TestNativeWavefrontMatchesSeq guards the native benchmark kernels.
func TestNativeWavefrontMatchesSeq(t *testing.T) {
	const m, maxK = 33, 7
	n := int64(m + 2)
	in := make([]float64, n*n)
	for i := int64(1); i <= m; i++ {
		for j := int64(1); j <= m; j++ {
			in[i*n+j] = float64((i*31+j*17)%19) / 19.0
		}
	}
	a := nativeGS(in, m, maxK)
	bv := nativeGSWavefront(in, m, maxK, 4)
	for i := range a {
		if a[i] != bv[i] {
			t.Fatalf("element %d: seq %g, wavefront %g", i, a[i], bv[i])
		}
	}
}

// BenchmarkFusion is the ablation for the §5 loop-merging extension: a
// four-pass element-wise module executed with separate loops (the
// schedule as emitted, which sequential runs execute) versus the single
// nest the cascade fuses them into on one worker (fewer loop
// dispatches, better locality).
func BenchmarkFusion(b *testing.B) {
	const src = `
Chain: module (Xs: array[I] of real; N: int):
    [As: array [I] of real; Bs: array [I] of real;
     Cs: array [I] of real; Ds: array [I] of real];
type I = 0 .. N;
define
    As[I] = Xs[I] * 2.0 + 1.0;
    Bs[I] = As[I] * As[I];
    Cs[I] = Bs[I] - As[I];
    Ds[I] = sqrt(abs(Cs[I]));
end Chain;
`
	const n = 1 << 16
	prog := mustCompile(b, src)
	xs := ps.NewRealArray(ps.Axis{Lo: 0, Hi: n})
	for i := int64(0); i <= n; i++ {
		xs.SetF([]int64{i}, float64(i%97))
	}
	args := []any{xs, int64(n)}
	b.Run("Unfused", func(b *testing.B) { benchRun(b, prog, "Chain", args, ps.Sequential()) })
	b.Run("Cascade", func(b *testing.B) { benchRun(b, prog, "Chain", args, ps.Workers(1)) })
}
