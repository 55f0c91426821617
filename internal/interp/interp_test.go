package interp_test

import (
	"math"
	"testing"

	"repro"
	"repro/internal/hyperplane"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/types"
	"repro/internal/value"
)

// compileSrc builds a runnable program from PS source.
func compileSrc(t testing.TB, src string) *interp.Program {
	t.Helper()
	prog, err := parser.ParseProgram("test.ps", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	ip, err := interp.Compile(cp)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return ip
}

// grid builds an (M+2)×(M+2) real array with boundary 0 and interior
// values seeded deterministically.
func grid(m int64) *value.Array {
	a := value.NewArray(types.RealKind, []value.Axis{
		{Lo: 0, Hi: m + 1}, {Lo: 0, Hi: m + 1},
	})
	for i := int64(0); i <= m+1; i++ {
		for j := int64(0); j <= m+1; j++ {
			var v float64
			if i > 0 && i <= m && j > 0 && j <= m {
				v = float64((i*31+j*17)%19) / 19.0
			}
			a.SetF([]int64{i, j}, v)
		}
	}
	return a
}

// jacobiRef computes the relaxation result directly in Go.
func jacobiRef(in *value.Array, m, maxK int64) *value.Array {
	cur := in
	for k := int64(2); k <= maxK; k++ {
		next := value.NewArray(types.RealKind, in.Axes)
		for i := int64(0); i <= m+1; i++ {
			for j := int64(0); j <= m+1; j++ {
				if i == 0 || j == 0 || i == m+1 || j == m+1 {
					next.SetF([]int64{i, j}, cur.GetF([]int64{i, j}))
				} else {
					v := (cur.GetF([]int64{i, j - 1}) + cur.GetF([]int64{i - 1, j}) +
						cur.GetF([]int64{i, j + 1}) + cur.GetF([]int64{i + 1, j})) / 4
					next.SetF([]int64{i, j}, v)
				}
			}
		}
		cur = next
	}
	return cur
}

// gsRef computes the Gauss–Seidel variant (Equation 2) directly in Go.
func gsRef(in *value.Array, m, maxK int64) *value.Array {
	prev := in
	for k := int64(2); k <= maxK; k++ {
		next := value.NewArray(types.RealKind, in.Axes)
		for i := int64(0); i <= m+1; i++ {
			for j := int64(0); j <= m+1; j++ {
				if i == 0 || j == 0 || i == m+1 || j == m+1 {
					next.SetF([]int64{i, j}, prev.GetF([]int64{i, j}))
				} else {
					v := (next.GetF([]int64{i, j - 1}) + next.GetF([]int64{i - 1, j}) +
						prev.GetF([]int64{i, j + 1}) + prev.GetF([]int64{i + 1, j})) / 4
					next.SetF([]int64{i, j}, v)
				}
			}
		}
		prev = next
	}
	return prev
}

func runRelaxation(t testing.TB, ip *interp.Program, in *value.Array, m, maxK int64, opts interp.Options) *value.Array {
	t.Helper()
	res, err := ip.Run("Relaxation", []any{in, m, maxK}, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res[0].(*value.Array)
}

// TestJacobiMatchesReference checks the interpreted Figure 1 module
// against a direct Go implementation, bit for bit.
func TestJacobiMatchesReference(t *testing.T) {
	const m, maxK = 9, 6
	ip := compileSrc(t, repro.Source("relaxation"))
	in := grid(m)
	got := runRelaxation(t, ip, in, m, maxK, interp.Options{})
	want := jacobiRef(in, m, maxK)
	if !got.Equal(want) {
		t.Errorf("Jacobi result differs from reference (max diff %g)", got.MaxAbsDiff(want))
	}
}

// TestJacobiParallelEqualsSequential checks that DOALL execution is
// bitwise identical to sequential execution.
func TestJacobiParallelEqualsSequential(t *testing.T) {
	const m, maxK = 17, 9
	ip := compileSrc(t, repro.Source("relaxation"))
	in := grid(m)
	seq := runRelaxation(t, ip, in, m, maxK, interp.Options{Sequential: true})
	for _, workers := range []int{2, 4, 8} {
		par := runRelaxation(t, ip, in, m, maxK, interp.Options{Pool: pool(t, workers)})
		if !seq.Equal(par) {
			t.Errorf("parallel (%d workers) differs from sequential (max diff %g)",
				workers, seq.MaxAbsDiff(par))
		}
	}
}

// TestJacobiWindowEqualsPhysical checks §3.4: executing with the window-2
// virtual dimension produces exactly the full-allocation result.
func TestJacobiWindowEqualsPhysical(t *testing.T) {
	const m, maxK = 13, 8
	ip := compileSrc(t, repro.Source("relaxation"))
	in := grid(m)
	win := runRelaxation(t, ip, in, m, maxK, interp.Options{Pool: pool(t, 2)})
	phys := runRelaxation(t, ip, in, m, maxK, interp.Options{Pool: pool(t, 2), NoVirtual: true})
	if !win.Equal(phys) {
		t.Errorf("windowed execution differs from physical (max diff %g)", win.MaxAbsDiff(phys))
	}
}

// TestGaussSeidelMatchesReference checks the Equation 2 module.
func TestGaussSeidelMatchesReference(t *testing.T) {
	const m, maxK = 9, 6
	ip := compileSrc(t, repro.Source("gauss_seidel"))
	in := grid(m)
	got := runRelaxation(t, ip, in, m, maxK, interp.Options{})
	want := gsRef(in, m, maxK)
	if !got.Equal(want) {
		t.Errorf("Gauss–Seidel result differs from reference (max diff %g)", got.MaxAbsDiff(want))
	}
}

// TestTransformedEqualsOriginal is the §4 end-to-end check: the
// hyperplane-transformed module, executed with its DO/DOALL wavefront
// schedule, computes exactly the same result as the original all-DO
// Gauss–Seidel module.
func TestTransformedEqualsOriginal(t *testing.T) {
	const m, maxK = 11, 7
	prog, err := parser.ParseProgram("gs.ps", repro.Source("gauss_seidel"))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	mod := cp.Modules[0]
	var eq3 *sem.Equation
	for _, e := range mod.Eqs {
		if e.Label == "eq.3" {
			eq3 = e
		}
	}
	an, err := hyperplane.Analyze(mod, eq3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hyperplane.Transform(an)
	if err != nil {
		t.Fatal(err)
	}

	orig := compileSrc(t, repro.Source("gauss_seidel"))
	xform := compileSrc(t, res.Source)

	in := grid(m)
	want := runRelaxation(t, orig, in, m, maxK, interp.Options{Sequential: true})
	got, err := xform.Run("RelaxationH", []any{in, int64(m), int64(maxK)}, interp.Options{Pool: pool(t, 4)})
	if err != nil {
		t.Fatalf("run transformed: %v", err)
	}
	if !got[0].(*value.Array).Equal(want) {
		t.Errorf("transformed result differs from original (max diff %g)",
			got[0].(*value.Array).MaxAbsDiff(want))
	}
}

// TestStrictDetectsDoubleDefinition checks that strict mode catches
// single-assignment violations.
func TestStrictDetectsDoubleDefinition(t *testing.T) {
	src := `
Dup: module (N: int): [R: array [I] of real];
type I = 1 .. N; I0 = 1 .. N;
define
    R[I] = 1.0;
    R[I0] = 2.0;
end Dup;
`
	ip := compileSrc(t, src)
	_, err := ip.Run("Dup", []any{4}, interp.Options{Strict: true})
	if err == nil {
		t.Error("expected strict mode to detect a double definition")
	}
}

// TestSubscriptRangeError checks runtime bounds diagnostics.
func TestSubscriptRangeError(t *testing.T) {
	src := `
Oob: module (N: int): [R: array [I] of real];
type I = 1 .. N;
var B: array [1 .. N] of real;
define
    B[I] = float(I);
    R[I] = B[I+1];
end Oob;
`
	ip := compileSrc(t, src)
	_, err := ip.Run("Oob", []any{4}, interp.Options{})
	if err == nil {
		t.Error("expected out-of-range subscript error")
	}
}

// TestSmallModules runs the auxiliary workloads and checks their values.
func TestSmallModules(t *testing.T) {
	t.Run("Prefix", func(t *testing.T) {
		ip := compileSrc(t, repro.Source("prefix"))
		xs := value.NewArray(types.RealKind, []value.Axis{{Lo: 1, Hi: 5}})
		for i := int64(1); i <= 5; i++ {
			xs.SetF([]int64{i}, float64(i))
		}
		res, err := ip.Run("Prefix", []any{xs, 5}, interp.Options{Pool: pool(t, 2)})
		if err != nil {
			t.Fatal(err)
		}
		s := res[0].(*value.Array)
		want := []float64{1, 3, 6, 10, 15}
		for i := int64(1); i <= 5; i++ {
			if got := s.GetF([]int64{i}); got != want[i-1] {
				t.Errorf("S[%d] = %g, want %g", i, got, want[i-1])
			}
		}
	})

	t.Run("Smooth", func(t *testing.T) {
		ip := compileSrc(t, repro.Source("smooth"))
		n := int64(6)
		xs := value.NewArray(types.RealKind, []value.Axis{{Lo: 0, Hi: n + 1}})
		for i := int64(0); i <= n+1; i++ {
			xs.SetF([]int64{i}, float64(i*i))
		}
		res, err := ip.Run("Smooth", []any{xs, n}, interp.Options{Pool: pool(t, 2)})
		if err != nil {
			t.Fatal(err)
		}
		ys := res[0].(*value.Array)
		for i := int64(1); i <= n; i++ {
			want := (xs.GetF([]int64{i - 1}) + xs.GetF([]int64{i}) + xs.GetF([]int64{i + 1})) / 3
			if got := ys.GetF([]int64{i}); math.Abs(got-want) > 1e-15 {
				t.Errorf("Ys[%d] = %g, want %g", i, got, want)
			}
		}
		if ys.GetF([]int64{0}) != 0 || ys.GetF([]int64{n + 1}) != float64((n+1)*(n+1)) {
			t.Error("boundary values not carried over")
		}
	})

	t.Run("Pipeline", func(t *testing.T) {
		ip := compileSrc(t, repro.Source("pipeline"))
		n := int64(6)
		xs := value.NewArray(types.RealKind, []value.Axis{{Lo: 0, Hi: n + 1}})
		for i := int64(0); i <= n+1; i++ {
			xs.SetF([]int64{i}, float64(i))
		}
		res, err := ip.Run("Pipeline", []any{xs, n}, interp.Options{Pool: pool(t, 2)})
		if err != nil {
			t.Fatal(err)
		}
		zs := res[0].(*value.Array)
		// Smoothing a linear ramp twice leaves the interior unchanged.
		for i := int64(2); i < n; i++ {
			if got := zs.GetF([]int64{i}); math.Abs(got-float64(i)) > 1e-12 {
				t.Errorf("Zs[%d] = %g, want %g", i, got, float64(i))
			}
		}
	})

	t.Run("Wavefront2D", func(t *testing.T) {
		ip := compileSrc(t, repro.Source("wavefront2d"))
		n := int64(5)
		seed := value.NewArray(types.RealKind, []value.Axis{{Lo: 0, Hi: n + 1}, {Lo: 0, Hi: n + 1}})
		for i := int64(0); i <= n+1; i++ {
			seed.SetF([]int64{i, 0}, 1)
			seed.SetF([]int64{0, i}, 1)
		}
		res, err := ip.Run("Wavefront2D", []any{seed, n}, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out := res[0].(*value.Array)
		// W[i,j] = (W[i-1,j]+W[i,j-1])/2 from all-ones boundary stays 1.
		for i := int64(0); i <= n+1; i++ {
			for j := int64(0); j <= n+1; j++ {
				if got := out.GetF([]int64{i, j}); got != 1 {
					t.Errorf("Out[%d,%d] = %g, want 1", i, j, got)
					return
				}
			}
		}
	})
}

// TestHeat1DConservation checks that the explicit heat step preserves a
// constant field.
func TestHeat1DConservation(t *testing.T) {
	ip := compileSrc(t, repro.Source("heat1d"))
	n := int64(16)
	u0 := value.NewArray(types.RealKind, []value.Axis{{Lo: 0, Hi: n + 1}})
	u0.Fill(3.5)
	res, err := ip.Run("Heat1D", []any{u0, n, 10, 0.25}, interp.Options{Pool: pool(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	u := res[0].(*value.Array)
	for i := int64(0); i <= n+1; i++ {
		if got := u.GetF([]int64{i}); math.Abs(got-3.5) > 1e-12 {
			t.Errorf("U[%d] = %g, want 3.5", i, got)
		}
	}
}

// TestMultiTargetCallArrays runs Ls, Hs = Halves(Xs, N) under
// Sequential and on default options and requires both targets to equal
// a direct run of Halves, with nothing left lent from the arena.
func TestMultiTargetCallArrays(t *testing.T) {
	ip := compileSrc(t, repro.Source("halves"))
	const n = 6
	xs := realBox(value.Axis{Hi: n + 1})
	want, err := ip.Run("Halves", []any{xs, int64(n)}, interp.Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []interp.Options{{Sequential: true}, {}} {
		got, err := ip.Run("Main", []any{xs, int64(n)}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{"Ls", "Hs"} {
			if !got[i].(*value.Array).Equal(want[i].(*value.Array)) {
				t.Errorf("sequential=%v: %s = %v, want %v", opts.Sequential, name, got[i], want[i])
			}
		}
		if lent := ip.ArenaLent(); lent != 0 {
			t.Errorf("sequential=%v: %d arena arrays still lent out", opts.Sequential, lent)
		}
	}
}

// pipelineSkew adds to testdata/pipeline.ps a driver whose second call
// hands Smooth a bound one past the array it passes, so that callee fails.
var pipelineSkew = repro.Source("pipeline") + `
Skew: module (Xs: array[I] of real; N: int): [Zs: array [I] of real];
type
    I = 0 .. N+1;
var
    Mid: array [0 .. N+1] of real;
define
    Mid = Smooth(Xs, N);
    Zs = Smooth(Mid, N + 1);
end Skew;
`

// TestModuleCallsLeaveNoLeak runs whole-call targets — Pipeline's Mid
// and Zs — four times under Sequential and four times on default
// options, then a driver whose second callee fails, and requires the
// arena to have nothing lent out after each run and every returned Zs
// to be exact-size (len == cap). The arena lends an activation's locals
// only, and a call's target is filled by the callee's result, with no
// array of its own.
func TestModuleCallsLeaveNoLeak(t *testing.T) {
	ip := compileSrc(t, pipelineSkew)
	const n = 40
	xs := realBox(value.Axis{Hi: n + 1})
	for _, opts := range []interp.Options{{Sequential: true}, {}} {
		for run := 1; run <= 4; run++ {
			res, err := ip.Run("Pipeline", []any{xs, int64(n)}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if zs := res[0].(*value.Array); len(zs.F) != cap(zs.F) {
				t.Errorf("sequential=%v run %d: Zs has len %d, cap %d", opts.Sequential, run, len(zs.F), cap(zs.F))
			}
			if lent := ip.ArenaLent(); lent != 0 {
				t.Errorf("sequential=%v run %d: %d arena arrays still lent out", opts.Sequential, run, lent)
			}
		}
	}
	if _, err := ip.Run("Skew", []any{xs, int64(n)}, interp.Options{}); err == nil {
		t.Fatal("a call with mismatched bounds succeeded")
	}
	if lent := ip.ArenaLent(); lent != 0 {
		t.Errorf("%d arena arrays still lent out after the failed call", lent)
	}
}
