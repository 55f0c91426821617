package cgen_test

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cgen"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/psrc"
	"repro/internal/sem"
	"repro/internal/types"
	"repro/internal/value"
)

func generate(t *testing.T, src, modName string, opts cgen.Options) (string, *sem.Module, *core.Schedule) {
	t.Helper()
	prog, err := parser.ParseProgram("t.ps", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	m := cp.Module(modName)
	sched, err := core.Build(depgraph.Build(m))
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	c, err := cgen.Generate(m, plan.Lower(m, sched, plan.Options{}), opts)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return c, m, sched
}

// TestGeneratedCShape checks the structural properties the paper
// describes: annotated DO/DOALL loops and the window-2 allocation.
func TestGeneratedCShape(t *testing.T) {
	c, _, _ := generate(t, psrc.Relaxation, "Relaxation", cgen.Options{OpenMP: true})
	for _, want := range []string{
		"Relaxation_result Relaxation(const double *InitialA, long M, long maxK)",
		"/* DOALL I */",
		"/* DOALL J */",
		"/* DO K */",
		"#pragma omp parallel for",
		"const long A_d0_n = 2; /* virtual: window of 2 planes */",
		"for (long K = K_lo; K <= K_hi; K++) {",
		"%% A_d0_n", // modular window addressing
	} {
		probe := strings.ReplaceAll(want, "%%", "%")
		if !strings.Contains(c, probe) {
			t.Errorf("generated C missing %q\n%s", probe, c)
		}
	}
	// The iterative K loop must contain the two parallel loops.
	kAt := strings.Index(c, "/* DO K */")
	iAt := strings.Index(c[kAt:], "/* DOALL I */")
	if kAt < 0 || iAt < 0 {
		t.Error("DO K does not enclose DOALL I")
	}
}

// TestGeneratedCNoVirtual checks the ablation path: full allocation.
func TestGeneratedCNoVirtual(t *testing.T) {
	c, _, _ := generate(t, psrc.Relaxation, "Relaxation", cgen.Options{NoVirtual: true})
	if strings.Contains(c, "virtual: window") {
		t.Error("NoVirtual output still contains a window allocation")
	}
	if !strings.Contains(c, "const long A_d0_n = A_d0_hi - A_d0_lo + 1;") {
		t.Error("NoVirtual output missing physical plane count")
	}
}

// ccValidate is the shared compile-run-compare harness for the cc
// validation tests: it generates C for the (M, maxK)-shaped module
// modName of src under planOpts and genOpts, appends a main that seeds
// the standard (M+2)² grid, builds it with every cc flag set, runs the
// binaries, and requires every printed element to be bitwise equal to
// the interpreter's sequential result. A flag set containing -fopenmp
// that fails to compile is logged and skipped (old compilers); every
// other build failure is fatal. Skipped entirely when no C compiler is
// installed.
func ccValidate(t *testing.T, src, modName string, planOpts plan.Options, genOpts cgen.Options, flagSets [][]string, m, maxK int64, requireWavefront bool) {
	t.Helper()
	ccPath, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no C compiler in PATH")
	}
	prog, err := parser.ParseProgram("t.ps", src)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	mod := cp.Module(modName)
	schd, err := core.Build(depgraph.Build(mod))
	if err != nil {
		t.Fatal(err)
	}
	pl := plan.Lower(mod, schd, planOpts)
	if requireWavefront && !pl.HasWavefront() {
		t.Fatal("auto-hyperplane lowering produced no wavefront step")
	}
	cSrc, err := cgen.Generate(mod, pl, genOpts)
	if err != nil {
		t.Fatal(err)
	}

	main := fmt.Sprintf(`
#include <stdio.h>
int main(void) {
    long M = %d, maxK = %d;
    long n = (M+2)*(M+2);
    double *in = malloc(sizeof(double)*n);
    for (long i = 0; i <= M+1; i++)
        for (long j = 0; j <= M+1; j++) {
            double v = 0;
            if (i > 0 && i <= M && j > 0 && j <= M) v = (double)((i*31+j*17)%%19)/19.0;
            in[i*(M+2)+j] = v;
        }
    %s_result r = %s(in, M, maxK);
    for (long i = 0; i < n; i++) printf("%%.17g\n", r.newA[i]);
    return 0;
}
`, m, maxK, modName, modName)

	ip, err := interp.Compile(cp)
	if err != nil {
		t.Fatal(err)
	}
	in := value.NewArray(types.RealKind, []value.Axis{{Lo: 0, Hi: m + 1}, {Lo: 0, Hi: m + 1}})
	for i := int64(0); i <= m+1; i++ {
		for j := int64(0); j <= m+1; j++ {
			var v float64
			if i > 0 && i <= m && j > 0 && j <= m {
				v = float64((i*31+j*17)%19) / 19.0
			}
			in.SetF([]int64{i, j}, v)
		}
	}
	res, err := ip.Run(modName, []any{in, m, maxK}, interp.Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	want := res[0].(*value.Array)

	dir := t.TempDir()
	cFile := filepath.Join(dir, "mod.c")
	if err := os.WriteFile(cFile, []byte(cSrc+main), 0o644); err != nil {
		t.Fatal(err)
	}
	for vi, flags := range flagSets {
		bin := filepath.Join(dir, fmt.Sprintf("mod_%d", vi))
		args := append(append([]string{}, flags...), "-o", bin, cFile, "-lm")
		if out, err := exec.Command(ccPath, args...).CombinedOutput(); err != nil {
			if slices.Contains(flags, "-fopenmp") {
				t.Logf("cc has no -fopenmp (%v); skipping that variant\n%s", err, out)
				continue
			}
			t.Fatalf("cc %v failed: %v\n%s\n--- generated C ---\n%s", flags, err, out, cSrc)
		}
		got, err := exec.Command(bin).Output()
		if err != nil {
			t.Fatalf("run (%v): %v", flags, err)
		}
		lines := strings.Fields(strings.TrimSpace(string(got)))
		if len(lines) != int((m+2)*(m+2)) {
			t.Fatalf("C binary printed %d values, want %d", len(lines), (m+2)*(m+2))
		}
		k := 0
		for i := int64(0); i <= m+1; i++ {
			for j := int64(0); j <= m+1; j++ {
				cv, err := strconv.ParseFloat(lines[k], 64)
				if err != nil {
					t.Fatalf("parse %q: %v", lines[k], err)
				}
				if iv := want.GetF([]int64{i, j}); cv != iv {
					t.Fatalf("cc %v element [%d,%d]: C %g, interpreter %g", flags, i, j, cv, iv)
				}
				k++
			}
		}
	}
}

// TestCompiledCMatchesInterpreter generates C for the relaxation module,
// compiles it with the system C compiler, runs it, and compares every
// element against the interpreter — validating the paper's actual
// artifact end to end.
func TestCompiledCMatchesInterpreter(t *testing.T) {
	ccValidate(t, psrc.Relaxation, "Relaxation", plan.Options{}, cgen.Options{},
		[][]string{{"-O2"}}, 8, 5, false)
}

// TestGeneratedCWavefrontShape checks the auto-hyperplane C output: the
// sequential wf_0 = π·x plane loop with one OpenMP loop per plane,
// per-plane bound tightening, the T⁻¹ remap and the preimage guard.
func TestGeneratedCWavefrontShape(t *testing.T) {
	prog, err := parser.ParseProgram("t.ps", psrc.RelaxationGS)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := cp.Module("Relaxation")
	sched, err := core.Build(depgraph.Build(m))
	if err != nil {
		t.Fatal(err)
	}
	pl := plan.Lower(m, sched, plan.Options{Hyperplane: true})
	if !pl.HasWavefront() {
		t.Fatal("auto-hyperplane lowering produced no wavefront step")
	}
	c, err := cgen.Generate(m, pl, cgen.Options{OpenMP: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"/* WAVEFRONT K, I, J: t = 2*K + I + J (pi = (2,1,1), window 3) */",
		"for (long wf_0 = wf_box_lo_0; wf_0 <= wf_box_hi_0; wf_0++)",
		"#pragma omp parallel for collapse(2)",
		"const long J = wf_0 - 2*wf_1 - wf_2;",
		"if (K >= K_lo && K <= K_hi && I >= I_lo && I <= I_hi && J >= J_lo && J <= J_hi)",
	} {
		if !strings.Contains(c, want) {
			t.Errorf("wavefront C missing %q\n%s", want, c)
		}
	}
	// The transformed subrange's window must be dropped: the wavefront
	// interleaves K planes, so A is allocated physically.
	if strings.Contains(c, "virtual: window") {
		t.Errorf("wavefront C still window-allocates the transformed array:\n%s", c)
	}
}

// TestCompiledCWavefrontMatchesInterpreter compiles the auto-hyperplane
// C for the Gauss-Seidel module with the system C compiler, runs it,
// and compares every element against the interpreter's sequential run -
// the per-plane wavefront nest validated end to end through the C
// backend.
func TestCompiledCWavefrontMatchesInterpreter(t *testing.T) {
	ccValidate(t, psrc.RelaxationGS, "Relaxation", plan.Options{Hyperplane: true},
		cgen.Options{}, [][]string{{"-O2"}}, 9, 6, true)
}

// TestGeneratedCPipeline checks module-call code generation.
func TestGeneratedCPipeline(t *testing.T) {
	prog, err := parser.ParseProgram("t.ps", psrc.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	var full strings.Builder
	for _, name := range []string{"Smooth", "Pipeline"} {
		m := cp.Module(name)
		sched, err := core.Build(depgraph.Build(m))
		if err != nil {
			t.Fatal(err)
		}
		c, err := cgen.Generate(m, plan.Lower(m, sched, plan.Options{}), cgen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		full.WriteString(c)
	}
	out := full.String()
	if !strings.Contains(out, "Smooth_result") || !strings.Contains(out, "= Smooth(") {
		t.Errorf("pipeline C missing module call:\n%s", out)
	}
}

// TestGeneratedCMultiKernelWavefrontShape checks the multi-equation
// wavefront C: both group assignments appear inside one skewed nest,
// under the same preimage guard, in group order.
func TestGeneratedCMultiKernelWavefrontShape(t *testing.T) {
	prog, err := parser.ParseProgram("t.ps", psrc.CoupledGrid)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := cp.Module("CoupledGrid")
	schd, err := core.Build(depgraph.Build(m))
	if err != nil {
		t.Fatal(err)
	}
	pl := plan.Lower(m, schd, plan.Options{Hyperplane: true})
	if !pl.HasWavefront() {
		t.Fatal("auto-hyperplane lowering produced no wavefront step")
	}

	c, err := cgen.Generate(m, pl, cgen.Options{OpenMP: true})
	if err != nil {
		t.Fatal(err)
	}
	// One wavefront comment, two assignments inside it, exactly one
	// preimage guard: the group shares the nest.
	if n := strings.Count(c, "/* WAVEFRONT"); n != 1 {
		t.Errorf("C has %d wavefront nests, want 1:\n%s", n, c)
	}
	guardAt := strings.Index(c, "if (I >= I_lo && I <= I_hi && J >= J_lo && J <= J_hi)")
	if guardAt < 0 {
		t.Fatalf("C missing the preimage guard:\n%s", c)
	}
	inGuard := c[guardAt:]
	va := strings.Index(inGuard, "/* eq.2 */") // V's assignment (group order first)
	ua := strings.Index(inGuard, "/* eq.1 */")
	if va < 0 || ua < 0 || va > ua {
		t.Errorf("C does not run both kernels in group order inside the guard (eq.2 at %d, eq.1 at %d)", va, ua)
	}
}

// TestCompiledCMultiKernelWavefrontMatchesInterpreter compiles the
// multi-equation wavefront C — plain, and with its OpenMP pragmas with
// and without -fopenmp — and compares every element against the
// interpreter's sequential run.
func TestCompiledCMultiKernelWavefrontMatchesInterpreter(t *testing.T) {
	ccValidate(t, psrc.CoupledGrid, "CoupledGrid", plan.Options{Hyperplane: true},
		cgen.Options{}, [][]string{{"-O2"}}, 9, 3, true)
	ccValidate(t, psrc.CoupledGrid, "CoupledGrid", plan.Options{Hyperplane: true},
		cgen.Options{OpenMP: true},
		[][]string{{"-O2"}, {"-fopenmp", "-O2"}}, 9, 3, true)
}

// TestGeneratedCMinMaxNaN pins the NaN and signed-zero semantics of
// real min/max in the generated C. The interpreter evaluates them with
// Go's math.Min/math.Max, which propagate NaN and order -0 below +0;
// C's fmin/fmax ignore NaN operands, so the generator must emit its
// own ps_fmin/ps_fmax helpers instead of calling libm. Structurally
// the output must define the helpers and never call bare fmin/fmax;
// behaviourally the compiled code must return NaN for min(x, NaN) and
// +0 for max(+0, -0), bitwise-matching the interpreter.
func TestGeneratedCMinMaxNaN(t *testing.T) {
	src := `
MinMax: module (A: array[I] of real; N: int):
    [Lo2: array[I] of real; Hi2: array[I] of real];
type I = 1 .. N;
define
    Lo2[I] = min(A[I], (A[I] - A[I]) / (A[I] - A[I]));
    Hi2[I] = max(A[I] * 0.0, -(A[I] * 0.0));
end MinMax;
`
	c, _, _ := generate(t, src, "MinMax", cgen.Options{})
	for _, want := range []string{
		"static inline double ps_fmin(double a, double b)",
		"static inline double ps_fmax(double a, double b)",
		"ps_fmin(", "ps_fmax(",
	} {
		if !strings.Contains(c, want) {
			t.Errorf("generated C missing %q", want)
		}
	}
	for _, banned := range []string{" fmin(", " fmax(", "=fmin(", "=fmax(", " = fmin", " = fmax"} {
		if strings.Contains(c, banned) {
			t.Errorf("generated C calls libm %q, which drops NaN operands", strings.TrimLeft(banned, " ="))
		}
	}

	ccPath, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no C compiler in PATH")
	}
	const n = int64(6)
	prog, err := parser.ParseProgram("t.ps", src)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := interp.Compile(cp)
	if err != nil {
		t.Fatal(err)
	}
	in := value.NewArray(types.RealKind, []value.Axis{{Lo: 1, Hi: n}})
	for i := int64(1); i <= n; i++ {
		in.SetF([]int64{i}, float64(i-3)/4.0)
	}
	res, err := ip.Run("MinMax", []any{in, n}, interp.Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}

	main := fmt.Sprintf(`
#include <stdio.h>
int main(void) {
    long N = %d;
    double in[%d];
    for (long i = 0; i < N; i++) in[i] = (double)(i - 2) / 4.0;
    MinMax_result r = MinMax(in, N);
    for (long i = 0; i < N; i++)
        if (isnan(r.Lo2[i])) printf("NaN\n"); else printf("%%.17g\n", r.Lo2[i]);
    for (long i = 0; i < N; i++)
        if (isnan(r.Hi2[i])) printf("NaN\n"); else printf("%%.17g\n", r.Hi2[i]);
    return 0;
}
`, n, n)
	dir := t.TempDir()
	cFile := filepath.Join(dir, "minmax.c")
	if err := os.WriteFile(cFile, []byte(c+main), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "minmax")
	if out, err := exec.Command(ccPath, "-O2", "-o", bin, cFile, "-lm").CombinedOutput(); err != nil {
		t.Fatalf("cc: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).Output()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(strings.TrimSpace(string(out)))
	if len(lines) != int(2*n) {
		t.Fatalf("C binary printed %d values, want %d", len(lines), 2*n)
	}
	for ri, name := range []string{"Lo2", "Hi2"} {
		want := res[ri].(*value.Array)
		for i := int64(1); i <= n; i++ {
			line := lines[int64(ri)*n+i-1]
			iv := want.GetF([]int64{i})
			if line == "NaN" {
				if !math.IsNaN(iv) {
					t.Errorf("%s[%d]: C NaN, interpreter %g", name, i, iv)
				}
				continue
			}
			cv, err := strconv.ParseFloat(line, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if math.IsNaN(iv) || math.Float64bits(cv) != math.Float64bits(iv) {
				t.Errorf("%s[%d]: C %g (%#x), interpreter %g (%#x)", name, i, cv, math.Float64bits(cv), iv, math.Float64bits(iv))
			}
		}
	}
}
