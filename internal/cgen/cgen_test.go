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

	"repro"
	"repro/internal/cgen"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/plan"
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
	c, err := cgen.Generate(m, lowerer(t, plan.Options{}), opts)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return c, m, sched
}

// lowerer returns the planOf of cgen.Generate: each module scheduled
// and lowered under opts.
func lowerer(t *testing.T, opts plan.Options) func(*sem.Module) *plan.Program {
	return func(m *sem.Module) *plan.Program {
		sched, err := core.Build(depgraph.Build(m))
		if err != nil {
			t.Fatalf("schedule %s: %v", m.Name, err)
		}
		return plan.Lower(m, sched, opts)
	}
}

// TestGeneratedCShape checks the structural properties the paper
// describes: annotated DO/DOALL loops and the window-2 allocation.
func TestGeneratedCShape(t *testing.T) {
	c, _, _ := generate(t, repro.Source("relaxation"), "Relaxation", cgen.Options{OpenMP: true})
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

// ccBuild is one way ccValidate builds the generated C: the generator
// options and the cc flags.
type ccBuild struct {
	gen   cgen.Options
	flags []string
}

// ccCase is one module ccValidate builds: its source and name, the
// arguments the interpreter runs it on, and a C main that calls it on
// the same inputs and prints every element of its array results, one
// per line, result after result, each in row-major order.
type ccCase struct {
	src, module string
	args        []any
	main        string
}

// gridCase is the (M, maxK)-shaped case of the module modName of src: a
// main that seeds the standard (M+2)² grid, passes it with M and maxK,
// and prints the result newA.
func gridCase(src, modName string, m, maxK int64) ccCase {
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
	return ccCase{src, modName, []any{in, m, maxK}, fmt.Sprintf(`
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
`, m, maxK, modName, modName)}
}

// rowCase is the case of a module taking Xs over [0, N+1] and N: a main
// that seeds Xs[i] = ((31i + 7) mod 19)/19 − 1/4 and prints the named
// array results, each over [0, N+1].
func rowCase(src, modName string, n int64, results ...string) ccCase {
	xs := value.NewArray(types.RealKind, []value.Axis{{Lo: 0, Hi: n + 1}})
	for i := int64(0); i <= n+1; i++ {
		xs.SetF([]int64{i}, float64((i*31+7)%19)/19.0-0.25)
	}
	var prints strings.Builder
	for _, r := range results {
		fmt.Fprintf(&prints, "    for (long i = 0; i <= N+1; i++) printf(\"%%.17g\\n\", r.%s[i]);\n", r)
	}
	return ccCase{src, modName, []any{xs, n}, fmt.Sprintf(`
#include <stdio.h>
int main(void) {
    long N = %d;
    double *Xs = malloc(sizeof(double)*(N+2));
    for (long i = 0; i <= N+1; i++) Xs[i] = (double)((i*31+7)%%19)/19.0 - 0.25;
    %s_result r = %s(Xs, N);
%s    return 0;
}
`, n, modName, modName, prints.String())}
}

// elements lists every element of an array in row-major order, boxed
// as Array.Get returns it: a real as float64, an integer-backed element
// (int, char, enum) as int64.
func elements(a *value.Array) []any {
	var out []any
	idx := make([]int64, a.Rank())
	var walk func(d int)
	walk = func(d int) {
		if d == len(idx) {
			out = append(out, a.Get(idx))
			return
		}
		for idx[d] = a.Axes[d].Lo; idx[d] <= a.Axes[d].Hi; idx[d]++ {
			walk(d + 1)
		}
	}
	walk(0)
	return out
}

// sameElement reports whether line, one value a C main printed (%.17g
// for a real, %ld for an integer-backed element), equals want bitwise.
// All NaNs are equal: C and Go produce different payloads and signs.
func sameElement(line string, want any) (bool, error) {
	switch w := want.(type) {
	case int64:
		v, err := strconv.ParseInt(line, 10, 64)
		return v == w, err
	case float64:
		if strings.TrimPrefix(line, "-") == "nan" {
			return math.IsNaN(w), nil
		}
		v, err := strconv.ParseFloat(line, 64)
		return math.Float64bits(v) == math.Float64bits(w), err
	}
	return false, fmt.Errorf("element of type %T", want)
}

// ccValidate is the shared compile-run-compare harness for the cc
// validation tests: it generates C for the case's module under planOpts
// and each build's generator options, appends the case's main, builds
// it with the build's cc flags, runs the binary with OMP_NUM_THREADS 1,
// 2 and 3, and requires every printed element of every run to be
// bitwise equal to the interpreter's sequential result, all NaNs
// counted equal. A build with -fopenmp that fails to compile is logged
// and skipped (old compilers); every other build failure is fatal.
// Skipped entirely when no C compiler is installed.
func ccValidate(t *testing.T, c ccCase, planOpts plan.Options, builds []ccBuild, requireWavefront bool) {
	t.Helper()
	ccPath, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no C compiler in PATH")
	}
	prog, err := parser.ParseProgram("t.ps", c.src)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	mod := cp.Module(c.module)
	planOf := lowerer(t, planOpts)
	if requireWavefront && !planOf(mod).HasWavefront() {
		t.Fatal("auto-hyperplane lowering produced no wavefront step")
	}

	ip, err := interp.Compile(cp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ip.Run(c.module, c.args, interp.Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	var want []any
	for _, r := range res {
		if a, ok := r.(*value.Array); ok {
			want = append(want, elements(a)...)
		}
	}

	dir := t.TempDir()
	for vi, b := range builds {
		cSrc, err := cgen.Generate(mod, planOf, b.gen)
		if err != nil {
			t.Fatal(err)
		}
		cFile := filepath.Join(dir, fmt.Sprintf("mod_%d.c", vi))
		if err := os.WriteFile(cFile, []byte(cSrc+c.main), 0o644); err != nil {
			t.Fatal(err)
		}
		bin := filepath.Join(dir, fmt.Sprintf("mod_%d", vi))
		args := append(append([]string{}, b.flags...), "-o", bin, cFile, "-lm")
		if out, err := exec.Command(ccPath, args...).CombinedOutput(); err != nil {
			if slices.Contains(b.flags, "-fopenmp") {
				t.Logf("cc has no -fopenmp (%v); skipping that variant\n%s", err, out)
				continue
			}
			t.Fatalf("cc %v failed: %v\n%s\n--- generated C ---\n%s", b.flags, err, out, cSrc)
		}
		for _, threads := range []string{"1", "2", "3"} {
			run := exec.Command(bin)
			run.Env = append(os.Environ(), "OMP_NUM_THREADS="+threads)
			got, err := run.Output()
			if err != nil {
				t.Fatalf("run (%v, %s threads): %v", b.flags, threads, err)
			}
			lines := strings.Fields(strings.TrimSpace(string(got)))
			if len(lines) != len(want) {
				t.Fatalf("C binary printed %d values, want %d", len(lines), len(want))
			}
			for k, line := range lines {
				same, err := sameElement(line, want[k])
				if err != nil {
					t.Fatalf("parse %q: %v", line, err)
				}
				if !same {
					t.Fatalf("cc %v, %s threads, element %d: C %s, interpreter %v", b.flags, threads, k, line, want[k])
				}
			}
		}
	}
}

// ompBuilds are the builds of a module's C: plain, its OpenMP pragmas
// without -fopenmp (a wavefront runs one tile), and with -fopenmp (its
// parallel loops and tile grid run by real threads).
var ompBuilds = []ccBuild{
	{cgen.Options{}, []string{"-O2"}},
	{cgen.Options{OpenMP: true}, []string{"-O2"}},
	{cgen.Options{OpenMP: true}, []string{"-O2", "-fopenmp"}},
}

// TestCompiledCMatchesInterpreter generates C for the relaxation module,
// compiles it with the system C compiler, runs it, and compares every
// element against the interpreter — validating the paper's actual
// artifact end to end.
func TestCompiledCMatchesInterpreter(t *testing.T) {
	ccValidate(t, gridCase(repro.Source("relaxation"), "Relaxation", 8, 5), plan.Options{},
		[]ccBuild{{cgen.Options{}, []string{"-O2"}}}, false)
}

// wavefrontC lowers modName of src with the cascade and generates its C
// with OpenMP pragmas.
func wavefrontC(t *testing.T, src, modName string) string {
	t.Helper()
	prog, err := parser.ParseProgram("t.ps", src)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := cp.Module(modName)
	planOf := lowerer(t, plan.Options{Hyperplane: true})
	if !planOf(m).HasWavefront() {
		t.Fatal("auto-hyperplane lowering produced no wavefront step")
	}
	c, err := cgen.Generate(m, planOf, cgen.Options{OpenMP: true})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkTileForm checks the wavefront C of a module with one wavefront
// nest: one diagonal loop with one parallel loop over its tiles, and
// none of the hyperplane sweep's plane loop, T⁻¹ remap or preimage
// guard. It returns the nest's text from its tile loop on.
func checkTileForm(t *testing.T, c string) string {
	t.Helper()
	for _, want := range []string{
		"const long wf_p = omp_get_max_threads();",
		"for (long wf_d = 0; wf_d < wf_n_0 + wf_n_1 - 1; wf_d++) {",
	} {
		if n := strings.Count(c, want); n != 1 {
			t.Errorf("wavefront C has %d of %q, want 1:\n%s", n, want, c)
		}
	}
	diag := c[strings.Index(c, "for (long wf_d"):]
	at := strings.Index(diag, "#pragma")
	pragma, tiles, _ := strings.Cut(diag[at:], "\n")
	tiles, _, _ = strings.Cut(tiles, "\n")
	if pragma != "#pragma omp parallel for" || strings.TrimSpace(tiles) != "for (long wf_a = wf_a_lo; wf_a <= wf_a_hi; wf_a++) {" {
		t.Fatalf("the diagonal loop's first pragma is not one parallel for over its tiles:\n%s", diag)
	}
	for _, banned := range []string{"wf_0", "wf_box", "collapse", "_lo && "} {
		if strings.Contains(diag[:strings.Index(diag, "/* DOALL")], banned) {
			t.Errorf("wavefront C still holds %q of the hyperplane sweep:\n%s", banned, c)
		}
	}
	return diag[at:]
}

// TestGeneratedCWavefrontShape checks the auto-hyperplane C output for
// Gauss–Seidel: the interpreter's tile form — tiles of the skewed
// coordinates (K, K + I), one diagonal at a time with one OpenMP loop
// over the diagonal's tiles, each tile clipped to the box — with rows
// along J. Gauss–Seidel's rows split; with one equation that is one row
// loop, so Mutual's two split equations pin one row loop each, in body
// order.
func TestGeneratedCWavefrontShape(t *testing.T) {
	c := wavefrontC(t, repro.Source("gauss_seidel"), "Relaxation")
	for _, want := range []string{
		"/* WAVEFRONT K, I, J: t = 2*K + I + J, window 3 */",
		"const long wf_lo_1 = K_lo + I_lo, wf_hi_1 = K_hi + I_hi, wf_per_1 = wf_p > 1 ? 4*wf_p : 1;",
	} {
		if !strings.Contains(c, want) {
			t.Errorf("wavefront C missing %q\n%s", want, c)
		}
	}
	tile := checkTileForm(t, c)
	at := 0
	for _, want := range []string{
		"for (long K = ps_lmax(K_lo, wf_tlo_0); K <= ps_lmin(K_hi, wf_thi_0); K++) {",
		"for (long I = ps_lmax(I_lo, wf_tlo_1 - (K)); I <= ps_lmin(I_hi, wf_thi_1 - (K)); I++) {",
		"for (long J = J_lo; J <= J_hi; J++) {",
		"/* eq.3 */",
	} {
		i := strings.Index(tile[at:], want)
		if i < 0 {
			t.Fatalf("tile nest missing %q after offset %d:\n%s", want, at, tile)
		}
		at += i
	}
	// The transformed subrange's window must be dropped: the wavefront
	// interleaves K planes, so A is allocated physically.
	if strings.Contains(c, "virtual: window") {
		t.Errorf("wavefront C still window-allocates the transformed array:\n%s", c)
	}

	src, err := os.ReadFile("../../testdata/mutual.ps")
	if err != nil {
		t.Fatal(err)
	}
	tile = checkTileForm(t, wavefrontC(t, string(src), "Mutual"))
	rows := strings.Split(tile, "for (long J = ps_lmax(J_lo, wf_tlo_1); J <= ps_lmin(J_hi, wf_thi_1); J++) {")
	if len(rows) != 3 || !strings.Contains(rows[1], "/* eq.2 */") || strings.Contains(rows[1], "/* eq.1 */") ||
		!strings.Contains(rows[2], "/* eq.1 */") {
		t.Errorf("Mutual's split rows are not one row loop per equation, eq.2 first:\n%s", tile)
	}
}

// TestCompiledCWavefrontMatchesInterpreter compiles the auto-hyperplane
// C for the Gauss-Seidel module with the system C compiler — plain, and
// with OpenMP at 1, 2 and 3 threads — runs it, and compares every
// element against the interpreter's sequential run: the tile grid
// validated end to end through the C backend.
func TestCompiledCWavefrontMatchesInterpreter(t *testing.T) {
	ccValidate(t, gridCase(repro.Source("gauss_seidel"), "Relaxation", 9, 6), plan.Options{Hyperplane: true},
		ompBuilds, true)
}

// sharedEnum declares one enum in a callee and in its caller.
const sharedEnum = `
Pick: module (K: int; N: int): [Y: array [I] of real];
type
    Light = (Red, Green, Blue);
    I = 0 .. N;
define
    Y[I] = if ord(Red) = K then 1.0 else 2.0;
end Pick;
Main: module (K: int; N: int): [Z: array [I] of real];
type
    Light = (Red, Green, Blue);
    I = 0 .. N;
define
    Z = Pick(K + ord(Green), N);
end Main;
`

// clashingEnums declares in a callee an enum its caller declares in
// another order, and one that shares a constant with another of the
// caller's: C must give each its own ordinals.
const clashingEnums = `
Pick: module (Xs: array [I] of real; N: int): [Y: array [I] of real];
type
    Light = (Red, Green, Blue);
    Tone = (Amber, Dark);
    I = 0 .. N + 1;
define
    Y[I] = Xs[I] + ord(Green) + 10 * ord(Dark);
end Pick;
Main: module (Xs: array [I] of real; N: int): [Z: array [I] of real];
type
    Light = (Green, Red, Blue);
    Shade = (Dark, Pale);
    I = 0 .. N + 1;
var
    Y: array [I] of real;
define
    Y = Pick(Xs, N);
    Z[I] = Y[I] + 100 * ord(Green) + 1000 * ord(Blue) + 10000 * ord(Pale);
end Main;
`

// TestGeneratedCPipeline checks module-call code generation, single- and
// multi-target: one translation unit holds the callee as a static
// function ahead of its caller, under one prelude, and it compiles and
// runs bitwise equal to the interpreter.
func TestGeneratedCPipeline(t *testing.T) {
	out, _, _ := generate(t, repro.Source("pipeline"), "Pipeline", cgen.Options{})
	if !strings.Contains(out, "Smooth_result") || !strings.Contains(out, "= Smooth(") {
		t.Errorf("pipeline C missing module call:\n%s", out)
	}
	callee := strings.Index(out, "static Smooth_result Smooth(const double *Xs, long N)")
	caller := strings.Index(out, "\nPipeline_result Pipeline(const double *Xs, long N)")
	if callee < 0 || caller < callee {
		t.Errorf("pipeline C does not define static Smooth ahead of Pipeline:\n%s", out)
	}
	if n := strings.Count(out, "static inline double ps_fmin("); n != 1 {
		t.Errorf("pipeline C has %d preludes, want 1:\n%s", n, out)
	}
	// Call targets take the callee's result arrays: allocating them too
	// would leak one array per call.
	for _, target := range []string{"Mid", "Zs"} {
		if strings.Contains(out, "double *"+target+" = (double *)malloc(") {
			t.Errorf("pipeline C allocates call target %s:\n%s", target, out)
		}
	}
	if !strings.Contains(out, "double *Ys = (double *)malloc(") {
		t.Errorf("pipeline C does not allocate Smooth's result Ys:\n%s", out)
	}

	// Ls, Hs = Halves(Xs, N): both array targets take Halves' results.
	c, _, _ := generate(t, repro.Source("halves"), "Main", cgen.Options{})
	for _, want := range []string{
		"Halves_result call_eq_1_ = Halves(Xs, N); /* eq.1 */",
		"Ls = call_eq_1_.Ls;",
		"Hs = call_eq_1_.Hs;",
	} {
		if !strings.Contains(c, want) {
			t.Errorf("C missing %q:\n%s", want, c)
		}
	}
	main := c[strings.Index(c, "\nMain_result Main("):]
	if strings.Contains(main, "malloc(") {
		t.Errorf("C allocates a call target:\n%s", main)
	}

	// A caller and its callee that declare the same enum share its one
	// typedef: a second would redeclare the enumerators.
	c, _, _ = generate(t, sharedEnum, "Main", cgen.Options{})
	if n := strings.Count(c, "typedef enum { Red, Green, Blue } Light;"); n != 1 {
		t.Errorf("C declares Light %d times, want 1:\n%s", n, c)
	}

	// Enums that differ yet share a name or a constant cannot share C's
	// file scope: the callee's take its module's prefix.
	c, _, _ = generate(t, clashingEnums, "Main", cgen.Options{})
	for _, want := range []string{
		"typedef enum { Pick__Red, Pick__Green, Pick__Blue } Pick__Light;",
		"typedef enum { Pick__Amber, Pick__Dark } Pick__Tone;",
		"typedef enum { Green, Red, Blue } Light;",
	} {
		if !strings.Contains(c, want) {
			t.Errorf("C missing %q:\n%s", want, c)
		}
	}

	t.Run("Pipeline", func(t *testing.T) {
		ccValidate(t, rowCase(repro.Source("pipeline"), "Pipeline", 9, "Zs"), plan.Options{Hyperplane: true}, ompBuilds, false)
	})
	t.Run("Halves", func(t *testing.T) {
		ccValidate(t, rowCase(repro.Source("halves"), "Main", 9, "Ls", "Hs"), plan.Options{Hyperplane: true}, ompBuilds, false)
	})
	t.Run("ClashingEnums", func(t *testing.T) {
		ccValidate(t, rowCase(clashingEnums, "Main", 9, "Z"), plan.Options{Hyperplane: true}, ompBuilds, false)
	})
}

// TestGeneratedCMultiKernelWavefrontShape checks the multi-equation
// wavefront C: both group assignments share one tile nest, jammed in one
// row loop in group order (eq.2 before eq.1), since CoupledGrid's rows
// do not split.
func TestGeneratedCMultiKernelWavefrontShape(t *testing.T) {
	c := wavefrontC(t, repro.Source("coupled_grid"), "CoupledGrid")
	if n := strings.Count(c, "/* WAVEFRONT"); n != 1 {
		t.Errorf("C has %d wavefront nests, want 1:\n%s", n, c)
	}
	tile := checkTileForm(t, c)
	row := "for (long J = ps_lmax(J_lo, wf_tlo_1); J <= ps_lmin(J_hi, wf_thi_1); J++) {"
	if n := strings.Count(tile, row); n != 1 {
		t.Fatalf("tile nest has %d row loops, want 1 jammed row:\n%s", n, tile)
	}
	inRow := tile[strings.Index(tile, row):]
	va := strings.Index(inRow, "/* eq.2 */") // V's assignment (group order first)
	ua := strings.Index(inRow, "/* eq.1 */")
	if va < 0 || ua < 0 || va > ua || strings.Contains(inRow[:ua], "}") {
		t.Errorf("C does not run both kernels in group order inside one row loop (eq.2 at %d, eq.1 at %d)", va, ua)
	}
}

// TestCompiledCMultiKernelWavefrontMatchesInterpreter compiles the
// multi-equation wavefront C — plain, and with its OpenMP pragmas with
// and without -fopenmp — and compares every element against the
// interpreter's sequential run.
func TestCompiledCMultiKernelWavefrontMatchesInterpreter(t *testing.T) {
	ccValidate(t, gridCase(repro.Source("coupled_grid"), "CoupledGrid", 9, 3), plan.Options{Hyperplane: true},
		ompBuilds, true)
}

// TestCompiledCOperatorTable runs the C of the operator table
// testdata/ops.ps on the inputs of the interpreter's
// TestOperatorTableParity — NaN, ±Inf and −0.0 operands, negative
// div/mod, trunc/round at .5, char codes — plain and under OpenMP, and
// requires every element to equal the interpreter's sequential run.
func TestCompiledCOperatorTable(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	reals := [][]float64{
		{nan, negZero, 0, 1.5, -2.5, inf, -inf, 3, nan, negZero, 1e300, -7.25},
		{1, 0, negZero, nan, -2.5, 2, -inf, negZero, nan, negZero, 1e300, 0.5},
		{-2.5, -1.5, -0.5, 0.5, 1.5, 2.5, negZero, 0.49999999999999994, -3.7, 3.7, 1e15 + 0.5, -1e15 - 0.5},
	}
	ints := [][]int64{
		{-7, 7, -7, 7, 0, -1, 9, -9, 6, -6, 1 << 40, -(1 << 40)},
		{2, -2, -2, 2, 5, 1, -3, 3, 6, -6, 3, 7},
		{'a', 'z', 'Q', 'A', '{', '`', 'm', ' ', 'q', 'Z', '0', '~'},
	}
	n := int64(len(reals[0]))
	var args []any
	var main strings.Builder
	main.WriteString("\n#include <stdio.h>\n#include <string.h>\n")
	main.WriteString("static double bits(unsigned long long u) { double d; memcpy(&d, &u, sizeof d); return d; }\n")
	fmt.Fprintf(&main, "int main(void) {\n    long N = %d;\n", n)
	for k, v := range reals {
		a := value.NewArray(types.RealKind, []value.Axis{{Lo: 1, Hi: n}})
		copy(a.F, v)
		args = append(args, a)
		fmt.Fprintf(&main, "    double %s[] = {", []string{"Xs", "Ys", "Hs"}[k])
		for _, x := range v {
			fmt.Fprintf(&main, "bits(%#xULL), ", math.Float64bits(x))
		}
		main.WriteString("};\n")
	}
	for k, v := range ints {
		kind, ctype := types.IntKind, "long"
		if k == 2 {
			kind, ctype = types.CharKind, "char"
		}
		a := value.NewArray(kind, []value.Axis{{Lo: 1, Hi: n}})
		copy(a.I, v)
		args = append(args, a)
		fmt.Fprintf(&main, "    %s %s[] = {", ctype, []string{"Ps", "Qs", "Cs"}[k])
		for _, x := range v {
			fmt.Fprintf(&main, "%d, ", x)
		}
		main.WriteString("};\n")
	}
	args = append(args, n, 0.75, int64(-3), true)
	main.WriteString("    Ops_result r = Ops(Xs, Ys, Hs, Ps, Qs, Cs, N, 0.75, -3, 1);\n")
	for _, res := range []string{"RA", "RB", "RC", "RD", "RE", "RF", "RG", "RH"} {
		fmt.Fprintf(&main, "    for (long i = 0; i < N; i++) printf(\"%%.17g\\n\", r.%s[i]);\n", res)
	}
	for _, res := range []string{"IA", "IB", "IC", "ID", "IE", "IG"} {
		fmt.Fprintf(&main, "    for (long i = 0; i < N; i++) printf(\"%%ld\\n\", r.%s[i]);\n", res)
	}
	main.WriteString("    return 0;\n}\n")
	ccValidate(t, ccCase{repro.Source("ops"), "Ops", args, main.String()}, plan.Options{Hyperplane: true}, ompBuilds, false)
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

	const n = int64(6)
	in := value.NewArray(types.RealKind, []value.Axis{{Lo: 1, Hi: n}})
	for i := int64(1); i <= n; i++ {
		in.SetF([]int64{i}, float64(i-3)/4.0)
	}
	ccValidate(t, ccCase{src, "MinMax", []any{in, n}, fmt.Sprintf(`
#include <stdio.h>
int main(void) {
    long N = %d;
    double in[%d];
    for (long i = 0; i < N; i++) in[i] = (double)(i - 2) / 4.0;
    MinMax_result r = MinMax(in, N);
    for (long i = 0; i < N; i++) printf("%%.17g\n", r.Lo2[i]);
    for (long i = 0; i < N; i++) printf("%%.17g\n", r.Hi2[i]);
    return 0;
}
`, n, n)}, plan.Options{}, []ccBuild{{cgen.Options{}, []string{"-O2"}}}, false)
}
