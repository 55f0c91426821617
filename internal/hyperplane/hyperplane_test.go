package hyperplane_test

import (
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/hyperplane"
	"repro/internal/parser"
	"repro/internal/sem"
)

func analyzeGS(t *testing.T) (*sem.Module, *hyperplane.Analysis) {
	t.Helper()
	prog, err := parser.ParseProgram("gs.ps", repro.Source("gauss_seidel"))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	m := cp.Modules[0]
	var eq *sem.Equation
	for _, e := range m.Eqs {
		if e.Label == "eq.3" {
			eq = e
		}
	}
	an, err := hyperplane.Analyze(m, eq)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return m, an
}

// TestDependenceVectors checks the five dependence vectors of the §4
// recurrence: (1,0,0), (0,0,1), (0,1,0), (1,0,-1), (1,-1,0).
func TestDependenceVectors(t *testing.T) {
	_, an := analyzeGS(t)
	want := map[string]bool{
		"(1,0,0)": true, "(0,0,1)": true, "(0,1,0)": true,
		"(1,0,-1)": true, "(1,-1,0)": true,
	}
	if len(an.Deps) != 5 {
		t.Fatalf("got %d dependences, want 5", len(an.Deps))
	}
	for _, d := range an.Deps {
		if !want[d.String()] {
			t.Errorf("unexpected dependence %s", d)
		}
		delete(want, d.String())
	}
	for s := range want {
		t.Errorf("missing dependence %s", s)
	}
}

// TestTimeVectorCoefficients checks the paper's least solution a=2, b=c=1
// for the five dependence inequalities.
func TestTimeVectorCoefficients(t *testing.T) {
	_, an := analyzeGS(t)
	if len(an.Pi) != 3 || an.Pi[0] != 2 || an.Pi[1] != 1 || an.Pi[2] != 1 {
		t.Errorf("time vector %v, want [2 1 1]", an.Pi)
	}
	if got := an.TimeEquation(); got != "t(A[K,I,J]) = 2K + I + J" {
		t.Errorf("time equation %q", got)
	}
	ineqs := strings.Join(an.Inequalities(), "; ")
	for _, want := range []string{"a > 0", "c > 0", "b > 0", "a > c", "a > b"} {
		if !strings.Contains(ineqs, want) {
			t.Errorf("inequalities %q missing %q", ineqs, want)
		}
	}
}

// TestUnimodularCompletion checks T = [[2,1,1],[1,0,0],[0,1,0]] (K'=2K+I+J,
// I'=K, J'=I) and its inverse (K=I', I=J', J=K'-2I'-J').
func TestUnimodularCompletion(t *testing.T) {
	_, an := analyzeGS(t)
	if got := an.T.String(); got != "[2 1 1]; [1 0 0]; [0 1 0]" {
		t.Errorf("T = %s, want [2 1 1]; [1 0 0]; [0 1 0]", got)
	}
	if got := an.TInv.String(); got != "[0 1 0]; [0 0 1]; [1 -2 -1]" {
		t.Errorf("T⁻¹ = %s, want [0 1 0]; [0 0 1]; [1 -2 -1]", got)
	}
}

// TestTransformedOffsets checks the §4 rewritten recurrence: the boundary
// reference becomes offset (2,1,0) and the interior references (1,0,0),
// (1,0,1), (1,1,0) and (1,1,-1) — i.e. A'[K'-2,I'-1,J'], A'[K'-1,I',J'],
// A'[K'-1,I',J'-1], A'[K'-1,I'-1,J'], A'[K'-1,I'-1,J'+1].
func TestTransformedOffsets(t *testing.T) {
	_, an := analyzeGS(t)
	want := map[string]bool{
		"(2,1,0)": true, "(1,0,0)": true, "(1,0,1)": true,
		"(1,1,0)": true, "(1,1,-1)": true,
	}
	for _, d := range an.TransformedDeps {
		if !want[d.String()] {
			t.Errorf("unexpected transformed dependence %s", d)
		}
		delete(want, d.String())
	}
	for s := range want {
		t.Errorf("missing transformed dependence %s", s)
	}
	if an.Window != 3 {
		t.Errorf("window %d, want 3 (references reach K'-2)", an.Window)
	}
}

// TestRescheduleAfterTransform applies the full §4 transformation and
// verifies that rescheduling recovers the Figure 6 shape: the recurrence
// becomes DO <time> (DOALL (DOALL)), where the untransformed program was
// the all-iterative Figure 7.
func TestRescheduleAfterTransform(t *testing.T) {
	_, an := analyzeGS(t)
	res, err := hyperplane.Transform(an)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	prog, err := parser.ParseProgram("gsh.ps", res.Source)
	if err != nil {
		t.Fatalf("reparse transformed module: %v\nsource:\n%s", err, res.Source)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("recheck transformed module: %v\nsource:\n%s", err, res.Source)
	}
	sched, err := core.Build(depgraph.Build(cp.Modules[0]))
	if err != nil {
		t.Fatalf("reschedule: %v\nsource:\n%s", err, res.Source)
	}
	got := sched.Flowchart.Compact()
	want := "DOALL I (DOALL J (eq.1)); DO Kt (DOALL K (DOALL I (eq.3))); DOALL I (DOALL J (eq.2))"
	if got != want {
		t.Errorf("transformed schedule:\n got:  %s\n want: %s\nsource:\n%s", got, want, res.Source)
	}
}

// TestTransformedSourceShape spot-checks the printed transformed module
// against the paper's rewritten equation.
func TestTransformedSourceShape(t *testing.T) {
	_, an := analyzeGS(t)
	res, err := hyperplane.Transform(an)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	for _, want := range []string{
		"At[Kt,K,I]",                  // transformed recurrence LHS
		"At[Kt - 2,K - 1,I]",          // boundary carry A'[K'-2,I'-1,J']
		"At[Kt - 1,K,I]",              // interior A'[K'-1,I',J']
		"At[Kt - 1,K,I - 1]",          // A'[K'-1,I',J'-1]
		"At[Kt - 1,K - 1,I]",          // A'[K'-1,I'-1,J']
		"At[Kt - 1,K - 1,I + 1]",      // A'[K'-1,I'-1,J'+1]
		"At[I + J + 2,1,I]",           // rotation of the input plane (K'=2·1+I+J)
		"At[2 * maxK + I + J,maxK,I]", // unrotation into the result
	} {
		if !strings.Contains(res.Source, want) {
			t.Errorf("transformed source missing %q\nsource:\n%s", want, res.Source)
		}
	}
}

// TestSolveTimeVector exercises the solver on hand-checked systems.
func TestSolveTimeVector(t *testing.T) {
	cases := []struct {
		name string
		deps [][]int64
		want []int64
	}{
		{"paper", [][]int64{{1, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 0, -1}, {1, -1, 0}}, []int64{2, 1, 1}},
		{"forward-only", [][]int64{{1, 0}, {0, 1}}, []int64{1, 1}},
		{"single-dim", [][]int64{{2}}, []int64{1}},
		{"skewed", [][]int64{{1, -2}}, []int64{1, 0}},
		{"wavefront", [][]int64{{1, 0}, {0, 1}, {1, 1}}, []int64{1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := hyperplane.SolveTimeVector(tc.deps)
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestSolveInfeasible checks error reporting for unsatisfiable systems.
func TestSolveInfeasible(t *testing.T) {
	if _, err := hyperplane.SolveTimeVector([][]int64{{1, 0}, {-1, 0}}); err == nil {
		t.Error("opposing dependences: expected error")
	}
	if _, err := hyperplane.SolveTimeVector([][]int64{{0, 0}}); err == nil {
		t.Error("zero dependence: expected error")
	}
}

// TestAnalyzeRejects verifies diagnostics for non-transformable equations.
func TestAnalyzeRejects(t *testing.T) {
	prog, err := parser.ParseProgram("jacobi.ps", repro.Source("relaxation"))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := cp.Modules[0]
	// eq.2 (newA = A[maxK]) has no self-references.
	var eq2 *sem.Equation
	for _, e := range m.Eqs {
		if e.Label == "eq.2" {
			eq2 = e
		}
	}
	if _, err := hyperplane.Analyze(m, eq2); err == nil {
		t.Error("expected Analyze to reject an equation without self-references")
	}
	_ = ast.ExprString // keep import for doc reference
}

// groupModule compiles a two-recurrence module and returns it with the
// labeled equations in the requested order.
func groupModule(t *testing.T, src string, labels ...string) (*sem.Module, []*sem.Equation) {
	t.Helper()
	prog, err := parser.ParseProgram("group.ps", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	m := cp.Modules[0]
	eqs := make([]*sem.Equation, len(labels))
	for i, l := range labels {
		for _, e := range m.Eqs {
			if e.Label == l {
				eqs[i] = e
			}
		}
		if eqs[i] == nil {
			t.Fatalf("no equation %s", l)
		}
	}
	return m, eqs
}

const coupledSrc = `
Coupled: module (Seed: array[I,J] of real; N: int):
    [OutU: array [I,J] of real; OutV: array [I,J] of real];
type
    I,J = 1 .. N;
var
    U: array [1 .. N, 1 .. N] of real;
    V: array [1 .. N, 1 .. N] of real;
define
    (*eq.1*) U[I,J] = if (I = 1) or (J = 1) or (J = N)
             then Seed[I,J]
             else (U[I-1,J+1] + V[I,J-1]) / 2.0;
    (*eq.2*) V[I,J] = if (I = 1) or (J = 1) or (J = N)
             then 0.5 * Seed[I,J]
             else (V[I-1,J+1] + U[I,J-1]) / 2.0;
    (*eq.3*) OutU[I,J] = U[I,J];
    (*eq.4*) OutV[I,J] = V[I,J];
end Coupled;
`

// TestAnalyzeGroupUnion checks the multi-equation analysis: the union
// of both equations' dependence vectors — self references and cross
// references alike — feeds one time-vector solve.
func TestAnalyzeGroupUnion(t *testing.T) {
	m, eqs := groupModule(t, coupledSrc, "eq.1", "eq.2")
	an, err := hyperplane.AnalyzeGroup(m, eqs)
	if err != nil {
		t.Fatalf("AnalyzeGroup: %v", err)
	}
	if len(an.Eqs) != 2 || len(an.Arrays) != 2 {
		t.Fatalf("group carries %d eqs / %d arrays, want 2 / 2", len(an.Eqs), len(an.Arrays))
	}
	// Four dependences: U self (1,-1), V->U (0,1), V self (1,-1), U->V (0,1).
	got := map[string]int{}
	for _, d := range an.Deps {
		got[d.String()]++
	}
	if got["(1,-1)"] != 2 || got["(0,1)"] != 2 || len(an.Deps) != 4 {
		t.Errorf("dependence union = %v, want two (1,-1) and two (0,1)", got)
	}
	// Cross dependences must record writer and reader group indices.
	cross := 0
	for _, d := range an.Deps {
		if d.From != d.To {
			cross++
		}
	}
	if cross != 2 {
		t.Errorf("%d cross dependences recorded, want 2", cross)
	}
	if want := []int64{2, 1}; an.Pi[0] != want[0] || an.Pi[1] != want[1] {
		t.Errorf("pi = %v, want %v", an.Pi, want)
	}
	if an.Window != 2 {
		t.Errorf("window = %d, want 2", an.Window)
	}
}

// TestAnalyzeGroupZeroDistance checks the in-plane ordering rule: a
// zero-distance reference is legal exactly when the producer runs
// earlier in group order.
func TestAnalyzeGroupZeroDistance(t *testing.T) {
	src := `
Pair: module (Seed: array[I,J] of real; N: int):
    [OutA: array [I,J] of real; OutB: array [I,J] of real];
type
    I,J = 0 .. N+1;
var
    A: array [0 .. N+1, 0 .. N+1] of real;
    B: array [0 .. N+1, 0 .. N+1] of real;
define
    (*eq.1*) A[I,J] = if (I = 0) or (J = 0) then Seed[I,J]
             else (A[I-1,J] + A[I,J-1]) / 2.0;
    (*eq.2*) B[I,J] = if (I = 0) or (J = 0) then Seed[I,J]
             else (B[I-1,J] + B[I,J-1]) / 2.0 + A[I,J];
    (*eq.3*) OutA[I,J] = A[I,J];
    (*eq.4*) OutB[I,J] = B[I,J];
end Pair;
`
	m, eqs := groupModule(t, src, "eq.1", "eq.2")
	an, err := hyperplane.AnalyzeGroup(m, eqs)
	if err != nil {
		t.Fatalf("forward zero-distance reference rejected: %v", err)
	}
	// The A[I,J] read contributes no dependence vector; only the four
	// self dependences constrain pi.
	if len(an.Deps) != 4 {
		t.Errorf("got %d dependences, want 4 (zero-distance read excluded)", len(an.Deps))
	}
	if want := []int64{1, 1}; an.Pi[0] != want[0] || an.Pi[1] != want[1] {
		t.Errorf("pi = %v, want %v", an.Pi, want)
	}
	// Reversed group order: the zero-distance read now flows backward
	// (B would read A before A's kernel ran at the point).
	if _, err := hyperplane.AnalyzeGroup(m, []*sem.Equation{eqs[1], eqs[0]}); err == nil {
		t.Error("backward zero-distance reference accepted")
	}
}

// TestAnalyzeGroupRejects pins the remaining group-eligibility rules.
func TestAnalyzeGroupRejects(t *testing.T) {
	m, eqs := groupModule(t, coupledSrc, "eq.1", "eq.2")
	if _, err := hyperplane.AnalyzeGroup(m, nil); err == nil {
		t.Error("empty group accepted")
	}
	// A group member defining a second group member's array is
	// impossible; but duplicating one equation reuses its target.
	if _, err := hyperplane.AnalyzeGroup(m, []*sem.Equation{eqs[0], eqs[0]}); err == nil {
		t.Error("duplicate-target group accepted")
	}
	// eq.3 iterates the same dims but OutU has no recurrence; grouping
	// it with eq.1 leaves U's cross reference V unresolved — V is not
	// defined in the group, so only U's self dependence remains and the
	// analysis still succeeds. Grouping eq.3 with eq.4 alone has no
	// dependences at all and must be refused.
	om, out := groupModule(t, coupledSrc, "eq.3", "eq.4")
	if _, err := hyperplane.AnalyzeGroup(om, out); err == nil {
		t.Error("dependence-free group accepted")
	}

	// A non-constant-offset cross reference (reflected column) must be
	// refused even though the nest schedules sequentially.
	reflSrc := `
Reflect: module (Seed: array[I,J] of real; N: int):
    [OutX: array [I,J] of real; OutY: array [I,J] of real];
type
    I,J = 1 .. N;
var
    X: array [1 .. N, 1 .. N] of real;
    Y: array [1 .. N, 1 .. N] of real;
define
    (*eq.1*) X[I,J] = if (I = 1) or (J = 1) then Seed[I,J]
             else (X[I-1,J] + Y[I,J-1]) / 2.0;
    (*eq.2*) Y[I,J] = if (I = 1) or (J = 1) then 0.5 * Seed[I,J]
             else (Y[I-1,J] + X[I,J-1] + X[I-1, N+1-J]) / 3.0;
    (*eq.3*) OutX[I,J] = X[I,J];
    (*eq.4*) OutY[I,J] = Y[I,J];
end Reflect;
`
	rm, reqs := groupModule(t, reflSrc, "eq.1", "eq.2")
	if _, err := hyperplane.AnalyzeGroup(rm, reqs); err == nil {
		t.Error("non-constant-offset group reference accepted")
	}
	if !strings.Contains(fmt.Sprint(mustErr(t, rm, reqs)), "constant-offset") {
		t.Errorf("rejection should name the constant-offset rule: %v", mustErr(t, rm, reqs))
	}
}

func mustErr(t *testing.T, m *sem.Module, eqs []*sem.Equation) error {
	t.Helper()
	_, err := hyperplane.AnalyzeGroup(m, eqs)
	if err == nil {
		t.Fatal("expected error")
	}
	return err
}
