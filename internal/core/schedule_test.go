package core_test

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/parser"
	"repro/internal/sem"
)

// compile parses, checks, builds the graph and schedules one module.
func compile(t *testing.T, src string) (*sem.Module, *core.Schedule) {
	t.Helper()
	prog, err := parser.ParseProgram("test.ps", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	m := cp.Modules[len(cp.Modules)-1]
	g := depgraph.Build(m)
	sched, err := core.Build(g)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	return m, sched
}

// TestFigure6Schedule verifies that the Jacobi relaxation module of
// Figure 1 schedules exactly as the paper's Figure 6.
func TestFigure6Schedule(t *testing.T) {
	_, sched := compile(t, repro.Source("relaxation"))
	got := sched.Flowchart.Compact()
	want := "DOALL I (DOALL J (eq.1)); DO K (DOALL I (DOALL J (eq.3))); DOALL I (DOALL J (eq.2))"
	if got != want {
		t.Errorf("Figure 6 schedule mismatch:\n got:  %s\n want: %s", got, want)
	}
}

// TestFigure7Schedule verifies that the Gauss–Seidel revision (the
// paper's Equation 2) schedules as the all-iterative nest of Figure 7.
func TestFigure7Schedule(t *testing.T) {
	_, sched := compile(t, repro.Source("gauss_seidel"))
	got := sched.Flowchart.Compact()
	want := "DOALL I (DOALL J (eq.1)); DO K (DO I (DO J (eq.3))); DOALL I (DOALL J (eq.2))"
	if got != want {
		t.Errorf("Figure 7 schedule mismatch:\n got:  %s\n want: %s", got, want)
	}
}

// TestFigure5Components verifies the component decomposition of the
// relaxation dependency graph: seven MSCCs, with eq.3 and A forming the
// only multi-node component, and the per-component flowcharts of the
// paper's Figure 5 table.
func TestFigure5Components(t *testing.T) {
	_, sched := compile(t, repro.Source("relaxation"))
	if len(sched.Components) != 7 {
		for _, c := range sched.Components {
			t.Logf("component %d: {%s}", c.Index, c.NodeNames())
		}
		t.Fatalf("got %d components, want 7", len(sched.Components))
	}
	wantFlow := map[string]string{
		"InitialA": "",
		"M":        "",
		"maxK":     "",
		"newA":     "",
		"eq.1":     "DOALL I (DOALL J (eq.1))",
		"eq.2":     "DOALL I (DOALL J (eq.2))",
		"A, eq.3":  "DO K (DOALL I (DOALL J (eq.3)))",
	}
	seen := make(map[string]bool)
	for _, c := range sched.Components {
		names := c.NodeNames()
		want, ok := wantFlow[names]
		if !ok {
			t.Errorf("unexpected component {%s}", names)
			continue
		}
		seen[names] = true
		if got := c.Flowchart.Compact(); got != want {
			t.Errorf("component {%s}: flowchart %q, want %q", names, got, want)
		}
	}
	for names := range wantFlow {
		if !seen[names] {
			t.Errorf("missing component {%s}", names)
		}
	}
}

// TestVirtualWindowJacobi verifies §3.4: the first dimension of A is
// virtual with a window of two planes, and no other dimension is virtual.
func TestVirtualWindowJacobi(t *testing.T) {
	m, sched := compile(t, repro.Source("relaxation"))
	if len(sched.Virtual) != 1 {
		t.Fatalf("got %d virtual dimensions, want 1: %+v", len(sched.Virtual), sched.Virtual)
	}
	v := sched.Virtual[0]
	if v.Sym != m.Lookup("A") {
		t.Errorf("virtual dimension on %s, want A", v.Sym.Name)
	}
	if v.Dim != 0 {
		t.Errorf("virtual dimension index %d, want 0", v.Dim)
	}
	if v.Window != 2 {
		t.Errorf("window %d, want 2", v.Window)
	}
	if v.Subrange.Name != "K" {
		t.Errorf("virtual subrange %s, want K", v.Subrange.Name)
	}
}

// TestVirtualWindowGS verifies that the Gauss–Seidel version keeps the
// same single virtual dimension (window two), as stated in §4: "the
// virtual dimension analysis gives the same result as in the previous
// version".
func TestVirtualWindowGS(t *testing.T) {
	m, sched := compile(t, repro.Source("gauss_seidel"))
	if len(sched.Virtual) != 1 {
		t.Fatalf("got %d virtual dimensions, want 1: %+v", len(sched.Virtual), sched.Virtual)
	}
	v := sched.Virtual[0]
	if v.Sym != m.Lookup("A") || v.Dim != 0 || v.Window != 2 {
		t.Errorf("got virtual %s dim %d window %d, want A dim 0 window 2", v.Sym.Name, v.Dim, v.Window)
	}
}

// TestScheduleSmallModules checks schedule shapes for the auxiliary
// workloads: pure-parallel, fully sequential, and wavefront programs.
func TestScheduleSmallModules(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"Smooth", repro.Source("smooth"), "DOALL I (eq.1)"},
		{"Heat1D", repro.Source("heat1d"), "DOALL X (eq.1); DO T (DOALL X (eq.3)); DOALL X (eq.2)"},
		{"Prefix", repro.Source("prefix"), "eq.1; DO I2 (eq.2); DOALL I (eq.3)"},
		{"Wavefront2D", repro.Source("wavefront2d"), "DO I (DO J (eq.1)); DOALL I (DOALL J (eq.2))"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, sched := compile(t, tc.src)
			if got := sched.Flowchart.Compact(); got != tc.want {
				t.Errorf("%s schedule:\n got:  %s\n want: %s", tc.name, got, tc.want)
			}
		})
	}
}

// TestEquationOrderInvariance checks the single-assignment property the
// paper relies on: "the equations may be entered in any order" (§2). All
// six permutations of the three relaxation equations produce the same
// flowchart.
func TestEquationOrderInvariance(t *testing.T) {
	eq1 := "(*eq.1*) A[1] = InitialA;"
	eq2 := "(*eq.2*) newA = A[maxK];"
	eq3 := `(*eq.3*) A[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
        then A[K-1,I,J]
        else (A[K-1,I,J-1]+A[K-1,I-1,J]+A[K-1,I,J+1]+A[K-1,I+1,J]) / 4;`
	header := `Relaxation: module (InitialA: array[I,J] of real; M: int; maxK: int):
    [newA: array [I,J] of real];
type I,J = 0 .. M+1; K = 2 .. maxK;
var A: array [1 .. maxK] of array[I,J] of real;
define
`
	perms := [][]string{
		{eq1, eq2, eq3}, {eq1, eq3, eq2}, {eq2, eq1, eq3},
		{eq2, eq3, eq1}, {eq3, eq1, eq2}, {eq3, eq2, eq1},
	}
	want := ""
	for i, p := range perms {
		src := header + strings.Join(p, "\n") + "\nend Relaxation;"
		_, sched := compile(t, src)
		got := sched.Flowchart.Compact()
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("permutation %d schedules differently:\n got:  %s\n want: %s", i, got, want)
		}
	}
	if want != "DOALL I (DOALL J (eq.1)); DO K (DOALL I (DOALL J (eq.3))); DOALL I (DOALL J (eq.2))" {
		t.Errorf("unexpected canonical schedule %q", want)
	}
}

// TestUnschedulable verifies step 2a: a recurrence with forward and
// backward offsets in its only dimension cannot be scheduled.
func TestUnschedulable(t *testing.T) {
	src := `
Bad: module (N: int): [R: array [I] of real];
type I = 0 .. N;
var B: array [0 .. N] of real;
define
    B[I] = if (I = 0) or (I = N) then 1.0 else (B[I-1] + B[I+1]) / 2.0;
    R[I] = B[I];
end Bad;
`
	prog, err := parser.ParseProgram("bad.ps", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	_, err = core.Build(depgraph.Build(cp.Modules[0]))
	if err == nil {
		t.Fatal("expected scheduling to fail, got success")
	}
	var ue *core.UnschedulableError
	if !asErr(err, &ue) {
		t.Fatalf("expected UnschedulableError, got %T: %v", err, err)
	}
}

// TestInconsistentPosition verifies the footnote-4 check: subscripts in
// inconsistent positions block a dimension.
func TestInconsistentPosition(t *testing.T) {
	src := `
Twist: module (N: int): [R: array [I,J] of real];
type I = 1 .. N; J = 1 .. N; I2 = 2 .. N;
var B: array [1 .. N, 1 .. N] of real;
define
    B[1,J] = 1.0;
    B[I2,J] = B[J,I2-1];
    R[I,J] = B[I,J];
end Twist;
`
	prog, err := parser.ParseProgram("twist.ps", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	_, err = core.Build(depgraph.Build(cp.Modules[0]))
	if err == nil {
		t.Fatal("expected scheduling to fail for inconsistent subscript positions")
	}
}

func asErr(err error, target any) bool {
	switch t := target.(type) {
	case **core.UnschedulableError:
		u, ok := err.(*core.UnschedulableError)
		if ok {
			*t = u
		}
		return ok
	}
	return false
}

// TestVirtualWindowOuterReach pins the §3.4 soundness rule for nested
// windows: a per-dimension window certificate survives only if every
// consumer read stays at the current iteration of each enclosing
// scheduled dimension. Here X and Y are mutually recursive over DO I
// (DO J ...): Y is read at Y[I-1,J] (identity at J, offset at the
// enclosing I) and at Y[I,J-1]. The I dimension windows legitimately
// (window 2, reads offset only along I itself), but a J window would
// be unsound — by the time eq.2 at row I reads Y[I-1,J], a global
// two-plane J window has cycled through row I-1 and recycled the very
// plane it needs. The scheduler must certify Y's I window and refuse
// the J window (and refuse X entirely: its reflected read N+1-J is
// SubOther at J and reaches across rows at I).
func TestVirtualWindowOuterReach(t *testing.T) {
	src := `
Windows: module (Seed: array[I,J] of real; N: int):
    [Out: array[I,J] of real];
type
    I = 1 .. N;  J = 1 .. N;
var
    X: array[I,J] of real;
    Y: array[I,J] of real;
define
    X[I,J] = if (I = 1) or (J = 1) then Seed[I,J]
             else (X[I-1,J] + Y[I,J-1]) / 2.0;
    Y[I,J] = if (I = 1) or (J = 1) then 0.5 * Seed[I,J]
             else (Y[I-1,J] + X[I,J-1] + X[I-1, N+1-J]) / 3.0;
    Out[I,J] = 1.5 * X[I,J];
end Windows;
`
	m, sched := compile(t, src)
	var got []core.VirtualDim
	for _, v := range sched.Virtual {
		if v.Sym == m.Lookup("X") || v.Sym == m.Lookup("Y") {
			got = append(got, v)
		}
	}
	if len(got) != 1 {
		t.Fatalf("got %d virtual dimensions on X/Y, want exactly Y's I window: %+v", len(got), got)
	}
	v := got[0]
	if v.Sym != m.Lookup("Y") || v.Dim != 0 || v.Window != 2 {
		t.Errorf("got virtual %s dim %d window %d, want Y dim 0 window 2", v.Sym.Name, v.Dim, v.Window)
	}
}
