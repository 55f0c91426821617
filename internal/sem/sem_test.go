package sem_test

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/types"
)

func check(t *testing.T, src string) (*sem.Program, error) {
	t.Helper()
	prog, err := parser.ParseProgram("test.ps", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return sem.Check(prog)
}

func mustCheck(t *testing.T, src string) *sem.Program {
	t.Helper()
	p, err := check(t, src)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return p
}

func wantError(t *testing.T, src, fragment string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil {
		t.Errorf("expected error containing %q, got none", fragment)
		return
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Errorf("error %q does not contain %q", err, fragment)
	}
}

// TestRelaxationSymbols verifies the checked structure of Figure 1.
func TestRelaxationSymbols(t *testing.T) {
	p := mustCheck(t, repro.Source("relaxation"))
	m := p.Module("Relaxation")
	if m == nil {
		t.Fatal("module lookup failed")
	}
	if len(m.Params) != 3 || len(m.Results) != 1 || len(m.Locals) != 1 {
		t.Fatalf("params/results/locals = %d/%d/%d", len(m.Params), len(m.Results), len(m.Locals))
	}
	a := m.Lookup("A")
	arr, ok := a.Type.(*types.Array)
	if !ok {
		t.Fatalf("A has type %s", a.Type)
	}
	// Nested array declaration flattened to three dimensions (§3.1).
	if len(arr.Dims) != 3 {
		t.Errorf("A has %d dimensions, want 3", len(arr.Dims))
	}
	// I and J are distinct subranges despite a shared declaration.
	if m.IndexVar("I") == m.IndexVar("J") {
		t.Error("I and J resolved to the same subrange identity")
	}
	// Bound dependencies: A depends on maxK (dim 1) and M (dims 2, 3).
	var deps []string
	for _, d := range a.BoundDeps {
		deps = append(deps, d.Name)
	}
	if len(deps) != 2 || deps[0] != "maxK" || deps[1] != "M" {
		t.Errorf("A bound deps %v, want [maxK M]", deps)
	}
}

// TestEquationDims verifies explicit and implicit dimension derivation.
func TestEquationDims(t *testing.T) {
	p := mustCheck(t, repro.Source("relaxation"))
	m := p.Module("Relaxation")
	dims := func(label string) []string {
		for _, eq := range m.Eqs {
			if eq.Label == label {
				var out []string
				for _, d := range eq.Dims {
					out = append(out, d.Name)
				}
				return out
			}
		}
		return nil
	}
	if got := dims("eq.1"); strings.Join(got, ",") != "I,J" {
		t.Errorf("eq.1 dims %v, want [I J] (implicit plane copy)", got)
	}
	if got := dims("eq.2"); strings.Join(got, ",") != "I,J" {
		t.Errorf("eq.2 dims %v, want [I J]", got)
	}
	if got := dims("eq.3"); strings.Join(got, ",") != "K,I,J" {
		t.Errorf("eq.3 dims %v, want [K I J]", got)
	}
	// eq.1's explicit count is zero: both dims are implicit.
	for _, eq := range m.Eqs {
		if eq.Label == "eq.1" && eq.NumExplicit != 0 {
			t.Errorf("eq.1 NumExplicit = %d, want 0", eq.NumExplicit)
		}
		if eq.Label == "eq.3" && eq.NumExplicit != 3 {
			t.Errorf("eq.3 NumExplicit = %d, want 3", eq.NumExplicit)
		}
	}
}

// TestScopeErrors covers undefined and misused names.
func TestScopeErrors(t *testing.T) {
	wantError(t, `
M1: module (x: int): [y: int];
define y = nosuch; end M1;`, "undefined name nosuch")

	wantError(t, `
M1: module (x: int): [y: int];
define x = 1; y = x; end M1;`, "cannot be defined")

	wantError(t, `
M1: module (x: int): [y: int];
define y = x; y = x + 1; end M1;`, "more than one equation")

	wantError(t, `
M1: module (x: int): [y: int; z: int];
define y = x; end M1;`, "no defining equation")

	wantError(t, `
M1: module (x: int; x: real): [y: int];
define y = 1; end M1;`, "redeclares")
}

// TestTypeErrors covers operator and assignment type checking.
func TestTypeErrors(t *testing.T) {
	wantError(t, `
M1: module (b: bool): [y: int];
define y = b + 1; end M1;`, "numeric operands")

	wantError(t, `
M1: module (x: real): [y: int];
define y = x; end M1;`, "does not match")

	wantError(t, `
M1: module (x: real): [y: bool];
define y = if x then true else false; end M1;`, "condition must be bool")

	wantError(t, `
M1: module (x: real): [y: real];
define y = if x > 0.0 then 1.0 else false; end M1;`, "mismatched types")

	wantError(t, `
M1: module (x: real): [y: real];
define y = x div 2; end M1;`, "integer operands")

	wantError(t, `
M1: module (x: real): [y: real];
define y = x[1]; end M1;`, "cannot subscript")
}

// TestIndexVarRules covers the LHS-introduces-dimension rule.
func TestIndexVarRules(t *testing.T) {
	// Index variable used on the RHS without appearing on the LHS.
	wantError(t, `
M1: module (N: int): [y: real];
type I = 1 .. N;
define y = float(I); end M1;`, "not a dimension of this equation")

	// Subscripting with a dimension is fine.
	mustCheck(t, `
M1: module (N: int): [y: array [I] of real];
type I = 1 .. N;
define y[I] = float(I); end M1;`)
}

// TestSubscriptArity covers dimension count validation.
func TestSubscriptArity(t *testing.T) {
	wantError(t, `
M1: module (A: array[I,J] of real; N: int): [y: real];
type I = 1 .. N; J = 1 .. N;
define y = A[1,2,3]; end M1;`, "2 dimensions but 3 subscripts")

	wantError(t, `
M1: module (N: int): [y: array [I] of real];
type I = 1 .. N;
define y[1,2] = 1.0; end M1;`, "1 dimensions but 2 subscripts")
}

// TestBuiltins checks builtin signatures.
func TestBuiltins(t *testing.T) {
	mustCheck(t, `
M1: module (x: real; n: int): [y: real; k: int];
define
    y = sqrt(abs(x)) + sin(x) * cos(x) + exp(ln(abs(x) + 1.0)) + pow(x, 2.0)
        + min(x, 1.0) + max(x, float(n));
    k = trunc(x) + round(x) + abs(n) + min(n, 3) + max(n, ord(true));
end M1;`)

	wantError(t, `
M1: module (x: real): [y: real];
define y = sqrt(x, x); end M1;`, "requires 1 argument")

	wantError(t, `
M1: module (x: real): [y: real];
define y = float(x); end M1;`, "integer argument")
}

// TestModuleCalls covers cross-module invocation checking.
func TestModuleCalls(t *testing.T) {
	mustCheck(t, repro.Source("pipeline"))

	wantError(t, `
A1: module (x: real): [y: real];
define y = B1(x, x); end A1;
B1: module (x: real): [y: real];
define y = x; end B1;`, "takes 1 parameter")

	wantError(t, `
A1: module (x: real): [y: real];
define y = A1(x); end A1;`, "cannot invoke itself")

	// Mutual recursion between modules is a cycle.
	wantError(t, `
A1: module (x: real): [y: real];
define y = B1(x); end A1;
B1: module (x: real): [y: real];
define y = A1(x); end B1;`, "cycle")
}

// TestMultiTargetChecking covers multi-value equations.
func TestMultiTargetChecking(t *testing.T) {
	mustCheck(t, `
Main: module (x: real): [a: real; b: real];
define a, b = Split(x); end Main;
Split: module (x: real): [p: real; q: real];
define p = x + 1.0; q = x - 1.0; end Split;`)

	wantError(t, `
Main: module (x: real): [a: real; b: real];
define a, b = x; end Main;`, "requires a module call")

	// Array targets of a call take whole result arrays: no target gets
	// implicit dimensions.
	eq := mustCheck(t, repro.Source("halves")).Module("Main").Eqs[0]
	if eq.MultiCall == nil || len(eq.Dims) != 0 || len(eq.Targets) != 2 {
		t.Fatalf("Ls, Hs = Halves(Xs, N): MultiCall %v, dims %v, %d targets", eq.MultiCall != nil, eq.Dims, len(eq.Targets))
	}
	for _, tg := range eq.Targets {
		if len(tg.Implicit) != 0 {
			t.Errorf("target %s has implicit dims %v, want none", tg.Sym.Name, tg.Implicit)
		}
	}
}

// TestEnumsAndRecords covers the remaining declared type surface.
func TestEnumsAndRecords(t *testing.T) {
	p := mustCheck(t, `
M1: module (c: Color; pt: Point): [bright: bool; mag: real];
type
    Color = (red, green, blue);
    Point = record x, y: real end;
define
    bright = (c = red) or (c = blue);
    mag = sqrt(pt.x * pt.x + pt.y * pt.y);
end M1;`)
	m := p.Module("M1")
	if m.Lookup("red") == nil || m.Lookup("red").Kind != sem.EnumConstSym {
		t.Error("enum constant red not in scope")
	}

	wantError(t, `
M1: module (pt: Point): [y: real];
type Point = record x: real end;
define y = pt.z; end M1;`, "no field z")
}

// TestAffineAnalysis checks the subscript decomposition helper.
func TestAffineAnalysis(t *testing.T) {
	p := mustCheck(t, repro.Source("gauss_seidel"))
	m := p.Module("Relaxation")
	k := m.IndexVar("K")

	parse := func(s string) *sem.Affine {
		e, err := parser.ParseExpr(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return m.AnalyzeAffine(e)
	}
	if a := parse("K"); a == nil {
		t.Fatal("K not affine")
	} else if v, c, ok := a.SingleVar(); !ok || v != k || c != 0 {
		t.Errorf("K decomposed to (%v, %d, %v)", v, c, ok)
	}
	if a := parse("K - 2"); a == nil {
		t.Fatal("K-2 not affine")
	} else if _, c, ok := a.SingleVar(); !ok || c != -2 {
		t.Errorf("K-2 constant %d, want -2", c)
	}
	if a := parse("2*K + I + J - 1"); a == nil {
		t.Error("2K+I+J-1 not affine")
	} else if _, _, ok := a.SingleVar(); ok {
		t.Error("multi-variable form reported as single variable")
	}
	if a := parse("K * I"); a != nil {
		t.Error("K*I incorrectly accepted as affine")
	}
	if a := parse("maxK"); a == nil || !a.IsConst() || !a.Symbolic {
		t.Error("maxK should be a symbolic constant")
	}
}

// TestEvalConstInt checks literal folding.
func TestEvalConstInt(t *testing.T) {
	cases := map[string]int64{
		"1 + 2":       3,
		"2 * (3 + 4)": 14,
		"-(5 - 2)":    -3,
		"7 div 2":     3,
		"7 mod 2":     1,
		"1 + 2 * 3":   7,
	}
	for src, want := range cases {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		got, ok := sem.EvalConstInt(e)
		if !ok || got != want {
			t.Errorf("%q folded to (%d, %v), want %d", src, got, ok, want)
		}
	}
	e, _ := parser.ParseExpr("x + 1")
	if _, ok := sem.EvalConstInt(e); ok {
		t.Error("symbolic expression folded as constant")
	}
}

// TestWholeCallNoImplicitDims verifies that array-returning module calls
// execute as whole values, not element-wise.
func TestWholeCallNoImplicitDims(t *testing.T) {
	p := mustCheck(t, repro.Source("pipeline"))
	m := p.Module("Pipeline")
	for _, eq := range m.Eqs {
		if eq.WholeCall == nil {
			t.Errorf("%s: expected WholeCall", eq.Label)
		}
		if len(eq.Dims) != 0 {
			t.Errorf("%s has dims %v, want none", eq.Label, eq.Dims)
		}
	}
}
