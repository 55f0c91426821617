package parser_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro"
	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/token"
)

// TestParseRelaxation parses the paper's Figure 1 module and checks its
// structure.
func TestParseRelaxation(t *testing.T) {
	m, err := parser.ParseModule("relax.ps", repro.Source("relaxation"))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if m.Name.Name != "Relaxation" {
		t.Errorf("module name %s", m.Name.Name)
	}
	if len(m.Params) != 2 { // InitialA; M, maxK share a group? No: (InitialA) (M) (maxK)
		// Params groups: "InitialA: ..." and "M: int; maxK: int" are
		// separate groups; the source declares three names in three
		// groups.
		if len(m.Params) != 3 {
			t.Errorf("got %d parameter groups", len(m.Params))
		}
	}
	names := 0
	for _, p := range m.Params {
		names += len(p.Names)
	}
	if names != 3 {
		t.Errorf("got %d parameter names, want 3", names)
	}
	if len(m.Results) != 1 || m.Results[0].Names[0].Name != "newA" {
		t.Error("result newA not parsed")
	}
	if len(m.Types) != 2 {
		t.Errorf("got %d type decls, want 2", len(m.Types))
	}
	if len(m.Types[0].Names) != 2 { // I, J
		t.Errorf("first type decl has %d names", len(m.Types[0].Names))
	}
	if len(m.Vars) != 1 || m.Vars[0].Names[0].Name != "A" {
		t.Error("var A not parsed")
	}
	if len(m.Eqs) != 3 {
		t.Fatalf("got %d equations, want 3", len(m.Eqs))
	}
	// Labels from (*eq.N*) comments.
	for i, want := range []string{"eq.1", "eq.2", "eq.3"} {
		if m.Eqs[i].Label != want {
			t.Errorf("equation %d label %q, want %q", i, m.Eqs[i].Label, want)
		}
	}
	// eq.3's LHS has three subscripts; its RHS is an if expression.
	eq3 := m.Eqs[2]
	if len(eq3.Targets[0].Subs) != 3 {
		t.Errorf("eq.3 has %d LHS subscripts", len(eq3.Targets[0].Subs))
	}
	if _, ok := eq3.RHS.(*ast.IfExpr); !ok {
		t.Errorf("eq.3 RHS is %T, want *ast.IfExpr", eq3.RHS)
	}
}

// TestExprPrecedence checks Pascal precedence and associativity.
func TestExprPrecedence(t *testing.T) {
	cases := []struct{ src, want string }{
		{"1 + 2 * 3", "1 + 2 * 3"},
		{"(1 + 2) * 3", "(1 + 2) * 3"},
		{"a - b - c", "a - b - c"},
		{"a - (b - c)", "a - (b - c)"},
		{"a = b or c = d", "a = b or c = d"}, // Pascal: or binds tighter than =, so this is (a = (b or c)) = d
		{"not a", "not a"},
		{"-x + y", "-x + y"},
		{"a and b or c", "a and b or c"},
		{"if x > 0 then 1 else 2", "if x > 0 then 1 else 2"},
		{"A[i-1, j+1]", "A[i - 1,j + 1]"},
		{"A[i][j]", "A[i,j]"}, // flattened form
		{"r.f + 1", "r.f + 1"},
		{"min(a, max(b, c))", "min(a, max(b, c))"},
		{"x / y / z", "x / y / z"},
		{"1 + if b then 2 else 3", "1 + (if b then 2 else 3)"},
	}
	for _, tc := range cases {
		e, err := parser.ParseExpr(tc.src)
		if err != nil {
			t.Errorf("%q: %v", tc.src, err)
			continue
		}
		if got := ast.ExprString(e); got != tc.want {
			t.Errorf("%q printed as %q, want %q", tc.src, got, tc.want)
		}
	}
}

// TestElsifChain checks multi-arm conditional expressions.
func TestElsifChain(t *testing.T) {
	e, err := parser.ParseExpr("if a then 1 elsif b then 2 elsif c then 3 else 4")
	if err != nil {
		t.Fatal(err)
	}
	ife := e.(*ast.IfExpr)
	if len(ife.Elifs) != 2 {
		t.Errorf("got %d elsif arms, want 2", len(ife.Elifs))
	}
}

// TestEnumAndRecord parses declarations beyond the relaxation module.
func TestEnumAndRecord(t *testing.T) {
	src := `
Shapes: module (N: int): [Area: array [I] of real];
type
    I = 1 .. N;
    Kind = (circle, square, diamond);
    Point = record x, y: real; tag: Kind end;
var
    P: array [1 .. N] of real;
define
    P[I] = float(I);
    Area[I] = P[I] * 2.0;
end Shapes;
`
	m, err := parser.ParseModule("shapes.ps", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(m.Types) != 3 {
		t.Fatalf("got %d type decls", len(m.Types))
	}
	if _, ok := m.Types[1].Type.(*ast.EnumType); !ok {
		t.Errorf("Kind parsed as %T, want enum", m.Types[1].Type)
	}
	rec, ok := m.Types[2].Type.(*ast.RecordType)
	if !ok {
		t.Fatalf("Point parsed as %T, want record", m.Types[2].Type)
	}
	if len(rec.Fields) != 2 || len(rec.Fields[0].Names) != 2 {
		t.Error("record fields misparsed")
	}
}

// TestEnumVsParenSubrange disambiguates "(a, b)" from "(lo) .. hi".
func TestEnumVsParenSubrange(t *testing.T) {
	src := `
M1: module (N: int): [R: array [I] of real];
type
    I = (N - 1) * 0 .. N;
    C = (red, green);
define
    R[I] = 1.0;
end M1;
`
	m, err := parser.ParseModule("m1.ps", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, ok := m.Types[0].Type.(*ast.SubrangeType); !ok {
		t.Errorf("I parsed as %T, want subrange", m.Types[0].Type)
	}
	if _, ok := m.Types[1].Type.(*ast.EnumType); !ok {
		t.Errorf("C parsed as %T, want enum", m.Types[1].Type)
	}
}

// TestMultiTarget parses multi-value equations.
func TestMultiTarget(t *testing.T) {
	src := `
M2: module (x: real): [a: real; b: real];
define
    a, b = Helper(x);
end M2;
Helper: module (x: real): [p: real; q: real];
define
    p = x + 1.0;
    q = x - 1.0;
end Helper;
`
	prog, err := parser.ParseProgram("m2.ps", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(prog.Modules) != 2 {
		t.Fatalf("got %d modules", len(prog.Modules))
	}
	eq := prog.Modules[0].Eqs[0]
	if len(eq.Targets) != 2 {
		t.Errorf("got %d targets, want 2", len(eq.Targets))
	}
}

// TestParseErrors checks diagnostics for malformed source.
func TestParseErrors(t *testing.T) {
	cases := []string{
		"Bad: module",         // truncated header
		"Bad: module (): [];", // no body
		"Bad: module (x: int): [y: real]; define y = ; end Bad;", // missing expr
		"Bad: module (x: int): [y: real]; define y x; end Bad;",  // missing =
	}
	for _, src := range cases {
		if _, err := parser.ParseProgram("bad.ps", src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// TestClosingNameMismatch checks the `end <name>` validation.
func TestClosingNameMismatch(t *testing.T) {
	src := "A: module (x: int): [y: int]; define y = x; end B;"
	if _, err := parser.ParseProgram("x.ps", src); err == nil {
		t.Error("mismatched closing name not reported")
	}
	// Case-insensitive match is accepted.
	src = "A: module (x: int): [y: int]; define y = x; end a;"
	if _, err := parser.ParseProgram("x.ps", src); err != nil {
		t.Errorf("case-insensitive closing name rejected: %v", err)
	}
}

// --- printer/parser round trip property ------------------------------------

// randExpr builds a random well-formed expression tree.
func randExpr(r *rand.Rand, depth int) ast.Expr {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return &ast.IntLit{Value: int64(r.Intn(100))}
		case 1:
			return &ast.Ident{Name: string(rune('a' + r.Intn(4)))}
		default:
			return &ast.RealLit{Value: float64(r.Intn(100)) / 4, Lit: ""}
		}
	}
	switch r.Intn(6) {
	case 0, 1:
		ops := []token.Kind{token.PLUS, token.MINUS, token.STAR, token.SLASH}
		return &ast.Binary{Op: ops[r.Intn(len(ops))],
			X: randExpr(r, depth-1), Y: randExpr(r, depth-1)}
	case 2:
		return &ast.Unary{Op: token.MINUS, X: randExpr(r, depth-1)}
	case 3:
		cmp := []token.Kind{token.EQ, token.LT, token.GE}
		cond := &ast.Binary{Op: cmp[r.Intn(len(cmp))],
			X: randExpr(r, depth-1), Y: randExpr(r, depth-1)}
		return &ast.IfExpr{Cond: cond, Then: randExpr(r, depth-1), Else: randExpr(r, depth-1)}
	case 4:
		subs := []ast.Expr{randExpr(r, depth-1)}
		if r.Intn(2) == 0 {
			subs = append(subs, randExpr(r, depth-1))
		}
		return &ast.Index{Base: &ast.Ident{Name: "A"}, Subs: subs}
	default:
		return &ast.Paren{X: randExpr(r, depth-1)}
	}
}

// TestPrintParseRoundTrip is the printer/parser fixpoint property: for
// random expression trees, print → parse → print is the identity on the
// printed form.
func TestPrintParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		e := randExpr(r, 4)
		s1 := ast.ExprString(e)
		parsed, err := parser.ParseExpr(s1)
		if err != nil {
			t.Fatalf("reparse %q: %v", s1, err)
		}
		s2 := ast.ExprString(parsed)
		if s1 != s2 {
			t.Fatalf("round trip changed %q to %q", s1, s2)
		}
	}
}

// TestModuleRoundTrip prints the relaxation module and reparses it.
func TestModuleRoundTrip(t *testing.T) {
	m, err := parser.ParseModule("relax.ps", repro.Source("relaxation"))
	if err != nil {
		t.Fatal(err)
	}
	s1 := ast.ModuleString(m)
	m2, err := parser.ParseModule("relax2.ps", s1)
	if err != nil {
		t.Fatalf("reparse printed module: %v\n%s", err, s1)
	}
	s2 := ast.ModuleString(m2)
	if s1 != s2 {
		t.Errorf("module round trip not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", s1, s2)
	}
}

// TestAllWorkloadsParse parses every corpus program.
func TestAllWorkloadsParse(t *testing.T) {
	for _, name := range repro.Programs() {
		if _, err := parser.ParseProgram(name+".ps", repro.Source(name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// quick.Check keeps the testing/quick import referenced in builds
	// where other property tests are filtered out.
	_ = quick.Config{}
	_ = strings.TrimSpace
}
