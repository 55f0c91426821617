// Package cgen generates C code from a lowered PS module — the output
// artifact of the paper's compiler. It consumes the same flat loop-plan
// IR the interpreter executes (internal/plan): each module becomes a C
// function; sequential plan steps become for loops annotated /* DO */,
// collapsed DOALL steps become perfectly nested loops annotated
// /* DOALL */ (optionally with OpenMP collapse pragmas), and virtual
// dimensions are allocated as windows with modular plane indexing
// (paper §3.4).
package cgen

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/plan"
	"repro/internal/sem"
	"repro/internal/token"
	"repro/internal/types"
)

// Options configure generation.
type Options struct {
	// OpenMP adds "#pragma omp parallel for" above DOALL loops and above
	// each plane of a wavefront nest.
	OpenMP bool
	// NoVirtual allocates every dimension physically.
	NoVirtual bool
}

// Generate emits a C translation unit for one lowered module plan.
func Generate(m *sem.Module, pl *plan.Program, opts Options) (string, error) {
	g := &generator{m: m, pl: pl, opts: opts}
	return g.run()
}

type generator struct {
	m    *sem.Module
	pl   *plan.Program
	opts Options
	sb   strings.Builder
	ind  int
	err  error
	// windows maps symbol/dim to the window size in effect.
	windows map[*sem.Symbol]map[int]int
	// curEq is the equation being emitted (for implicit alignment).
	curEq *sem.Equation
}

func (g *generator) failf(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf("cgen: "+format, args...)
	}
}

func (g *generator) line(format string, args ...any) {
	for i := 0; i < g.ind; i++ {
		g.sb.WriteString("    ")
	}
	fmt.Fprintf(&g.sb, format, args...)
	g.sb.WriteByte('\n')
}

func (g *generator) run() (string, error) {
	m := g.m
	g.windows = make(map[*sem.Symbol]map[int]int)
	if !g.opts.NoVirtual {
		g.windows = g.pl.Windows()
	}

	g.line("/* Code generated by psc from PS module %s; DO NOT EDIT.", m.Name)
	g.line(" *")
	g.line(" * Loop plan: %s", g.pl.Compact())
	for _, v := range g.pl.Virtual {
		g.line(" * Virtual dimension: %s dim %d window %d (subrange %s)",
			v.Sym.Name, v.Dim+1, v.Window, v.Subrange.Name)
	}
	g.line(" */")
	g.line("#include <stdlib.h>")
	g.line("#include <math.h>")
	g.line("")
	// C's fmin/fmax return the non-NaN operand when the other is NaN;
	// the interpreter's min/max (Go math.Min/math.Max) propagate NaN
	// and order -0.0 below +0.0. Emit helpers with the interpreter's
	// semantics so results stay bitwise identical on non-finite data.
	g.line("static inline double ps_fmin(double a, double b) {")
	g.line("    if (isnan(a) || isnan(b)) return (double)NAN;")
	g.line("    if (a == b) return signbit(a) ? a : b; /* min(-0,+0) = -0 */")
	g.line("    return a < b ? a : b;")
	g.line("}")
	g.line("static inline double ps_fmax(double a, double b) {")
	g.line("    if (isnan(a) || isnan(b)) return (double)NAN;")
	g.line("    if (a == b) return signbit(a) ? b : a; /* max(-0,+0) = +0 */")
	g.line("    return a > b ? a : b;")
	g.line("}")
	g.line("")

	// Enum typedefs.
	for _, d := range m.AST.Types {
		sym := m.Lookup(d.Names[0].Name)
		if sym == nil || sym.Kind != sem.TypeSym {
			continue
		}
		if e, isEnum := sym.Type.(*types.Enum); isEnum {
			g.line("typedef enum { %s } %s;", strings.Join(e.Consts, ", "), d.Names[0].Name)
			g.line("")
		}
	}

	// Result struct.
	g.line("typedef struct {")
	g.ind++
	for _, r := range m.Results {
		g.line("%s;", g.cDecl(r.Name, r.Type, false))
	}
	g.ind--
	g.line("} %s_result;", m.Name)
	g.line("")

	// Function signature.
	var params []string
	for _, p := range m.Params {
		params = append(params, g.cDecl(p.Name, p.Type, true))
	}
	g.line("%s_result %s(%s)", m.Name, m.Name, strings.Join(params, ", "))
	g.line("{")
	g.ind++

	// Subrange bounds.
	g.line("/* subrange bounds */")
	for _, info := range m.Subranges {
		sr := info.Type
		g.line("const long %s_lo = %s, %s_hi = %s;",
			sr.Name, g.expr(sr.Lo), sr.Name, g.expr(sr.Hi))
	}
	g.line("")

	// Array geometry and allocation.
	for _, sym := range m.DataSymbols() {
		if types.Rank(sym.Type) > 0 {
			g.emitArrayGeometry(sym)
		}
	}
	// Scalar locals and results.
	for _, sym := range append(append([]*sem.Symbol{}, m.Results...), m.Locals...) {
		if types.Rank(sym.Type) == 0 {
			g.line("%s;", g.cDecl(sym.Name, sym.Type, false))
		}
	}
	g.line("")

	// Body from the lowered plan.
	g.emitSteps(0, len(g.pl.Steps))

	// Free locals and return results.
	g.line("")
	for _, sym := range m.Locals {
		if types.Rank(sym.Type) > 0 {
			g.line("free(%s);", sym.Name)
		}
	}
	g.line("{")
	g.ind++
	g.line("%s_result result_;", m.Name)
	for _, r := range m.Results {
		g.line("result_.%s = %s;", r.Name, r.Name)
	}
	g.line("return result_;")
	g.ind--
	g.line("}")
	g.ind--
	g.line("}")
	if g.err != nil {
		return "", g.err
	}
	return g.sb.String(), nil
}

// cDecl renders a C declaration for a PS symbol.
func (g *generator) cDecl(name string, t types.Type, isParam bool) string {
	if arr, ok := t.(*types.Array); ok {
		base := g.cType(arr.Elem)
		if isParam {
			return fmt.Sprintf("const %s *%s", base, name)
		}
		return fmt.Sprintf("%s *%s", base, name)
	}
	return fmt.Sprintf("%s %s", g.cType(t), name)
}

func (g *generator) cType(t types.Type) string {
	switch t.Kind() {
	case types.RealKind:
		return "double"
	case types.IntKind, types.SubrangeKind:
		return "long"
	case types.BoolKind:
		return "int"
	case types.CharKind:
		return "char"
	case types.StringKind:
		return "const char *"
	case types.EnumKind:
		if e, ok := t.(*types.Enum); ok && e.Name != "" {
			return e.Name
		}
		return "int"
	}
	g.failf("unsupported C type %s", t)
	return "void"
}

// emitArrayGeometry declares per-dimension bounds, plane counts, strides,
// and (for non-parameters) the allocation.
func (g *generator) emitArrayGeometry(sym *sem.Symbol) {
	arr := sym.Type.(*types.Array)
	n := len(arr.Dims)
	win := g.windows[sym]
	g.line("/* %s: %s */", sym.Name, arr)
	for d, sr := range arr.Dims {
		g.line("const long %s_d%d_lo = %s, %s_d%d_hi = %s;",
			sym.Name, d, g.expr(sr.Lo), sym.Name, d, g.expr(sr.Hi))
		if w, virtual := win[d]; virtual {
			g.line("const long %s_d%d_n = %d; /* virtual: window of %d planes */",
				sym.Name, d, w, w)
		} else {
			g.line("const long %s_d%d_n = %s_d%d_hi - %s_d%d_lo + 1;",
				sym.Name, d, sym.Name, d, sym.Name, d)
		}
	}
	// Row-major strides.
	for d := n - 1; d >= 0; d-- {
		if d == n-1 {
			g.line("const long %s_s%d = 1;", sym.Name, d)
		} else {
			g.line("const long %s_s%d = %s_s%d * %s_d%d_n;",
				sym.Name, d, sym.Name, d+1, sym.Name, d+1)
		}
	}
	if sym.Kind != sem.ParamSym {
		g.line("%s *%s = (%s *)malloc(sizeof(%s) * %s_s0 * %s_d0_n);",
			g.cType(arr.Elem), sym.Name, g.cType(arr.Elem), g.cType(arr.Elem),
			sym.Name, sym.Name)
	}
	g.line("")
}

// emitSteps renders plan instructions [lo, hi) as C statements.
func (g *generator) emitSteps(lo, hi int) {
	for i := lo; i < hi; {
		st := &g.pl.Steps[i]
		switch st.Op {
		case plan.OpEq:
			g.emitEquation(g.pl.Eqs[st.Eq])
			i++
		case plan.OpWavefront:
			g.emitWavefront(st, i+1)
			i = st.End
		default:
			names := make([]string, len(st.Dims))
			for d, slot := range st.Dims {
				names[d] = g.pl.Bounds[slot].Subrange.Name
			}
			if st.Op == plan.OpDoAll {
				// A collapsed DOALL nest becomes perfectly nested loops
				// under one parallel-for annotation.
				for _, name := range names {
					g.line("/* DOALL %s */", name)
				}
				if g.opts.OpenMP {
					if len(names) > 1 {
						g.line("#pragma omp parallel for collapse(%d)", len(names))
					} else {
						g.line("#pragma omp parallel for")
					}
				}
			} else {
				g.line("/* DO %s */", names[0])
			}
			for _, name := range names {
				g.line("for (long %s = %s_lo; %s <= %s_hi; %s++) {", name, name, name, name, name)
				g.ind++
			}
			g.emitSteps(i+1, st.End)
			for range names {
				g.ind--
				g.line("}")
			}
			i = st.End
		}
	}
}

// emitWavefront renders a §4-restructured nest: a sequential sweep over
// hyperplanes wf_0 = π·x, a parallel traversal of each plane's bounding
// box in the remaining transformed coordinates, the baked T⁻¹ remap
// back to the original index names, and a preimage guard so exactly the
// original iteration box executes.
func (g *generator) emitWavefront(st *plan.Step, bodyLo int) {
	hy := st.Hyper
	n := len(st.Dims)
	names := make([]string, n)
	for j, slot := range st.Dims {
		names[j] = g.pl.Bounds[slot].Subrange.Name
	}
	g.line("/* WAVEFRONT %s: t = %s (pi = %s, window %d) */",
		strings.Join(names, ", "), lincomb(hy.Pi, names), vecC(hy.Pi), hy.Window)
	g.line("{")
	g.ind++
	g.emitWavefrontBox(hy, names, n)
	g.line("for (long wf_0 = wf_box_lo_0; wf_0 <= wf_box_hi_0; wf_0++) {")
	g.ind++
	// Per-plane tightening: a plane coordinate that is an original
	// dimension (basis row of T) is pinned by pi·x = wf_0 to the range
	// [ceil((wf_0 - maxOthers)/pi_j), floor((wf_0 - minOthers)/pi_j)].
	for r := 1; r < n; r++ {
		g.line("long wf_lo_%d = wf_box_lo_%d, wf_hi_%d = wf_box_hi_%d;", r, r, r, r)
		j := hy.Basis[r]
		if j < 0 || hy.Pi[j] <= 0 {
			continue
		}
		c := hy.Pi[j]
		others := make([]int64, n)
		copy(others, hy.Pi)
		others[j] = 0
		oHi := make([]string, n)
		oLo := make([]string, n)
		for k := range names {
			oHi[k] = names[k] + "_hi"
			oLo[k] = names[k] + "_lo"
		}
		g.line("{")
		g.ind++
		g.line("const long num_lo = wf_0 - (%s);", lincomb(others, oHi))
		g.line("const long num_hi = wf_0 - (%s);", lincomb(others, oLo))
		if c == 1 {
			g.line("if (num_lo > wf_lo_%d) wf_lo_%d = num_lo;", r, r)
			g.line("if (num_hi < wf_hi_%d) wf_hi_%d = num_hi;", r, r)
		} else {
			g.line("const long t_lo = num_lo >= 0 ? (num_lo + %d) / %d : -((-num_lo) / %d);", c-1, c, c)
			g.line("const long t_hi = num_hi >= 0 ? num_hi / %d : -((-num_hi + %d) / %d);", c, c-1, c)
			g.line("if (t_lo > wf_lo_%d) wf_lo_%d = t_lo;", r, r)
			g.line("if (t_hi < wf_hi_%d) wf_hi_%d = t_hi;", r, r)
		}
		g.ind--
		g.line("}")
	}
	g.line("/* DOALL plane */")
	if g.opts.OpenMP && n > 1 {
		if n > 2 {
			g.line("#pragma omp parallel for collapse(%d)", n-1)
		} else {
			g.line("#pragma omp parallel for")
		}
	}
	for r := 1; r < n; r++ {
		g.line("for (long wf_%d = wf_lo_%d; wf_%d <= wf_hi_%d; wf_%d++) {", r, r, r, r, r)
		g.ind++
	}
	wfNames := make([]string, n)
	for r := 0; r < n; r++ {
		wfNames[r] = fmt.Sprintf("wf_%d", r)
	}
	var guard []string
	for j := 0; j < n; j++ {
		g.line("const long %s = %s;", names[j], lincomb(hy.TInv[j], wfNames))
		guard = append(guard,
			fmt.Sprintf("%s >= %s_lo && %s <= %s_hi", names[j], names[j], names[j], names[j]))
	}
	g.line("if (%s) {", strings.Join(guard, " && "))
	g.ind++
	g.emitSteps(bodyLo, g.pl.Steps[bodyLo-1].End)
	g.ind--
	g.line("}")
	for r := 1; r < n; r++ {
		g.ind--
		g.line("}")
	}
	g.ind--
	g.line("}")
	g.ind--
	g.line("}")
}

// lincomb renders Σ coeffs[j]·terms[j] as a C expression.
func lincomb(coeffs []int64, terms []string) string {
	var sb strings.Builder
	for j, c := range coeffs {
		if c == 0 {
			continue
		}
		if sb.Len() > 0 {
			if c > 0 {
				sb.WriteString(" + ")
			} else {
				sb.WriteString(" - ")
				c = -c
			}
		} else if c < 0 {
			sb.WriteString("-")
			c = -c
		}
		if c != 1 {
			fmt.Fprintf(&sb, "%d*", c)
		}
		sb.WriteString(terms[j])
	}
	if sb.Len() == 0 {
		return "0"
	}
	return sb.String()
}

// emitWavefrontBox declares the transformed bounding-box constants
// wf_box_lo_r/wf_box_hi_r: the interval of row_r(T)·x over the original
// box, picking the lo or hi bound per coefficient sign at generation
// time.
func (g *generator) emitWavefrontBox(hy *plan.Hyper, names []string, n int) {
	loTerms := make([]string, n)
	hiTerms := make([]string, n)
	for r := 0; r < n; r++ {
		for j, c := range hy.T[r] {
			if c >= 0 {
				loTerms[j] = names[j] + "_lo"
				hiTerms[j] = names[j] + "_hi"
			} else {
				loTerms[j] = names[j] + "_hi"
				hiTerms[j] = names[j] + "_lo"
			}
		}
		g.line("const long wf_box_lo_%d = %s, wf_box_hi_%d = %s;",
			r, lincomb(hy.T[r], loTerms), r, lincomb(hy.T[r], hiTerms))
	}
}

// vecC renders an integer vector like "(2,1,1)".
func vecC(v []int64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// emitEquation renders one assignment.
func (g *generator) emitEquation(eq *sem.Equation) {
	g.curEq = eq
	defer func() { g.curEq = nil }()

	if eq.MultiCall != nil || eq.WholeCall != nil {
		g.emitCallEquation(eq)
		return
	}
	t := eq.Targets[0]
	lhs := g.lvalue(t)
	rhs := g.exprAs(eq.RHS, elemType(t.Sym.Type))
	g.line("%s = %s; /* %s */", lhs, rhs, eq.Label)
}

func elemType(t types.Type) types.Type {
	if arr, ok := t.(*types.Array); ok {
		return arr.Elem
	}
	return t
}

func (g *generator) emitCallEquation(eq *sem.Equation) {
	call := eq.WholeCall
	if call == nil {
		call = eq.MultiCall
	}
	callee := g.m.Prog.Module(call.Fun.Name)
	if callee == nil {
		g.failf("call to unknown module %s", call.Fun.Name)
		return
	}
	var args []string
	for _, a := range call.Args {
		// Whole arrays are passed by pointer, not read element-wise.
		if id, ok := ast.Unparen(a).(*ast.Ident); ok {
			if sym := g.m.Lookup(id.Name); sym != nil && types.Rank(sym.Type) > 0 {
				args = append(args, id.Name)
				continue
			}
		}
		args = append(args, g.expr(a))
	}
	tmp := fmt.Sprintf("call_%s_", eq.Label)
	tmp = strings.NewReplacer(".", "_", "-", "_").Replace(tmp)
	g.line("%s_result %s = %s(%s); /* %s */", callee.Name, tmp, callee.Name, strings.Join(args, ", "), eq.Label)
	for i, t := range eq.Targets {
		g.line("%s = %s.%s;", t.Sym.Name, tmp, callee.Results[i].Name)
	}
}

// lvalue renders the assignment target, combining explicit subscripts with
// the implicit dimension loop variables.
func (g *generator) lvalue(t *sem.Target) string {
	if types.Rank(t.Sym.Type) == 0 {
		return t.Sym.Name
	}
	subs := make([]string, 0, len(t.Subs)+len(t.Implicit))
	for _, s := range t.Subs {
		subs = append(subs, g.expr(s))
	}
	for _, v := range t.Implicit {
		subs = append(subs, v.Name)
	}
	return g.arrayRef(t.Sym, subs)
}

// arrayRef renders an element reference with window-aware addressing.
func (g *generator) arrayRef(sym *sem.Symbol, subs []string) string {
	arr := sym.Type.(*types.Array)
	if len(subs) != len(arr.Dims) {
		g.failf("reference to %s has %d subscripts, want %d", sym.Name, len(subs), len(arr.Dims))
		return sym.Name + "[0]"
	}
	win := g.windows[sym]
	parts := make([]string, len(subs))
	for d, s := range subs {
		if _, virtual := win[d]; virtual {
			parts[d] = fmt.Sprintf("(((%s) - %s_d%d_lo) %% %s_d%d_n) * %s_s%d",
				s, sym.Name, d, sym.Name, d, sym.Name, d)
		} else {
			parts[d] = fmt.Sprintf("((%s) - %s_d%d_lo) * %s_s%d", s, sym.Name, d, sym.Name, d)
		}
	}
	return fmt.Sprintf("%s[%s]", sym.Name, strings.Join(parts, " + "))
}

// --- expressions ---------------------------------------------------------------

// exprAs renders e coerced to target type want (inserting the int→real
// widening cast).
func (g *generator) exprAs(e ast.Expr, want types.Type) string {
	s := g.expr(e)
	t := g.m.TypeOf(e)
	if want != nil && want.Kind() == types.RealKind && t != nil && types.IsInteger(t) {
		return fmt.Sprintf("(double)(%s)", s)
	}
	return s
}

func (g *generator) expr(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return g.identRef(x)
	case *ast.IntLit:
		return fmt.Sprintf("%d", x.Value)
	case *ast.RealLit:
		s := x.Lit
		if s == "" {
			s = fmt.Sprintf("%g", x.Value)
		}
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *ast.BoolLit:
		if x.Value {
			return "1"
		}
		return "0"
	case *ast.CharLit:
		return fmt.Sprintf("'%c'", x.Value)
	case *ast.StringLit:
		return fmt.Sprintf("%q", x.Value)
	case *ast.Paren:
		return "(" + g.expr(x.X) + ")"
	case *ast.Unary:
		return g.unary(x)
	case *ast.Binary:
		return g.binary(x)
	case *ast.IfExpr:
		return g.ifExpr(x)
	case *ast.Index:
		return g.indexRef(x)
	case *ast.Field:
		return g.expr(x.Base) + "." + x.Sel.Name
	case *ast.Call:
		return g.call(x)
	}
	g.failf("unsupported expression %s", ast.ExprString(e))
	return "0"
}

// identRef renders a name use: loop index, scalar, enum constant, or a
// whole-array reference aligned with the implicit dimensions.
func (g *generator) identRef(x *ast.Ident) string {
	if iv := g.m.IndexVar(x.Name); iv != nil {
		return iv.Name
	}
	sym := g.m.Lookup(x.Name)
	if sym == nil {
		g.failf("unknown name %s", x.Name)
		return x.Name
	}
	if sym.Kind == sem.EnumConstSym {
		return x.Name
	}
	if types.Rank(sym.Type) > 0 {
		// Element-wise whole-array read via the implicit variables.
		subs := g.implicitNames(types.Rank(sym.Type))
		return g.arrayRef(sym, subs)
	}
	return x.Name
}

func (g *generator) implicitNames(n int) []string {
	if g.curEq == nil {
		g.failf("array value outside an equation")
		return make([]string, n)
	}
	imp := g.curEq.Dims[g.curEq.NumExplicit:]
	if len(imp) != n {
		g.failf("cannot align %d dimensions with %d implicit variables in %s", n, len(imp), g.curEq.Label)
		return make([]string, n)
	}
	out := make([]string, n)
	for i, v := range imp {
		out[i] = v.Name
	}
	return out
}

func (g *generator) indexRef(x *ast.Index) string {
	base, ok := ast.Unparen(x.Base).(*ast.Ident)
	if !ok {
		g.failf("subscripted value %s must be a named array", ast.ExprString(x.Base))
		return "0"
	}
	sym := g.m.Lookup(base.Name)
	if sym == nil || types.Rank(sym.Type) == 0 {
		g.failf("%s is not an array", base.Name)
		return "0"
	}
	rank := types.Rank(sym.Type)
	subs := make([]string, 0, rank)
	for _, s := range x.Subs {
		subs = append(subs, g.expr(s))
	}
	if len(subs) < rank {
		subs = append(subs, g.implicitNames(rank-len(subs))...)
	}
	return g.arrayRef(sym, subs)
}

func (g *generator) unary(x *ast.Unary) string {
	op := "-"
	switch x.Op {
	case token.MINUS:
		op = "-"
	case token.PLUS:
		op = "+"
	case token.NOT:
		op = "!"
	}
	return op + g.operand(x.X)
}

func (g *generator) operand(e ast.Expr) string {
	switch e.(type) {
	case *ast.Ident, *ast.IntLit, *ast.RealLit, *ast.Paren, *ast.Index, *ast.Call:
		return g.expr(e)
	}
	return "(" + g.expr(e) + ")"
}

func (g *generator) binary(x *ast.Binary) string {
	lt := g.m.TypeOf(x.X)
	switch x.Op {
	case token.SLASH:
		// PS "/" is always real division.
		l := g.operand(x.X)
		if lt != nil && types.IsInteger(lt) {
			l = "(double)" + l
		}
		return fmt.Sprintf("%s / %s", l, g.operand(x.Y))
	case token.DIV:
		return fmt.Sprintf("%s / %s", g.operand(x.X), g.operand(x.Y))
	case token.MOD:
		return fmt.Sprintf("%s %% %s", g.operand(x.X), g.operand(x.Y))
	}
	op := map[token.Kind]string{
		token.PLUS: "+", token.MINUS: "-", token.STAR: "*",
		token.EQ: "==", token.NEQ: "!=", token.LT: "<", token.LE: "<=",
		token.GT: ">", token.GE: ">=", token.AND: "&&", token.OR: "||",
	}[x.Op]
	if op == "" {
		g.failf("unsupported operator %s", x.Op)
		op = "?"
	}
	return fmt.Sprintf("%s %s %s", g.operand(x.X), op, g.operand(x.Y))
}

func (g *generator) ifExpr(x *ast.IfExpr) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "(%s ? %s", g.expr(x.Cond), g.operand(x.Then))
	for _, arm := range x.Elifs {
		fmt.Fprintf(&sb, " : %s ? %s", g.expr(arm.Cond), g.operand(arm.Then))
	}
	fmt.Fprintf(&sb, " : %s)", g.operand(x.Else))
	return sb.String()
}

func (g *generator) call(x *ast.Call) string {
	name := strings.ToLower(x.Fun.Name)
	one := func(fn string) string { return fmt.Sprintf("%s(%s)", fn, g.expr(x.Args[0])) }
	two := func(fn string) string {
		return fmt.Sprintf("%s(%s, %s)", fn, g.expr(x.Args[0]), g.expr(x.Args[1]))
	}
	isInt := func(e ast.Expr) bool {
		t := g.m.TypeOf(e)
		return t != nil && types.IsInteger(t)
	}
	switch name {
	case "abs":
		if isInt(x.Args[0]) {
			return one("labs")
		}
		return one("fabs")
	case "min":
		if isInt(x.Args[0]) && isInt(x.Args[1]) {
			return fmt.Sprintf("((%s) < (%s) ? (%s) : (%s))",
				g.expr(x.Args[0]), g.expr(x.Args[1]), g.expr(x.Args[0]), g.expr(x.Args[1]))
		}
		return two("ps_fmin")
	case "max":
		if isInt(x.Args[0]) && isInt(x.Args[1]) {
			return fmt.Sprintf("((%s) > (%s) ? (%s) : (%s))",
				g.expr(x.Args[0]), g.expr(x.Args[1]), g.expr(x.Args[0]), g.expr(x.Args[1]))
		}
		return two("ps_fmax")
	case "sqrt", "sin", "cos", "exp", "pow":
		if name == "pow" {
			return two("pow")
		}
		return one(name)
	case "ln":
		return one("log")
	case "trunc":
		return fmt.Sprintf("(long)trunc(%s)", g.expr(x.Args[0]))
	case "round":
		return fmt.Sprintf("(long)llround(%s)", g.expr(x.Args[0]))
	case "float":
		return fmt.Sprintf("(double)(%s)", g.expr(x.Args[0]))
	case "ord":
		return fmt.Sprintf("(long)(%s)", g.expr(x.Args[0]))
	}
	g.failf("expression-level module call %s is not supported by the C generator (use a whole-value equation)", x.Fun.Name)
	return "0"
}
