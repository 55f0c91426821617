// Package cgen generates C code from a lowered PS module — the output
// artifact of the paper's compiler. It consumes the same flat loop-plan
// IR the interpreter executes (internal/plan): each module becomes a C
// function, and the modules it calls join its translation unit as
// static functions ahead of it; sequential plan steps become for loops
// annotated /* DO */, collapsed DOALL steps become perfectly nested
// loops annotated /* DOALL */ (optionally with OpenMP collapse
// pragmas), wavefront steps become the interpreter's tiles of skewed
// iteration space run one anti-diagonal of tiles at a time, and virtual
// dimensions are allocated as windows with modular plane indexing
// (paper §3.4).
package cgen

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/sem"
	"repro/internal/token"
	"repro/internal/types"
)

// Options configure generation.
type Options struct {
	// OpenMP adds "#pragma omp parallel for" above DOALL loops and above
	// the tile loop of each anti-diagonal of a wavefront nest.
	OpenMP bool
}

// Generate emits the C translation unit of module m: one prelude, then
// every module m calls, directly or through another callee, as a static
// function ahead of its callers, and m last. planOf returns the lowered
// plan of each of those modules and of m.
func Generate(m *sem.Module, planOf func(*sem.Module) *plan.Program, opts Options) (string, error) {
	var mods []*sem.Module
	seen := make(map[*sem.Module]bool)
	var visit func(*sem.Module)
	visit = func(mod *sem.Module) {
		seen[mod] = true
		for _, eq := range mod.Eqs {
			call := eq.WholeCall
			if call == nil {
				call = eq.MultiCall
			}
			if call == nil {
				continue
			}
			if callee := mod.Prog.Module(call.Fun.Name); callee != nil && !seen[callee] {
				visit(callee)
			}
		}
		mods = append(mods, mod)
	}
	visit(m)
	plans := make([]*plan.Program, len(mods))
	wavefront := false
	for i, mod := range mods {
		if plans[i] = planOf(mod); plans[i] == nil {
			return "", fmt.Errorf("cgen: no plan for module %s", mod.Name)
		}
		wavefront = wavefront || plans[i].HasWavefront()
	}
	last := len(mods) - 1 // m: visit appends a module after its callees
	g := &generator{opts: opts, enums: make(map[string]bool), enumPrefix: enumPrefixes(mods)}
	g.prelude(m, plans[last], wavefront)
	for i, callee := range mods[:last] {
		g.line("/* PS module %s, called from %s.", callee.Name, m.Name)
		g.planComment(plans[i])
		g.line(" */")
		g.module(callee, plans[i], true)
		g.line("")
	}
	g.module(m, plans[last], false)
	if g.err != nil {
		return "", g.err
	}
	return g.sb.String(), nil
}

type generator struct {
	opts Options
	sb   strings.Builder
	ind  int
	err  error
	// enums holds the C names of the enum typedefs emitted so far; a
	// module repeating one its callee declared reuses it. enumPrefix
	// renames the enums that would clash (enumPrefixes).
	enums      map[string]bool
	enumPrefix map[*types.Enum]string
	// m and pl are the module being emitted and its plan.
	m  *sem.Module
	pl *plan.Program
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

// enumPrefixes names the enums of a unit's modules, entry last, in C,
// where their typedefs and constants share one file scope. Enums of one
// name and one constant list share a typedef. A callee's enum that
// differs from another module's, yet shares its name or a constant, has
// its type and constants prefixed with its module's name and "__", so
// each keeps its own ordinals. The entry's enums keep their names: a
// unit without calls is unchanged.
func enumPrefixes(mods []*sem.Module) map[*types.Enum]string {
	type decl struct {
		mod int
		e   *types.Enum
	}
	var decls []decl
	for i, m := range mods {
		for _, d := range m.AST.Types {
			if sym := m.Lookup(d.Names[0].Name); sym != nil && sym.Kind == sem.TypeSym {
				if e, isEnum := sym.Type.(*types.Enum); isEnum {
					decls = append(decls, decl{i, e})
				}
			}
		}
	}
	clash := func(a, b *types.Enum) bool {
		if a.Name == b.Name {
			return !slices.Equal(a.Consts, b.Consts)
		}
		return slices.ContainsFunc(a.Consts, func(c string) bool { return slices.Contains(b.Consts, c) })
	}
	prefix := make(map[*types.Enum]string)
	for _, a := range decls {
		for _, b := range decls {
			if a.mod != len(mods)-1 && a.mod != b.mod && clash(a.e, b.e) {
				prefix[a.e] = mods[a.mod].Name + "__"
			}
		}
	}
	return prefix
}

// planComment emits a plan's loop plan and virtual dimensions as lines
// of a block comment.
func (g *generator) planComment(pl *plan.Program) {
	g.line(" *")
	g.line(" * Loop plan: %s", pl.Compact())
	for _, v := range pl.Virtual {
		g.line(" * Virtual dimension: %s dim %d window %d (subrange %s)",
			v.Sym.Name, v.Dim+1, v.Window, v.Subrange.Name)
	}
}

// prelude emits the unit's header comment, for the entry module m and
// its plan, its includes and the helpers every module shares; wavefront
// says some module of the unit has a wavefront nest.
func (g *generator) prelude(m *sem.Module, pl *plan.Program, wavefront bool) {
	g.line("/* Code generated by psc from PS module %s; DO NOT EDIT.", m.Name)
	g.planComment(pl)
	g.line(" */")
	g.line("#include <stdlib.h>")
	g.line("#include <math.h>")
	if wavefront {
		g.line("#ifdef _OPENMP")
		g.line("#include <omp.h>")
		g.line("#endif")
	}
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
	if wavefront {
		g.line("static inline long ps_lmin(long a, long b) { return a < b ? a : b; }")
		g.line("static inline long ps_lmax(long a, long b) { return a > b ? a : b; }")
	}
	g.line("")
}

// module emits one module's enum typedefs, result struct and function,
// static when the module is a callee of the unit's entry.
func (g *generator) module(m *sem.Module, pl *plan.Program, static bool) {
	g.m, g.pl = m, pl
	g.windows = pl.Windows()

	// Enum typedefs.
	for _, d := range m.AST.Types {
		sym := m.Lookup(d.Names[0].Name)
		if sym == nil || sym.Kind != sem.TypeSym {
			continue
		}
		if e, isEnum := sym.Type.(*types.Enum); isEnum && !g.enums[g.enumPrefix[e]+e.Name] {
			g.enums[g.enumPrefix[e]+e.Name] = true
			consts := make([]string, len(e.Consts))
			for i, c := range e.Consts {
				consts[i] = g.enumPrefix[e] + c
			}
			g.line("typedef enum { %s } %s;", strings.Join(consts, ", "), g.enumPrefix[e]+e.Name)
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
	storage := ""
	if static {
		storage = "static "
	}
	g.line("%s%s_result %s(%s)", storage, m.Name, m.Name, strings.Join(params, ", "))
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
	alloc := make(map[*sem.Symbol]bool)
	for _, sym := range g.pl.Allocated(m) {
		alloc[sym] = true
	}
	for _, sym := range m.DataSymbols() {
		if types.Rank(sym.Type) > 0 {
			g.emitArrayGeometry(sym, alloc[sym])
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
			return g.enumPrefix[e] + e.Name
		}
		return "int"
	}
	g.failf("unsupported C type %s", t)
	return "void"
}

// emitArrayGeometry declares per-dimension bounds, plane counts, strides,
// and, when the activation allocates the array, the allocation.
func (g *generator) emitArrayGeometry(sym *sem.Symbol, alloc bool) {
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
	switch {
	case alloc:
		g.line("%s *%s = (%s *)malloc(sizeof(%s) * %s_s0 * %s_d0_n);",
			g.cType(arr.Elem), sym.Name, g.cType(arr.Elem), g.cType(arr.Elem),
			sym.Name, sym.Name)
	case sym.Kind != sem.ParamSym:
		// A module call's target: it takes the callee's result array.
		g.line("%s;", g.cDecl(sym.Name, arr, false))
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

// emitWavefront renders a §4-restructured nest as the interpreter runs
// it (internal/interp's tileGrid and sweepTile): tiles of skewed iteration
// space s = S·x (Hyper.Skew). The ranges of s₀ and s₁ over the box are
// cut into an A × B grid by tileGrid.cuts' rule for W threads, W =
// omp_get_max_threads() under OpenMP and 1 otherwise (one tile covering
// the box), and the grid runs one anti-diagonal a + b = d at a time, its
// tiles in parallel, so tile (a, b) runs after (a−1, b) and (a, b−1). A
// tile clips each xⱼ to the box and x₀, x₁ also to its range of s₀, s₁;
// the innermost index is the row, run per equation or with the body
// jammed, as Hyper.RowSplit says. The interpreter tiles the pair past
// leading coordinates the box fixes to one value; the C always tiles s₀
// and s₁, which is as legal (S·d ≥ 0 makes every rectangular tiling of
// the skewed nest legal) and only narrows the grid there.
func (g *generator) emitWavefront(st *plan.Step, bodyLo int) {
	hy := st.Hyper
	n := len(st.Dims)
	names := make([]string, n)
	nonEmpty := make([]string, n)
	for j, slot := range st.Dims {
		names[j] = g.pl.Bounds[slot].Subrange.Name
		nonEmpty[j] = fmt.Sprintf("%s_lo <= %s_hi", names[j], names[j])
	}
	g.line("/* WAVEFRONT %s: t = %s, window %d */", strings.Join(names, ", "), lincomb(hy.Pi, names), hy.Window)
	g.line("if (%s) {", strings.Join(nonEmpty, " && "))
	g.ind++
	g.line("#ifdef _OPENMP")
	g.line("const long wf_p = omp_get_max_threads();")
	g.line("#else")
	g.line("const long wf_p = 1;")
	g.line("#endif")
	for k := 0; k < 2; k++ {
		// s_k's range takes each xⱼ's lo or hi bound by the sign of its
		// coefficient; s_k is cut TilesPerWorker ways per thread, or once
		// per thread when it is the row.
		lo, hi := make([]string, n), make([]string, n)
		for j, c := range hy.Skew[k] {
			lo[j], hi[j] = names[j]+"_lo", names[j]+"_hi"
			if c < 0 {
				lo[j], hi[j] = hi[j], lo[j]
			}
		}
		per := fmt.Sprintf("wf_p > 1 ? %d*wf_p : 1", sched.TilesPerWorker)
		if k == n-1 {
			per = "wf_p"
		}
		g.line("const long wf_lo_%[1]d = %[2]s, wf_hi_%[1]d = %[3]s, wf_per_%[1]d = %[4]s;",
			k, lincomb(hy.Skew[k], lo), lincomb(hy.Skew[k], hi), per)
		g.line("const long wf_w_%[1]d = (wf_hi_%[1]d - wf_lo_%[1]d + wf_per_%[1]d) / wf_per_%[1]d, "+
			"wf_n_%[1]d = (wf_hi_%[1]d - wf_lo_%[1]d + wf_w_%[1]d) / wf_w_%[1]d;", k)
	}
	g.line("for (long wf_d = 0; wf_d < wf_n_0 + wf_n_1 - 1; wf_d++) {")
	g.ind++
	g.line("const long wf_a_lo = ps_lmax(0, wf_d - wf_n_1 + 1), wf_a_hi = ps_lmin(wf_d, wf_n_0 - 1);")
	if g.opts.OpenMP {
		g.line("#pragma omp parallel for")
	}
	g.line("for (long wf_a = wf_a_lo; wf_a <= wf_a_hi; wf_a++) {")
	g.ind++
	g.line("const long wf_tlo_0 = wf_lo_0 + wf_a*wf_w_0, wf_thi_0 = wf_tlo_0 + wf_w_0 - 1;")
	g.line("const long wf_tlo_1 = wf_lo_1 + (wf_d - wf_a)*wf_w_1, wf_thi_1 = wf_tlo_1 + wf_w_1 - 1;")
	// loop opens xⱼ's loop over the box, and for j < 2 over the tile's
	// range of sⱼ less the outer indices' part of it (S is unit
	// lower-triangular: sⱼ = xⱼ + Σ S[j][i]·xᵢ over i < j).
	loop := func(j int) {
		x := names[j]
		lo, hi := x+"_lo", x+"_hi"
		if j < 2 {
			off := ""
			if o := lincomb(hy.Skew[j][:j], names[:j]); o != "0" {
				off = " - (" + o + ")"
			}
			lo, hi = fmt.Sprintf("ps_lmax(%s, wf_tlo_%d%s)", lo, j, off), fmt.Sprintf("ps_lmin(%s, wf_thi_%d%s)", hi, j, off)
		}
		g.line("for (long %s = %s; %s <= %s; %s++) {", x, lo, x, hi, x)
		g.ind++
	}
	for j := 0; j < n-1; j++ {
		loop(j)
	}
	for i := bodyLo; i < st.End; {
		end := st.End
		if hy.RowSplit {
			end = i + 1
		}
		loop(n - 1)
		g.emitSteps(i, end)
		g.ind--
		g.line("}")
		i = end
	}
	for range n + 2 {
		g.ind--
		g.line("}")
	}
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
		return g.enumPrefix[sym.Type.(*types.Enum)] + x.Name
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
