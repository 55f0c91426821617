package hyperplane

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/types"
)

// TransformResult carries the rewritten module and its display form.
type TransformResult struct {
	Analysis *Analysis
	// Module is the rewritten module AST (shares expression subtrees with
	// the original; print and reparse it before further analysis).
	Module *ast.Module
	// Source is the pretty-printed PS text of Module.
	Source string
	// ArrayName and TimeVar are the chosen names for the transformed
	// array and the new outer (time) index variable.
	ArrayName string
	TimeVar   string
}

// Transform rewrites the analyzed module in the transformed coordinates
// (paper §4): the recursively defined array A is replaced by A' indexed by
// x' = T·x, the recurrence is rewritten with a domain guard so that its
// references become constant offsets with strictly positive first
// component, and every other equation defining or reading A is rewritten
// through the same coordinate change (the paper's "rotate in / unrotate"
// alternative). Rescheduling the result yields an outer DO over the new
// first dimension with inner DOALLs.
func Transform(an *Analysis) (*TransformResult, error) {
	m := an.Module
	n := len(an.Dims)

	tr := &transformer{an: an, m: m, n: n}
	if err := tr.prepare(); err != nil {
		return nil, err
	}

	newMod := &ast.Module{
		Name:    ident(m.Name + "H"),
		Params:  m.AST.Params,
		Results: m.AST.Results,
	}
	// Type section: original declarations plus the new time subrange.
	newMod.Types = append(newMod.Types, m.AST.Types...)
	newMod.Types = append(newMod.Types, &ast.TypeDecl{
		Names: []*ast.Ident{ident(tr.timeVar)},
		Type:  &ast.SubrangeType{Lo: tr.eqLo0, Hi: tr.eqHi0},
	})
	for r := 1; r < n; r++ {
		if tr.basis[r] < 0 {
			newMod.Types = append(newMod.Types, &ast.TypeDecl{
				Names: []*ast.Ident{ident(tr.eqVarNames[r])},
				Type:  &ast.SubrangeType{Lo: tr.eqLos[r], Hi: tr.eqHis[r]},
			})
		}
	}

	// Var section: replace A's declaration, keep other locals.
	for _, vd := range m.AST.Vars {
		var keep []*ast.Ident
		for _, nm := range vd.Names {
			if nm.Name != an.Array.Name {
				keep = append(keep, nm)
			}
		}
		if len(keep) > 0 {
			newMod.Vars = append(newMod.Vars, &ast.VarDecl{Names: keep, Type: vd.Type})
		}
	}
	newMod.Vars = append(newMod.Vars, &ast.VarDecl{
		Names: []*ast.Ident{ident(tr.arrayName)},
		Type:  tr.newArrayType(),
	})

	// Equations.
	for _, eq := range m.Eqs {
		neq, err := tr.rewriteEquation(eq)
		if err != nil {
			return nil, err
		}
		newMod.Eqs = append(newMod.Eqs, neq)
	}

	res := &TransformResult{
		Analysis:  an,
		Module:    newMod,
		Source:    ast.ModuleString(newMod),
		ArrayName: tr.arrayName,
		TimeVar:   tr.timeVar,
	}
	return res, nil
}

// transformer holds naming and bound information for one rewrite.
type transformer struct {
	an *Analysis
	m  *sem.Module
	n  int

	arrayName string
	timeVar   string
	// basis[r] = j when row r of T is the standard basis vector e_j
	// (so the new dimension r is exactly old dimension j); -1 otherwise.
	basis []int
	// eqVarNames[r] is the index variable name iterating new dimension r
	// in the rewritten recurrence.
	eqVarNames []string
	// eqLo0/eqHi0 bound Pi·x over the recurrence's iteration box; for
	// non-basis rows r ≥ 1, eqLos/eqHis bound row_r·x similarly.
	eqLo0, eqHi0 ast.Expr
	eqLos, eqHis []ast.Expr
	// preimages[i] is the expression for old variable i in terms of the
	// new index variables (x = T⁻¹·x'); identity[i] marks rows where the
	// preimage is exactly a reused variable, needing no domain guard.
	preimages []ast.Expr
	identity  []bool
}

func (tr *transformer) prepare() error {
	an, m, n := tr.an, tr.m, tr.n

	if len(an.Eqs) > 1 {
		return fmt.Errorf("hyperplane: the source-to-source transform rewrites a single recurrence; group {%s} has %d equations",
			groupLabel(an.Eqs), len(an.Eqs))
	}
	if _, basic := an.Array.Type.(*types.Array).Elem.(*types.Basic); !basic {
		return fmt.Errorf("hyperplane: transform requires a basic element type, %s has %s",
			an.Array.Name, an.Array.Type.(*types.Array).Elem)
	}

	tr.arrayName = freshName(m, an.Array.Name+"t")
	tr.timeVar = freshName(m, an.Dims[0].Name+"t")

	tr.basis = make([]int, n)
	tr.eqVarNames = make([]string, n)
	tr.eqVarNames[0] = tr.timeVar
	tr.basis[0] = -1
	for r := 1; r < n; r++ {
		tr.basis[r] = basisIndex(an.T.Row(r))
		if j := tr.basis[r]; j >= 0 {
			tr.eqVarNames[r] = an.Dims[j].Name
		} else {
			tr.eqVarNames[r] = freshName(m, fmt.Sprintf("T%d", r))
		}
	}

	// Iteration-box bounds of the recurrence in the new coordinates.
	eqLo := func(j int) ast.Expr { return an.Dims[j].Lo }
	eqHi := func(j int) ast.Expr { return an.Dims[j].Hi }
	tr.eqLo0, tr.eqHi0 = boundRange(an.T.Row(0), eqLo, eqHi)
	tr.eqLos = make([]ast.Expr, n)
	tr.eqHis = make([]ast.Expr, n)
	for r := 1; r < n; r++ {
		if tr.basis[r] < 0 {
			tr.eqLos[r], tr.eqHis[r] = boundRange(an.T.Row(r), eqLo, eqHi)
		}
	}

	// Preimages P_i = Σ_j TInv[i][j]·x'_j.
	tr.preimages = make([]ast.Expr, n)
	tr.identity = make([]bool, n)
	for i := 0; i < n; i++ {
		row := an.TInv.Row(i)
		var terms []term
		for j, c := range row {
			if c != 0 {
				terms = append(terms, term{coef: c, e: ident(tr.eqVarNames[j])})
			}
		}
		tr.preimages[i] = lincomb(terms, 0)
		if r := basisIndex(row); r >= 0 && tr.basis[r] == i {
			tr.identity[i] = true
		}
	}
	return nil
}

// newArrayType declares the transformed array: dimension 0 bounds Pi·x
// over the *array's* declared box; basis rows reuse the old dimension's
// subrange; general rows get bounding subranges over the array box.
func (tr *transformer) newArrayType() *ast.ArrayType {
	arr := tr.an.Array.Type.(*types.Array)
	aLo := func(j int) ast.Expr { return arr.Dims[j].Lo }
	aHi := func(j int) ast.Expr { return arr.Dims[j].Hi }

	dims := make([]ast.TypeExpr, tr.n)
	lo0, hi0 := boundRange(tr.an.T.Row(0), aLo, aHi)
	dims[0] = &ast.SubrangeType{Lo: lo0, Hi: hi0}
	for r := 1; r < tr.n; r++ {
		if j := tr.basis[r]; j >= 0 {
			sr := arr.Dims[j]
			if sr.Anonymous {
				dims[r] = &ast.SubrangeType{Lo: sr.Lo, Hi: sr.Hi}
			} else {
				dims[r] = &ast.TypeName{Name: ident(sr.Name)}
			}
		} else {
			lo, hi := boundRange(tr.an.T.Row(r), aLo, aHi)
			dims[r] = &ast.SubrangeType{Lo: lo, Hi: hi}
		}
	}
	elemName := arr.Elem.String()
	return &ast.ArrayType{Dims: dims, Elem: &ast.TypeName{Name: ident(elemName)}}
}

// rewriteEquation dispatches between the recurrence itself and the other
// equations of the module.
func (tr *transformer) rewriteEquation(eq *sem.Equation) (*ast.Equation, error) {
	if eq == tr.an.Eq {
		return tr.rewriteRecurrence(eq)
	}
	return tr.rewriteOther(eq)
}

// rewriteRecurrence produces
//
//	A'[x'] = if x' has no preimage in the iteration box then 0
//	         else <RHS with old vars substituted and refs offset by T·d>
func (tr *transformer) rewriteRecurrence(eq *sem.Equation) (*ast.Equation, error) {
	an := tr.an

	// Transformed offsets per original reference.
	offsets := make(map[ast.Expr][]int64, len(an.TransformedDeps))
	for _, d := range an.TransformedDeps {
		offsets[d.Ref] = d.Vec
	}

	subst := func(name string) ast.Expr {
		for i, dim := range an.Dims {
			if dim.Name == name && !tr.identity[i] {
				return tr.preimages[i]
			}
		}
		return nil
	}
	rewriteRef := func(x *ast.Index) (ast.Expr, bool) {
		d, ok := offsets[ast.Expr(x)]
		if !ok {
			return nil, false
		}
		subs := make([]ast.Expr, tr.n)
		for r := 0; r < tr.n; r++ {
			subs[r] = lincomb([]term{{coef: 1, e: ident(tr.eqVarNames[r])}}, -d[r])
		}
		return &ast.Index{Base: ident(tr.arrayName), Subs: subs}, true
	}
	body := rewriteExpr(eq.RHS, subst, rewriteRef)

	// Domain guard for every dimension whose preimage is not an exactly
	// reused variable.
	var guard ast.Expr
	for i := 0; i < tr.n; i++ {
		if tr.identity[i] {
			continue
		}
		p := tr.preimages[i]
		below := binary(p, "<", an.Dims[i].Lo)
		above := binary(p, ">", an.Dims[i].Hi)
		cond := binary(paren(below), "or", paren(above))
		if guard == nil {
			guard = cond
		} else {
			guard = binary(paren(guard), "or", paren(cond))
		}
	}
	if guard != nil {
		body = &ast.IfExpr{Cond: guard, Then: tr.filler(), Else: body}
	}

	lhsSubs := make([]ast.Expr, tr.n)
	for r := 0; r < tr.n; r++ {
		lhsSubs[r] = ident(tr.eqVarNames[r])
	}
	return &ast.Equation{
		Label:   eq.Label,
		Targets: []*ast.Target{{Name: ident(tr.arrayName), Subs: lhsSubs}},
		RHS:     body,
	}, nil
}

// filler is the value written at sweep points with no preimage in the
// original iteration box; such elements are never read by in-box points.
func (tr *transformer) filler() ast.Expr {
	elem := tr.an.Array.Type.(*types.Array).Elem
	switch elem.Kind() {
	case types.RealKind:
		return &ast.RealLit{Value: 0, Lit: "0.0"}
	case types.BoolKind:
		return &ast.BoolLit{}
	default:
		return &ast.IntLit{Value: 0, Lit: "0"}
	}
}

// rewriteOther rewrites a non-recurrence equation: implicit dimensions are
// materialized as explicit subscripts and every reference to A (now full
// rank) is re-indexed through T.
func (tr *transformer) rewriteOther(eq *sem.Equation) (*ast.Equation, error) {
	an := tr.an
	target := eq.Targets[0]
	if len(eq.Targets) != 1 {
		for _, t := range eq.Targets {
			if t.Sym == an.Array {
				return nil, fmt.Errorf("hyperplane: multi-target equation %s defines %s", eq.Label, an.Array.Name)
			}
		}
	}

	implicit := target.Implicit
	implicitIdents := func() []ast.Expr {
		out := make([]ast.Expr, len(implicit))
		for i, v := range implicit {
			out[i] = ident(v.Name)
		}
		return out
	}

	// transformIndex maps a full-rank old index vector to T·y.
	transformIndex := func(y []ast.Expr) []ast.Expr {
		subs := make([]ast.Expr, tr.n)
		for r := 0; r < tr.n; r++ {
			row := an.T.Row(r)
			var terms []term
			var konst int64
			for j, c := range row {
				if c == 0 {
					continue
				}
				if k, ok := sem.EvalConstInt(y[j]); ok {
					konst += c * k
				} else {
					terms = append(terms, term{coef: c, e: y[j]})
				}
			}
			subs[r] = lincomb(terms, konst)
		}
		return subs
	}

	touched := false
	var rerr error
	rewriteRef := func(x ast.Expr, topLevel bool) (ast.Expr, bool) {
		switch ref := x.(type) {
		case *ast.Ident:
			if tr.m.Lookup(ref.Name) != an.Array {
				return nil, false
			}
			if !topLevel || len(implicit) != tr.n {
				rerr = fmt.Errorf("hyperplane: opaque whole-array reference to %s in %s", an.Array.Name, eq.Label)
				return nil, false
			}
			touched = true
			return &ast.Index{Base: ident(tr.arrayName), Subs: transformIndex(implicitIdents())}, true
		case *ast.Index:
			base, ok := ast.Unparen(ref.Base).(*ast.Ident)
			if !ok || tr.m.Lookup(base.Name) != an.Array {
				return nil, false
			}
			y := make([]ast.Expr, 0, tr.n)
			y = append(y, ref.Subs...)
			if len(y) < tr.n {
				if !topLevel || len(implicit) != tr.n-len(y) {
					rerr = fmt.Errorf("hyperplane: partial reference to %s in %s is not implicitly aligned", an.Array.Name, eq.Label)
					return nil, false
				}
				y = append(y, implicitIdents()...)
			}
			touched = true
			return &ast.Index{Base: ident(tr.arrayName), Subs: transformIndex(y)}, true
		}
		return nil, false
	}

	rhs := rewriteAligned(eq.RHS, true, rewriteRef)
	if rerr != nil {
		return nil, rerr
	}

	// Left hand side.
	newTargets := make([]*ast.Target, len(eq.Targets))
	for ti, t := range eq.Targets {
		nt := &ast.Target{Name: ident(t.Sym.Name), Subs: t.Subs}
		if t.Sym == an.Array {
			y := make([]ast.Expr, 0, tr.n)
			y = append(y, t.Subs...)
			for _, v := range t.Implicit {
				y = append(y, ident(v.Name))
			}
			if len(y) != tr.n {
				return nil, fmt.Errorf("hyperplane: equation %s defines %s with rank %d, want %d", eq.Label, an.Array.Name, len(y), tr.n)
			}
			nt = &ast.Target{Name: ident(tr.arrayName), Subs: transformIndex(y)}
			touched = true
		} else if touched && len(t.Implicit) > 0 {
			// Materialize implicit dimensions: the equation is now
			// element-wise over them.
			subs := append(append([]ast.Expr{}, t.Subs...), implicitIdents()...)
			nt = &ast.Target{Name: ident(t.Sym.Name), Subs: subs}
		}
		newTargets[ti] = nt
	}

	// When the equation became element-wise, every remaining top-level
	// array-valued reference must also be materialized.
	if touched && len(implicit) > 0 {
		rhs = rewriteAligned(rhs, true, func(x ast.Expr, topLevel bool) (ast.Expr, bool) {
			if !topLevel {
				return nil, false
			}
			switch ref := x.(type) {
			case *ast.Ident:
				sym := tr.m.Lookup(ref.Name)
				if sym == nil || !sym.IsData() || types.Rank(sym.Type) != len(implicit) {
					return nil, false
				}
				return &ast.Index{Base: ident(ref.Name), Subs: implicitIdents()}, true
			case *ast.Index:
				base, ok := ast.Unparen(ref.Base).(*ast.Ident)
				if !ok || base.Name == tr.arrayName {
					return nil, false
				}
				sym := tr.m.Lookup(base.Name)
				if sym == nil || types.Rank(sym.Type) != len(ref.Subs)+len(implicit) {
					return nil, false
				}
				subs := append(append([]ast.Expr{}, ref.Subs...), implicitIdents()...)
				return &ast.Index{Base: ident(base.Name), Subs: subs}, true
			}
			return nil, false
		})
	}

	return &ast.Equation{Label: eq.Label, Targets: newTargets, RHS: rhs}, nil
}

func freshName(m *sem.Module, want string) string {
	name := want
	for m.Lookup(name) != nil || m.IndexVar(name) != nil {
		name += "t"
	}
	return name
}

// basisIndex returns j when row is the standard basis vector e_j, else -1.
func basisIndex(row []int64) int {
	j := -1
	for i, c := range row {
		switch c {
		case 0:
		case 1:
			if j >= 0 {
				return -1
			}
			j = i
		default:
			return -1
		}
	}
	return j
}
