package sem

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/source"
	"repro/internal/token"
	"repro/internal/types"
)

// checkEquation validates one defining equation and derives its iteration
// dimensions.
func (c *checker) checkEquation(index int, aeq *ast.Equation) *Equation {
	eq := &Equation{Index: index, AST: aeq, RHS: aeq.RHS, Label: aeq.Label}
	if eq.Label == "" {
		eq.Label = fmt.Sprintf("eq.%d", index+1)
	}

	// Resolve targets and collect explicit index variables in order of
	// first appearance across the LHS subscripts.
	ok := true
	for _, at := range aeq.Targets {
		t := c.checkTarget(eq, at)
		if t == nil {
			ok = false
			continue
		}
		eq.Targets = append(eq.Targets, t)
	}
	if !ok || len(eq.Targets) == 0 {
		return nil
	}
	eq.NumExplicit = len(eq.Dims)

	// A right hand side that is a module call produces its results as
	// whole values: the equation executes once rather than element-wise,
	// so no implicit dimensions are derived.
	if call, isCall := ast.Unparen(aeq.RHS).(*ast.Call); isCall {
		if callee := c.prog.Module(call.Fun.Name); callee != nil {
			eq.WholeCall = call
		}
	}

	// Implicit dimensions: when the first target's assigned value is
	// array-typed, the remaining declared dimensions become implicit
	// iteration variables (A[1] = InitialA iterates I and J).
	first := eq.Targets[0]
	if arr, isArr := first.Sym.Type.(*types.Array); isArr && eq.WholeCall == nil && len(first.Subs) < len(arr.Dims) {
		for _, d := range arr.Dims[len(first.Subs):] {
			if eq.HasDim(d) {
				c.errorf(aeq.Pos(), "implicit dimension %s of %s repeats an explicit index variable; subscript it explicitly", d.Name, first.Sym.Name)
				return nil
			}
			first.Implicit = append(first.Implicit, d)
			eq.Dims = append(eq.Dims, d)
		}
	}
	// Remaining targets must cover the same implicit dimensions; a call
	// derives none for any target.
	for _, t := range eq.Targets[1:] {
		if eq.WholeCall != nil {
			break
		}
		if arr, isArr := t.Sym.Type.(*types.Array); isArr && len(t.Subs) < len(arr.Dims) {
			rem := arr.Dims[len(t.Subs):]
			if len(rem) != len(first.Implicit) {
				c.errorf(aeq.Pos(), "targets of multi-value equation cover different implicit ranks")
				return nil
			}
			t.Implicit = rem
		} else if len(first.Implicit) > 0 {
			c.errorf(aeq.Pos(), "targets of multi-value equation cover different implicit ranks")
			return nil
		}
	}

	// Type-check the right hand side under the equation's index variables.
	rhsType := c.checkExpr(eq, aeq.RHS)

	// A multi-target equation needs a multi-result module call as its RHS.
	if len(eq.Targets) > 1 {
		call, isCall := ast.Unparen(aeq.RHS).(*ast.Call)
		var callee *Module
		if isCall {
			callee = c.prog.Module(call.Fun.Name)
		}
		if callee == nil || len(callee.Results) != len(eq.Targets) {
			c.errorf(aeq.Pos(), "multi-target equation requires a module call returning %d results", len(eq.Targets))
			return nil
		}
		eq.MultiCall = call
		for i, t := range eq.Targets {
			c.checkAssignable(aeq, callee.Results[i].Type, c.targetValueType(t), t.Sym.Name)
		}
		return eq
	}

	c.checkAssignable(aeq, rhsType, c.targetValueType(first), first.Sym.Name)
	return eq
}

// targetValueType is the type of the value an equation must produce for
// target t: the element type after explicit subscripts, re-wrapped in the
// implicit dimensions if any.
func (c *checker) targetValueType(t *Target) types.Type {
	arr, isArr := t.Sym.Type.(*types.Array)
	if !isArr {
		return t.Sym.Type
	}
	return arr.Slice(len(t.Subs))
}

func (c *checker) checkAssignable(aeq *ast.Equation, src, dst types.Type, name string) {
	if src == nil || dst == nil {
		return
	}
	if !types.AssignableTo(src, dst) {
		c.errorf(aeq.Pos(), "cannot define %s: value type %s does not match %s", name, src, dst)
	}
}

// checkTarget resolves one LHS target and registers its explicit index
// variables into eq.Dims in order of first appearance.
func (c *checker) checkTarget(eq *Equation, at *ast.Target) *Target {
	sym := c.mod.scope[at.Name.Name]
	if sym == nil {
		c.errorf(at.Name.Pos(), "undefined name %s", at.Name.Name)
		return nil
	}
	if sym.Kind != ResultSym && sym.Kind != LocalSym {
		c.errorf(at.Name.Pos(), "%s cannot be defined: it is a %s", sym.Name, sym.Kind)
		return nil
	}
	t := &Target{Sym: sym, Subs: at.Subs}
	if len(at.Subs) == 0 {
		return t
	}
	arr, isArr := sym.Type.(*types.Array)
	if !isArr {
		c.errorf(at.Name.Pos(), "%s is not an array but is subscripted", sym.Name)
		return nil
	}
	if len(at.Subs) > len(arr.Dims) {
		c.errorf(at.Name.Pos(), "%s has %d dimensions but %d subscripts", sym.Name, len(arr.Dims), len(at.Subs))
		return nil
	}
	// Each LHS subscript is an expression over index variables, literals
	// and scalar parameters. Index variables encountered are registered as
	// equation dimensions. (Affine forms such as A'[2+I+J, 1, I] are
	// permitted; they arise from the §4 restructuring transformation.)
	for _, sub := range at.Subs {
		bad := false
		ast.Inspect(sub, func(x ast.Expr) bool {
			switch n := x.(type) {
			case *ast.Ident:
				if iv := c.mod.IndexVar(n.Name); iv != nil {
					if !eq.HasDim(iv) {
						eq.Dims = append(eq.Dims, iv)
					}
					c.mod.exprTypes[n] = iv
					return false
				}
				s := c.mod.scope[n.Name]
				if s == nil {
					c.errorf(n.Pos(), "undefined name %s in subscript", n.Name)
					bad = true
					return false
				}
				if !s.IsData() || !types.IsInteger(s.Type) {
					c.errorf(n.Pos(), "subscript must be integer-valued; %s is a %s", n.Name, s.Kind)
					bad = true
					return false
				}
				c.mod.exprTypes[n] = s.Type
			case *ast.IfExpr, *ast.Index, *ast.Field, *ast.Call, *ast.RealLit, *ast.StringLit, *ast.CharLit, *ast.BoolLit:
				c.errorf(x.Pos(), "left-hand-side subscripts must be affine integer expressions")
				bad = true
				return false
			}
			return true
		})
		if bad {
			return nil
		}
		c.mod.exprTypes[sub] = types.Int
	}
	return t
}

// --- expression checking -----------------------------------------------------

func (c *checker) checkExpr(eq *Equation, e ast.Expr) types.Type {
	t := c.exprType(eq, e)
	c.mod.exprTypes[e] = t
	return t
}

func (c *checker) exprType(eq *Equation, e ast.Expr) types.Type {
	switch x := e.(type) {
	case *ast.Ident:
		return c.identType(eq, x)
	case *ast.IntLit:
		return types.Int
	case *ast.RealLit:
		return types.Real
	case *ast.BoolLit:
		return types.Bool
	case *ast.StringLit:
		return types.String
	case *ast.CharLit:
		return types.Char
	case *ast.Paren:
		return c.checkExpr(eq, x.X)
	case *ast.Unary:
		return c.unaryType(eq, x)
	case *ast.Binary:
		return c.binaryType(eq, x)
	case *ast.IfExpr:
		return c.ifType(eq, x)
	case *ast.Index:
		return c.indexType(eq, x)
	case *ast.Field:
		return c.fieldType(eq, x)
	case *ast.Call:
		return c.callType(eq, x)
	}
	c.errorf(e.Pos(), "invalid expression")
	return nil
}

func (c *checker) identType(eq *Equation, x *ast.Ident) types.Type {
	if iv := c.mod.IndexVar(x.Name); iv != nil {
		if !eq.HasDim(iv) {
			c.errorf(x.Pos(), "index variable %s is not a dimension of this equation (it does not appear on the left hand side)", x.Name)
		}
		return iv
	}
	sym := c.mod.scope[x.Name]
	if sym == nil {
		c.errorf(x.Pos(), "undefined name %s", x.Name)
		return nil
	}
	switch sym.Kind {
	case EnumConstSym:
		return sym.Type
	case ParamSym, ResultSym, LocalSym:
		return sym.Type
	}
	c.errorf(x.Pos(), "%s is a %s, not a value", x.Name, sym.Kind)
	return nil
}

func (c *checker) unaryType(eq *Equation, x *ast.Unary) types.Type {
	t := c.checkExpr(eq, x.X)
	if t == nil {
		return nil
	}
	switch x.Op {
	case token.MINUS, token.PLUS:
		if !types.IsNumeric(t) {
			c.errorf(x.Pos(), "operator %s requires a numeric operand, not %s", x.Op, t)
			return nil
		}
		if types.IsInteger(t) {
			return types.Int
		}
		return types.Real
	case token.NOT:
		if t.Kind() != types.BoolKind {
			c.errorf(x.Pos(), "operator not requires a bool operand, not %s", t)
			return nil
		}
		return types.Bool
	}
	c.errorf(x.Pos(), "invalid unary operator %s", x.Op)
	return nil
}

func (c *checker) binaryType(eq *Equation, x *ast.Binary) types.Type {
	lt := c.checkExpr(eq, x.X)
	rt := c.checkExpr(eq, x.Y)
	if lt == nil || rt == nil {
		return nil
	}
	switch x.Op {
	case token.PLUS, token.MINUS, token.STAR:
		if !types.IsNumeric(lt) || !types.IsNumeric(rt) {
			c.errorf(x.Pos(), "operator %s requires numeric operands, not %s and %s", x.Op, lt, rt)
			return nil
		}
		if types.IsInteger(lt) && types.IsInteger(rt) {
			return types.Int
		}
		return types.Real
	case token.SLASH:
		if !types.IsNumeric(lt) || !types.IsNumeric(rt) {
			c.errorf(x.Pos(), "operator / requires numeric operands, not %s and %s", lt, rt)
			return nil
		}
		return types.Real
	case token.DIV, token.MOD:
		if !types.IsInteger(lt) || !types.IsInteger(rt) {
			c.errorf(x.Pos(), "operator %s requires integer operands, not %s and %s", x.Op, lt, rt)
			return nil
		}
		return types.Int
	case token.AND, token.OR:
		if lt.Kind() != types.BoolKind || rt.Kind() != types.BoolKind {
			c.errorf(x.Pos(), "operator %s requires bool operands, not %s and %s", x.Op, lt, rt)
			return nil
		}
		return types.Bool
	case token.EQ, token.NEQ:
		if !types.Equal(lt, rt) && !(types.IsNumeric(lt) && types.IsNumeric(rt)) {
			c.errorf(x.Pos(), "cannot compare %s with %s", lt, rt)
			return nil
		}
		return types.Bool
	case token.LT, token.LE, token.GT, token.GE:
		okNum := types.IsNumeric(lt) && types.IsNumeric(rt)
		okOrd := types.Equal(lt, rt) && types.IsOrdered(lt)
		if !okNum && !okOrd {
			c.errorf(x.Pos(), "cannot order %s with %s", lt, rt)
			return nil
		}
		return types.Bool
	}
	c.errorf(x.Pos(), "invalid binary operator %s", x.Op)
	return nil
}

func (c *checker) ifType(eq *Equation, x *ast.IfExpr) types.Type {
	ct := c.checkExpr(eq, x.Cond)
	if ct != nil && ct.Kind() != types.BoolKind {
		c.errorf(x.Cond.Pos(), "if condition must be bool, not %s", ct)
	}
	t := c.checkExpr(eq, x.Then)
	arms := []types.Type{t}
	for _, arm := range x.Elifs {
		act := c.checkExpr(eq, arm.Cond)
		if act != nil && act.Kind() != types.BoolKind {
			c.errorf(arm.Cond.Pos(), "elsif condition must be bool, not %s", act)
		}
		arms = append(arms, c.checkExpr(eq, arm.Then))
	}
	arms = append(arms, c.checkExpr(eq, x.Else))
	var unified types.Type
	for _, at := range arms {
		if at == nil {
			continue
		}
		switch {
		case unified == nil:
			unified = at
		case types.IsNumeric(unified) && types.IsNumeric(at):
			if unified.Kind() == types.RealKind || at.Kind() == types.RealKind {
				unified = types.Real
			} else {
				unified = types.Int
			}
		case !types.Equal(unified, at):
			c.errorf(x.Pos(), "if arms have mismatched types %s and %s", unified, at)
			return nil
		}
	}
	return unified
}

func (c *checker) indexType(eq *Equation, x *ast.Index) types.Type {
	bt := c.checkExpr(eq, x.Base)
	if bt == nil {
		return nil
	}
	arr, isArr := bt.(*types.Array)
	if !isArr {
		c.errorf(x.Pos(), "cannot subscript non-array type %s", bt)
		return nil
	}
	if len(x.Subs) > len(arr.Dims) {
		c.errorf(x.Pos(), "array has %d dimensions but %d subscripts", len(arr.Dims), len(x.Subs))
		return nil
	}
	for _, s := range x.Subs {
		st := c.checkExpr(eq, s)
		if st != nil && !types.IsInteger(st) {
			c.errorf(s.Pos(), "subscript must be an integer, not %s", st)
		}
	}
	return arr.Slice(len(x.Subs))
}

func (c *checker) fieldType(eq *Equation, x *ast.Field) types.Type {
	bt := c.checkExpr(eq, x.Base)
	if bt == nil {
		return nil
	}
	rec, isRec := bt.(*types.Record)
	if !isRec {
		c.errorf(x.Pos(), "cannot select field of non-record type %s", bt)
		return nil
	}
	f := rec.Field(x.Sel.Name)
	if f == nil {
		c.errorf(x.Sel.Pos(), "record has no field %s", x.Sel.Name)
		return nil
	}
	return f.Type
}

// Builtin describes one builtin function.
type Builtin struct {
	Name  string
	Arity int
	// Check validates argument types and returns the result type.
	Check func(c *checker, call *ast.Call, args []types.Type) types.Type
}

func numericToReal(c *checker, call *ast.Call, args []types.Type) types.Type {
	for _, a := range args {
		if a != nil && !types.IsNumeric(a) {
			c.errorf(call.Pos(), "%s requires numeric arguments", call.Fun.Name)
			return nil
		}
	}
	return types.Real
}

// Builtins is the table of PS builtin functions.
var Builtins = map[string]*Builtin{
	"abs": {Name: "abs", Arity: 1, Check: func(c *checker, call *ast.Call, args []types.Type) types.Type {
		if args[0] != nil && !types.IsNumeric(args[0]) {
			c.errorf(call.Pos(), "abs requires a numeric argument")
			return nil
		}
		if types.IsInteger(args[0]) {
			return types.Int
		}
		return types.Real
	}},
	"min":  {Name: "min", Arity: 2, Check: checkMinMax},
	"max":  {Name: "max", Arity: 2, Check: checkMinMax},
	"sqrt": {Name: "sqrt", Arity: 1, Check: numericToReal},
	"sin":  {Name: "sin", Arity: 1, Check: numericToReal},
	"cos":  {Name: "cos", Arity: 1, Check: numericToReal},
	"exp":  {Name: "exp", Arity: 1, Check: numericToReal},
	"ln":   {Name: "ln", Arity: 1, Check: numericToReal},
	"pow":  {Name: "pow", Arity: 2, Check: numericToReal},
	"trunc": {Name: "trunc", Arity: 1, Check: func(c *checker, call *ast.Call, args []types.Type) types.Type {
		if args[0] != nil && !types.IsNumeric(args[0]) {
			c.errorf(call.Pos(), "trunc requires a numeric argument")
			return nil
		}
		return types.Int
	}},
	"round": {Name: "round", Arity: 1, Check: func(c *checker, call *ast.Call, args []types.Type) types.Type {
		if args[0] != nil && !types.IsNumeric(args[0]) {
			c.errorf(call.Pos(), "round requires a numeric argument")
			return nil
		}
		return types.Int
	}},
	"float": {Name: "float", Arity: 1, Check: func(c *checker, call *ast.Call, args []types.Type) types.Type {
		if args[0] != nil && !types.IsInteger(args[0]) {
			c.errorf(call.Pos(), "float requires an integer argument")
			return nil
		}
		return types.Real
	}},
	"ord": {Name: "ord", Arity: 1, Check: func(c *checker, call *ast.Call, args []types.Type) types.Type {
		if args[0] != nil {
			switch args[0].Kind() {
			case types.EnumKind, types.CharKind, types.BoolKind, types.IntKind, types.SubrangeKind:
			default:
				c.errorf(call.Pos(), "ord requires an ordinal argument, not %s", args[0])
				return nil
			}
		}
		return types.Int
	}},
}

func checkMinMax(c *checker, call *ast.Call, args []types.Type) types.Type {
	for _, a := range args {
		if a != nil && !types.IsNumeric(a) {
			c.errorf(call.Pos(), "%s requires numeric arguments", call.Fun.Name)
			return nil
		}
	}
	if types.IsInteger(args[0]) && types.IsInteger(args[1]) {
		return types.Int
	}
	return types.Real
}

func (c *checker) callType(eq *Equation, x *ast.Call) types.Type {
	var args []types.Type
	for _, a := range x.Args {
		args = append(args, c.checkExpr(eq, a))
	}
	if b, ok := Builtins[strings.ToLower(x.Fun.Name)]; ok {
		if len(args) != b.Arity {
			c.errorf(x.Pos(), "%s requires %d argument(s), got %d", b.Name, b.Arity, len(args))
			return nil
		}
		return b.Check(c, x, args)
	}
	callee := c.prog.Module(x.Fun.Name)
	if callee == nil {
		c.errorf(x.Fun.Pos(), "undefined function or module %s", x.Fun.Name)
		return nil
	}
	if callee == c.mod {
		c.errorf(x.Fun.Pos(), "module %s cannot invoke itself", c.mod.Name)
		return nil
	}
	if len(args) != len(callee.Params) {
		c.errorf(x.Pos(), "module %s takes %d parameter(s), got %d", callee.Name, len(callee.Params), len(args))
		return nil
	}
	for i, at := range args {
		pt := callee.Params[i].Type
		// The callee may not be checked yet; skip unresolved types.
		if at == nil || pt == nil {
			continue
		}
		if !types.AssignableTo(at, pt) {
			c.errorf(x.Args[i].Pos(), "argument %d of %s: cannot use %s as %s", i+1, callee.Name, at, pt)
		}
	}
	if len(callee.Results) == 1 {
		return callee.Results[0].Type
	}
	// Multi-result calls are validated by checkEquation against the
	// target list; give the call no single type.
	return nil
}

// checkCallCycles rejects mutually recursive module invocation.
func checkCallCycles(p *Program, errs *source.ErrorList) error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*Module]int)
	var visit func(m *Module) bool
	visit = func(m *Module) bool {
		color[m] = gray
		for _, callee := range p.calleesOf(m) {
			switch color[callee] {
			case gray:
				errs.Addf(m.AST.Name.Pos(), "module call cycle involving %s and %s", m.Name, callee.Name)
				return false
			case white:
				if !visit(callee) {
					return false
				}
			}
		}
		color[m] = black
		return true
	}
	for _, m := range p.Modules {
		if color[m] == white {
			if !visit(m) {
				break
			}
		}
	}
	return errs.Err()
}

// calleesOf returns the modules m invokes.
func (p *Program) calleesOf(m *Module) []*Module {
	var out []*Module
	seen := make(map[*Module]bool)
	for _, eq := range m.Eqs {
		ast.Inspect(eq.RHS, func(x ast.Expr) bool {
			if call, ok := x.(*ast.Call); ok {
				if callee := p.Module(call.Fun.Name); callee != nil && callee != m && !seen[callee] {
					seen[callee] = true
					out = append(out, callee)
				}
			}
			return true
		})
	}
	return out
}
