package ast

// Inspect traverses an expression tree in depth-first order, calling f for
// each node. If f returns false for a node, its children are skipped.
func Inspect(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch x := e.(type) {
	case *Binary:
		Inspect(x.X, f)
		Inspect(x.Y, f)
	case *Unary:
		Inspect(x.X, f)
	case *Paren:
		Inspect(x.X, f)
	case *IfExpr:
		Inspect(x.Cond, f)
		Inspect(x.Then, f)
		for _, arm := range x.Elifs {
			Inspect(arm.Cond, f)
			Inspect(arm.Then, f)
		}
		Inspect(x.Else, f)
	case *Index:
		Inspect(x.Base, f)
		for _, s := range x.Subs {
			Inspect(s, f)
		}
	case *Field:
		Inspect(x.Base, f)
	case *Call:
		for _, a := range x.Args {
			Inspect(a, f)
		}
	}
}

// Unparen strips any number of surrounding Paren nodes.
func Unparen(e Expr) Expr {
	for {
		p, ok := e.(*Paren)
		if !ok {
			return e
		}
		e = p.X
	}
}
