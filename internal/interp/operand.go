package interp

// Fused operator nodes of the direct addressing mode. A binary node of a
// specialized equation whose operand is a leaf — a direct array read, a
// literal (an integer literal widened to real included) or a hoisted
// scalar — inlines that leaf instead of calling its closure: R + R is
// one closure reading fs[a][offs[a]] + fs[b][offs[b]], and T / 4 is
// t(k) / 4.0. The operator, its operand order and Go's arithmetic are the
// checked kernel's, so no bit changes; only the calls go. Real + − × ÷
// fuse over every operand shape; min, max and the six comparisons (real
// and integer) swap a leaf to the left first, which is exact for them
// (math.Min and math.Max are symmetric, a swapped comparison flips its
// operator). Integer arithmetic keeps its closures: the integer work of
// a specialized kernel is mostly subscripts and guards, evaluated once
// per span, and comparisons of integer reads, which fuse.

import (
	"cmp"
	"math"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/types"
)

// leafKind is what a fused node inlines of an operand.
type leafKind uint8

const (
	subtree   leafKind = iota // any other expression: its closure is called
	readLeaf                  // direct array read: access i at its current offset
	litLeaf                   // literal v
	hoistLeaf                 // hoisted scalar: slot i of the span's scalar table
)

// Operand shapes, left kind × right kind.
const (
	shRR = readLeaf<<2 | readLeaf
	shRT = readLeaf<<2 | subtree
	shTR = subtree<<2 | readLeaf
	shRL = readLeaf<<2 | litLeaf
	shLR = litLeaf<<2 | readLeaf
	shTL = subtree<<2 | litLeaf
	shLT = litLeaf<<2 | subtree
	shRH = readLeaf<<2 | hoistLeaf
	shHR = hoistLeaf<<2 | readLeaf
	shTH = subtree<<2 | hoistLeaf
	shHT = hoistLeaf<<2 | subtree
)

// operand is one operand of a binary node as the compiler classified it:
// a leaf (kind, i, v) or a subtree (f).
type operand[T float64 | int64] struct {
	kind leafKind
	i    int
	v    T
	f    func(*kctx) T
}

// leafF returns a real operand's own closure.
func leafF(o operand[float64]) evalF {
	i := o.i
	switch o.kind {
	case readLeaf:
		return func(k *kctx) float64 { return k.fs[i][k.offs[i]] }
	case litLeaf:
		return constant(o.v)
	case hoistLeaf:
		return func(k *kctx) float64 { return k.sf[i] }
	}
	return o.f
}

// leafI returns an integer operand's own closure.
func leafI(o operand[int64]) evalI {
	i := o.i
	switch o.kind {
	case readLeaf:
		return func(k *kctx) int64 { return k.is[i][k.offs[i]] }
	case litLeaf:
		return constant(o.v)
	case hoistLeaf:
		return func(k *kctx) int64 { return k.sn[i] }
	}
	return o.f
}

// operandF classifies a real operand. In checked mode every operand is a
// subtree.
func (c *compiler) operandF(e ast.Expr) operand[float64] {
	if s := c.direct; s != nil {
		switch x := ast.Unparen(e).(type) {
		case *ast.RealLit:
			return operand[float64]{kind: litLeaf, v: x.Value}
		case *ast.IntLit:
			return operand[float64]{kind: litLeaf, v: float64(x.Value)}
		case *ast.Ident, *ast.Index:
			if t := c.typeOf(x); t.Kind() == types.RealKind || t.Kind() == types.ArrayKind {
				if sym, explicit, implicit, ok := c.arrayRef(x); ok {
					if sym.Type.(*types.Array).Elem.Kind() == types.RealKind {
						return operand[float64]{kind: readLeaf, i: s.access(sym, explicit, implicit)}
					}
				} else if t.Kind() == types.RealKind {
					return operand[float64]{kind: hoistLeaf, i: s.sf.intern(c.scalarSlot(x.(*ast.Ident).Name))}
				}
			}
		}
	}
	return operand[float64]{f: c.compileF(e)}
}

// operandI classifies an integer-backed operand of a comparison.
func (c *compiler) operandI(e ast.Expr) operand[int64] {
	if s := c.direct; s != nil {
		switch x := ast.Unparen(e).(type) {
		case *ast.IntLit:
			return operand[int64]{kind: litLeaf, v: x.Value}
		case *ast.CharLit:
			return operand[int64]{kind: litLeaf, v: int64(x.Value)}
		case *ast.Index:
			if sym, explicit, implicit, ok := c.arrayRef(x); ok && intBacked(sym.Type.(*types.Array).Elem) {
				return operand[int64]{kind: readLeaf, i: s.access(sym, explicit, implicit)}
			}
		case *ast.Ident:
			if c.m.IndexVar(x.Name) != nil {
				break // a frame read: compileI marks the span's frame live
			}
			switch sym := c.m.Lookup(x.Name); {
			case sym == nil:
			case sym.Kind == sem.EnumConstSym:
				return operand[int64]{kind: litLeaf, v: int64(sym.Index)}
			case types.Rank(sym.Type) > 0:
				if s2, explicit, implicit, ok := c.arrayRef(x); ok && intBacked(s2.Type.(*types.Array).Elem) {
					return operand[int64]{kind: readLeaf, i: s.access(s2, explicit, implicit)}
				}
			default:
				return operand[int64]{kind: hoistLeaf, i: s.sn.intern(c.scalarSlot(x.Name))}
			}
		}
	}
	return operand[int64]{f: c.compileI(e)}
}

// arrayRef resolves e when it names an array element (an Index, or an
// array Ident read element-wise); ok is false for a scalar Ident.
func (c *compiler) arrayRef(e ast.Expr) (sym *sem.Symbol, explicit []ast.Expr, implicit []int, ok bool) {
	if id, isIdent := e.(*ast.Ident); isIdent {
		if s := c.m.Lookup(id.Name); s == nil || types.Rank(s.Type) == 0 {
			return nil, nil, nil, false
		}
	}
	sym, explicit, implicit = c.resolveRef(e)
	return sym, explicit, implicit, true
}

// demote turns leaf pairs no fused shape covers (literals and hoisted
// scalars on both sides) into leaf ⊕ subtree, and reports false when
// both operands are subtrees: the node then keeps its plain closure.
func demote[T float64 | int64](l, r operand[T], leaf func(operand[T]) func(*kctx) T) (operand[T], operand[T], bool) {
	switch {
	case l.kind == subtree && r.kind == subtree:
		return l, r, false
	case l.kind != readLeaf && l.kind != subtree && r.kind != readLeaf && r.kind != subtree:
		r = operand[T]{f: leaf(r)}
	}
	return l, r, true
}

// leftLeaf orders the operands of a symmetric node so that the leafier
// one (read, then literal or scalar, then subtree) is on the left, and
// reports whether it swapped them.
func leftLeaf[T float64 | int64](l, r operand[T]) (operand[T], operand[T], bool) {
	rank := func(o operand[T]) int {
		switch o.kind {
		case readLeaf:
			return 2
		case subtree:
			return 0
		}
		return 1
	}
	if rank(r) > rank(l) {
		return r, l, true
	}
	return l, r, false
}

// fuseArith returns the real l op r for op one of + − × ÷ as one
// closure, or nil when both operands are subtrees.
func fuseArith(op string, l, r operand[float64]) evalF {
	l, r, ok := demote(l, r, leafF)
	if !ok {
		return nil
	}
	a, b, u, v, f, g := l.i, r.i, l.v, r.v, l.f, r.f
	sh := l.kind<<2 | r.kind
	switch op {
	case "+":
		switch sh {
		case shRR:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] + k.fs[b][k.offs[b]] }
		case shRT:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] + g(k) }
		case shTR:
			return func(k *kctx) float64 { return f(k) + k.fs[b][k.offs[b]] }
		case shRL:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] + v }
		case shLR:
			return func(k *kctx) float64 { return u + k.fs[b][k.offs[b]] }
		case shTL:
			return func(k *kctx) float64 { return f(k) + v }
		case shLT:
			return func(k *kctx) float64 { return u + g(k) }
		case shRH:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] + k.sf[b] }
		case shHR:
			return func(k *kctx) float64 { return k.sf[a] + k.fs[b][k.offs[b]] }
		case shTH:
			return func(k *kctx) float64 { return f(k) + k.sf[b] }
		case shHT:
			return func(k *kctx) float64 { return k.sf[a] + g(k) }
		}
	case "-":
		switch sh {
		case shRR:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] - k.fs[b][k.offs[b]] }
		case shRT:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] - g(k) }
		case shTR:
			return func(k *kctx) float64 { return f(k) - k.fs[b][k.offs[b]] }
		case shRL:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] - v }
		case shLR:
			return func(k *kctx) float64 { return u - k.fs[b][k.offs[b]] }
		case shTL:
			return func(k *kctx) float64 { return f(k) - v }
		case shLT:
			return func(k *kctx) float64 { return u - g(k) }
		case shRH:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] - k.sf[b] }
		case shHR:
			return func(k *kctx) float64 { return k.sf[a] - k.fs[b][k.offs[b]] }
		case shTH:
			return func(k *kctx) float64 { return f(k) - k.sf[b] }
		case shHT:
			return func(k *kctx) float64 { return k.sf[a] - g(k) }
		}
	case "*":
		switch sh {
		case shRR:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] * k.fs[b][k.offs[b]] }
		case shRT:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] * g(k) }
		case shTR:
			return func(k *kctx) float64 { return f(k) * k.fs[b][k.offs[b]] }
		case shRL:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] * v }
		case shLR:
			return func(k *kctx) float64 { return u * k.fs[b][k.offs[b]] }
		case shTL:
			return func(k *kctx) float64 { return f(k) * v }
		case shLT:
			return func(k *kctx) float64 { return u * g(k) }
		case shRH:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] * k.sf[b] }
		case shHR:
			return func(k *kctx) float64 { return k.sf[a] * k.fs[b][k.offs[b]] }
		case shTH:
			return func(k *kctx) float64 { return f(k) * k.sf[b] }
		case shHT:
			return func(k *kctx) float64 { return k.sf[a] * g(k) }
		}
	case "/":
		switch sh {
		case shRR:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] / k.fs[b][k.offs[b]] }
		case shRT:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] / g(k) }
		case shTR:
			return func(k *kctx) float64 { return f(k) / k.fs[b][k.offs[b]] }
		case shRL:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] / v }
		case shLR:
			return func(k *kctx) float64 { return u / k.fs[b][k.offs[b]] }
		case shTL:
			return func(k *kctx) float64 { return f(k) / v }
		case shLT:
			return func(k *kctx) float64 { return u / g(k) }
		case shRH:
			return func(k *kctx) float64 { return k.fs[a][k.offs[a]] / k.sf[b] }
		case shHR:
			return func(k *kctx) float64 { return k.sf[a] / k.fs[b][k.offs[b]] }
		case shTH:
			return func(k *kctx) float64 { return f(k) / k.sf[b] }
		case shHT:
			return func(k *kctx) float64 { return k.sf[a] / g(k) }
		}
	}
	return nil
}

// fuseMinMax returns min(l, r), or max(l, r) when isMax, as one closure,
// or nil when both operands are subtrees.
func fuseMinMax(isMax bool, l, r operand[float64]) evalF {
	l, r, _ = leftLeaf(l, r)
	l, r, ok := demote(l, r, leafF)
	if !ok {
		return nil
	}
	mm := math.Min
	if isMax {
		mm = math.Max
	}
	a, b, u, v, g := l.i, r.i, l.v, r.v, r.f
	switch l.kind<<2 | r.kind {
	case shRR:
		return func(k *kctx) float64 { return mm(k.fs[a][k.offs[a]], k.fs[b][k.offs[b]]) }
	case shRT:
		return func(k *kctx) float64 { return mm(k.fs[a][k.offs[a]], g(k)) }
	case shRL:
		return func(k *kctx) float64 { return mm(k.fs[a][k.offs[a]], v) }
	case shRH:
		return func(k *kctx) float64 { return mm(k.fs[a][k.offs[a]], k.sf[b]) }
	case shLT:
		return func(k *kctx) float64 { return mm(u, g(k)) }
	case shHT:
		return func(k *kctx) float64 { return mm(k.sf[a], g(k)) }
	}
	return nil
}

// relOp is a comparison operator.
type relOp uint8

const (
	relEQ relOp = iota
	relNE
	relLT
	relLE
	relGT
	relGE
)

var relOps = map[string]relOp{"=": relEQ, "<>": relNE, "<": relLT, "<=": relLE, ">": relGT, ">=": relGE}

// swapped is the operator of the comparison with its operands exchanged.
func (op relOp) swapped() relOp {
	switch op {
	case relLT:
		return relGT
	case relLE:
		return relGE
	case relGT:
		return relLT
	case relGE:
		return relLE
	}
	return op
}

// holds evaluates x op y.
func holds[T cmp.Ordered](op relOp, x, y T) bool {
	switch op {
	case relEQ:
		return x == y
	case relNE:
		return x != y
	case relLT:
		return x < y
	case relLE:
		return x <= y
	case relGT:
		return x > y
	}
	return x >= y
}

// fuseCmpF returns the real comparison l op r as one closure, or nil
// when both operands are subtrees or op is not a comparison.
func fuseCmpF(opName string, l, r operand[float64]) evalB {
	op, isRel := relOps[opName]
	if !isRel {
		return nil
	}
	l, r, swap := leftLeaf(l, r)
	if swap {
		op = op.swapped()
	}
	l, r, ok := demote(l, r, leafF)
	if !ok {
		return nil
	}
	a, b, u, v, g := l.i, r.i, l.v, r.v, r.f
	switch l.kind<<2 | r.kind {
	case shRR:
		return func(k *kctx) bool { return holds(op, k.fs[a][k.offs[a]], k.fs[b][k.offs[b]]) }
	case shRT:
		return func(k *kctx) bool { return holds(op, k.fs[a][k.offs[a]], g(k)) }
	case shRL:
		return func(k *kctx) bool { return holds(op, k.fs[a][k.offs[a]], v) }
	case shRH:
		return func(k *kctx) bool { return holds(op, k.fs[a][k.offs[a]], k.sf[b]) }
	case shLT:
		return func(k *kctx) bool { return holds(op, u, g(k)) }
	case shHT:
		return func(k *kctx) bool { return holds(op, k.sf[a], g(k)) }
	}
	return nil
}

// fuseCmpI returns the integer comparison l op r as one closure, or nil
// when both operands are subtrees or op is not a comparison.
func fuseCmpI(opName string, l, r operand[int64]) evalB {
	op, isRel := relOps[opName]
	if !isRel {
		return nil
	}
	l, r, swap := leftLeaf(l, r)
	if swap {
		op = op.swapped()
	}
	l, r, ok := demote(l, r, leafI)
	if !ok {
		return nil
	}
	a, b, u, v, g := l.i, r.i, l.v, r.v, r.f
	switch l.kind<<2 | r.kind {
	case shRR:
		return func(k *kctx) bool { return holds(op, k.is[a][k.offs[a]], k.is[b][k.offs[b]]) }
	case shRT:
		return func(k *kctx) bool { return holds(op, k.is[a][k.offs[a]], g(k)) }
	case shRL:
		return func(k *kctx) bool { return holds(op, k.is[a][k.offs[a]], v) }
	case shRH:
		return func(k *kctx) bool { return holds(op, k.is[a][k.offs[a]], k.sn[b]) }
	case shLT:
		return func(k *kctx) bool { return holds(op, u, g(k)) }
	case shHT:
		return func(k *kctx) bool { return holds(op, k.sn[a], g(k)) }
	}
	return nil
}
