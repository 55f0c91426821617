package interp

// Kernel specialization (the perf core of the §3–§4 reproduction): when
// an equation body is a recognized shape — affine reads of flat
// float64/int64 arrays combined with +,−,×,÷, literals, loop indices and
// builtins — the compiler runs a second time in its direct addressing
// mode (compile.go: same expression lowering, different leaves) and
// emits a *direct kernel* alongside the checked closure tree: a closure
// over raw backing slices whose operand offsets are maintained
// incrementally along a run of consecutive points (strength reduction:
// a subscript of slope c along the run moves its access by c × stride
// per point, for any constant integer c, reflected N + 1 − J included),
// with array bounds certified once per run so the per-point path is
// branch-free. A windowed axis the run does not move folds into the base
// offset.
//
// Executors hand spans, not points, to a *body* of k ≥ 1 equations
// (bodySpan, the one span executor): DOALL rows and split wavefront rows
// one equation at a time (k = 1); the leaf DO of a sequential recurrence
// nest and jammed wavefront rows their whole body, each point running
// every equation in body order. Reads carried along the span see program
// order because each point's stores land before the next point's reads.
//
// Index-set splitting: a body `if g1 then a1 elsif … else aN` whose
// every guard is span-affine — true/false, not, and, or over
// comparisons of two affine integer expressions in the loop indices and
// span-invariant scalars — compiles one direct store per arm. Along a
// span each comparison's difference is d0 + s·p, so its truth changes
// at ≤ 2 points: the span is cut at every equation's such points, each
// piece runs the tuple of arms its guards select, and the piece is
// certified against those arms' accesses only (a stencil's boundary rows
// read the carried value, never the out-of-range neighbours). Any other
// body is the one-arm, zero-cut case of the same loop. Points the
// certificate cannot cover (windowed axes in motion, out-of-range reads,
// a guard whose sides could leave int64) and strict mode run the checked
// kernels — all k of them per point, in body order — so specialized and
// generic execution are bitwise identical.
//
// Per point, a direct kernel is as few closures as its tree allows: a
// binary node over a leaf operand — a direct read, a literal, a hoisted
// scalar — is one fused closure (operand.go), an arm's store inlines a
// leaf value or the root of `subtree op literal`, and an arm whose value
// is a bare read of another array is a *copy arm*: a certified piece of
// a single-equation span whose target and source both move one element
// per point stores with one copy, which any order of the point loop
// equals because the two backings are distinct. A read of the target's
// own array, any other slope and a jammed body run the point loop.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sem"
	"repro/internal/token"
	"repro/internal/types"
)

// eqSpec is one equation's specialization outcome: its direct form, or
// nil and the reason it stayed generic (surfaced through
// Program.Kernels and Runner.Explain).
type eqSpec struct {
	spec *specKernel
	// why is the reason the equation stayed generic ("" when specialized).
	why string
}

// specAbort is the bail panic of the compiler's direct mode: the
// equation shape is outside the recognized fragment, so the checked
// closure tree remains the only kernel.
type specAbort struct{ reason string }

// affineForm is an integer expression affine in the loop indices — a
// subscript or a guard side: its value, compiled in checked mode and
// evaluated once per span, and its index terms. Along a span only the
// span's slot moves, so the form advances by that slot's coefficient
// per point.
type affineForm struct {
	eval  evalI
	terms []slotCoef
}

// coef is the form's slope along a span of slot: 0 when it does not
// move.
func (f *affineForm) coef(slot int) int64 {
	for _, t := range f.terms {
		if t.slot == slot {
			return t.coef
		}
	}
	return 0
}

// specAccess is one distinct array reference of a specialized equation.
type specAccess struct {
	si   int // symbol slot
	isF  bool
	subs []affineForm
}

// hoistTab lists the symbol slots of the scalars of one type that a
// specialized equation reads; a slot's position is its index in the
// matching kctx table (sf, sn or sb), filled at span entry.
type hoistTab []int

// intern returns the position of symbol slot si, adding it when new.
func (h *hoistTab) intern(si int) int {
	for i, s := range *h {
		if s == si {
			return i
		}
	}
	*h = append(*h, si)
	return len(*h) - 1
}

// speccer holds what the direct addressing mode adds to the compiler
// for one equation: the access table its array leaves index, the hoist
// tables its scalar leaves index, and the comparisons of its span-affine
// guards. The expression lowering itself is the compiler's, shared with
// the checked mode.
type speccer struct {
	// c is the checked-mode compiler, used for subscript base evaluators
	// and guard sides.
	c          *compiler
	accs       []*specAccess
	byKey      map[string]int
	sf, sn, sb hoistTab
	cmps       []guardCmp
	// arm lists the access-table entries the arm being compiled has
	// registered; readsIdx records whether it read a loop index.
	arm      []int
	readsIdx bool
	// fused counts the closures that inline a leaf operand (operand.go),
	// stores included.
	fused int
}

func (s *speccer) bail(format string, args ...any) {
	panic(specAbort{reason: fmt.Sprintf(format, args...)})
}

// access registers an array reference (explicit subscripts plus the
// frame slots of implicit trailing dimensions) with the current arm and
// returns its index in the access tables. Identical references share one
// table slot, which is safe even across the write target and across
// arms: offsets are positions, not values.
func (s *speccer) access(sym *sem.Symbol, explicit []ast.Expr, implicit []int) int {
	arr := sym.Type.(*types.Array)
	isF := arr.Elem.Kind() == types.RealKind
	if !isF && !intBacked(arr.Elem) {
		s.bail("array %s has %s elements", sym.Name, arr.Elem)
	}
	key := fmt.Sprintf("%d", s.c.cm.symIdx[sym])
	for _, e := range explicit {
		key += "|" + ast.ExprString(e)
	}
	for _, slot := range implicit {
		key += fmt.Sprintf("|@%d", slot)
	}
	ai, ok := s.byKey[key]
	if !ok {
		ac := &specAccess{si: s.c.cm.symIdx[sym], isF: isF}
		for _, e := range explicit {
			ac.subs = append(ac.subs, s.subscript(e))
		}
		for _, slot := range implicit {
			ac.subs = append(ac.subs, affineForm{eval: frameSlot(slot), terms: []slotCoef{{slot, 1}}})
		}
		ai = len(s.accs)
		s.accs = append(s.accs, ac)
		s.byKey[key] = ai
	}
	if !slices.Contains(s.arm, ai) {
		s.arm = append(s.arm, ai)
	}
	return ai
}

// subscript classifies one explicit subscript: affine in loop indices
// that have frame slots, with any integer coefficients (reflect's
// N + 1 - J has slope −1 along J) and span-invariant scalar terms.
// Anything else — div, mod, products of indices, array reads — bails,
// keeping the checked kernel.
func (s *speccer) subscript(e ast.Expr) affineForm {
	f, ok := s.affine(e)
	switch {
	case ok:
		return f
	case s.c.m.AnalyzeAffine(e) == nil:
		s.bail("non-affine subscript %s", ast.ExprString(e))
	default:
		s.bail("no frame slot for subscript variable in %s", ast.ExprString(e))
	}
	return f
}

// --- span-affine guards --------------------------------------------------------

// guardFn is a guard lowered over its comparisons: d[i] is lhs − rhs of
// comparison i at the point being classified.
type guardFn func(d []int64) bool

// slotCoef is one index term coef × fr[slot] of an affine form.
type slotCoef struct {
	slot int
	coef int64
}

// guardCmp is one comparison of a span-affine guard, lhs op rhs; both
// sides are evaluated once per span.
type guardCmp struct {
	lhs, rhs affineForm
}

// signTruth maps a comparison operator to the truth of d op 0, indexed
// by sign(d)+1.
var signTruth = map[token.Kind][3]bool{
	token.EQ:  {false, true, false},
	token.NEQ: {true, false, true},
	token.LT:  {true, false, false},
	token.LE:  {true, true, false},
	token.GT:  {false, false, true},
	token.GE:  {false, true, true},
}

// bodyArms splits a right-hand side into the arms of a top-level
// if/elsif chain whose every guard is span-affine, returning one guard
// per arm but the else. Any other body is a single arm with no guard.
func (s *speccer) bodyArms(rhs ast.Expr) ([]ast.Expr, []guardFn) {
	x, ok := ast.Unparen(rhs).(*ast.IfExpr)
	if !ok {
		return []ast.Expr{rhs}, nil
	}
	conds, arms := []ast.Expr{x.Cond}, []ast.Expr{x.Then}
	for _, e := range x.Elifs {
		conds = append(conds, e.Cond)
		arms = append(arms, e.Then)
	}
	guards := make([]guardFn, len(conds))
	for i, cond := range conds {
		if guards[i], ok = s.guard(cond); !ok {
			s.cmps = nil
			return []ast.Expr{rhs}, nil
		}
	}
	return append(arms, x.Else), guards
}

// guard lowers a span-affine guard, appending its comparisons to
// s.cmps, or reports false. Affine forms admit no div or mod, so a
// comparison can neither panic nor have effects: evaluating all of them
// once per span is equivalent to the checked kernel's short-circuit
// evaluation.
func (s *speccer) guard(e ast.Expr) (guardFn, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.BoolLit:
		v := x.Value
		return func([]int64) bool { return v }, true
	case *ast.Unary:
		if x.Op != token.NOT {
			return nil, false
		}
		g, ok := s.guard(x.X)
		return func(d []int64) bool { return !g(d) }, ok
	case *ast.Binary:
		if x.Op == token.AND || x.Op == token.OR {
			l, lok := s.guard(x.X)
			r, rok := s.guard(x.Y)
			if x.Op == token.AND {
				return func(d []int64) bool { return l(d) && r(d) }, lok && rok
			}
			return func(d []int64) bool { return l(d) || r(d) }, lok && rok
		}
		truth, isRel := signTruth[x.Op]
		lhs, lok := s.affine(x.X)
		rhs, rok := s.affine(x.Y)
		if !isRel || !lok || !rok {
			return nil, false
		}
		i := len(s.cmps)
		s.cmps = append(s.cmps, guardCmp{lhs: lhs, rhs: rhs})
		return func(d []int64) bool { return truth[cmp.Compare(d[i], 0)+1] }, true
	}
	return nil, false
}

// affine decomposes an integer expression into its affine form, or
// reports false when it is not affine in indices that have frame slots.
func (s *speccer) affine(e ast.Expr) (affineForm, bool) {
	af := s.c.m.AnalyzeAffine(e)
	if af == nil {
		return affineForm{}, false
	}
	f := affineForm{eval: s.c.compileI(e)}
	for v, coef := range af.Coeffs {
		slot, ok := s.c.cm.slotOf[v]
		if !ok {
			return affineForm{}, false
		}
		if coef != 0 {
			f.terms = append(f.terms, slotCoef{slot, coef})
		}
	}
	return f, true
}

// ovf is int64 arithmetic that remembers whether any step overflowed.
type ovf struct{ bad bool }

func (o *ovf) add(a, b int64) int64 {
	c := a + b
	o.bad = o.bad || (c > a) != (b > 0)
	return c
}

func (o *ovf) sub(a, b int64) int64 {
	c := a - b
	o.bad = o.bad || (c < a) != (b > 0)
	return c
}

func (o *ovf) mul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	o.bad = o.bad || c/b != a || (b == -1 && a == math.MinInt64)
	return c
}

// --- building the specialized span -------------------------------------------

// specArm is one arm of a specialized body: the direct store of its
// value, the access-table entries it registered (the target always
// among them), and whether its closures read a loop index, which is
// the only reason to keep the frame current point by point. A copy arm
// — its value a bare read of an array other than the target — also
// names its source access src (−1 for any other arm) and its target
// access dst.
type specArm struct {
	store    func(k *kctx)
	accs     []int
	readsIdx bool
	dst, src int
}

// storeF compiles the direct store of real expression e into access
// ti. A leaf value folds into the store, and so does the root of
// `subtree op literal` (a stencil's final / 4). src is the access of a
// value that is a bare read, −1 otherwise.
func (c *compiler) storeF(ti int, e ast.Expr) (store func(k *kctx), src int) {
	var o operand[float64]
	if x, ok := ast.Unparen(e).(*ast.Binary); ok && c.typeOf(x).Kind() == types.RealKind {
		l, r := c.operandF(x.X), c.operandF(x.Y)
		if f, v := l.f, r.v; l.kind == subtree && r.kind == litLeaf {
			c.direct.fused++
			switch x.Op.String() {
			case "+":
				return func(k *kctx) { k.fs[ti][k.offs[ti]] = f(k) + v }, -1
			case "-":
				return func(k *kctx) { k.fs[ti][k.offs[ti]] = f(k) - v }, -1
			case "*":
				return func(k *kctx) { k.fs[ti][k.offs[ti]] = f(k) * v }, -1
			case "/":
				return func(k *kctx) { k.fs[ti][k.offs[ti]] = f(k) / v }, -1
			}
		}
		o.f = c.binaryF(x, l, r)
	} else {
		o = c.operandF(e)
	}
	if o.kind != subtree {
		c.direct.fused++
	}
	a, v, f := o.i, o.v, o.f
	switch o.kind {
	case readLeaf:
		return func(k *kctx) { k.fs[ti][k.offs[ti]] = k.fs[a][k.offs[a]] }, a
	case litLeaf:
		return func(k *kctx) { k.fs[ti][k.offs[ti]] = v }, -1
	case hoistLeaf:
		return func(k *kctx) { k.fs[ti][k.offs[ti]] = k.sf[a] }, -1
	}
	return func(k *kctx) { k.fs[ti][k.offs[ti]] = f(k) }, -1
}

// storeI compiles the direct store of integer-backed expression e into
// access ti, folding a leaf value into the store; src is as for storeF.
func (c *compiler) storeI(ti int, e ast.Expr) (store func(k *kctx), src int) {
	o := c.operandI(e)
	if o.kind != subtree {
		c.direct.fused++
	}
	a, v, f := o.i, o.v, o.f
	switch o.kind {
	case readLeaf:
		return func(k *kctx) { k.is[ti][k.offs[ti]] = k.is[a][k.offs[a]] }, a
	case litLeaf:
		return func(k *kctx) { k.is[ti][k.offs[ti]] = v }, -1
	case hoistLeaf:
		return func(k *kctx) { k.is[ti][k.offs[ti]] = k.sn[a] }, -1
	}
	return func(k *kctx) { k.is[ti][k.offs[ti]] = f(k) }, -1
}

// specKernel is one equation's direct form, compiled once and shared by
// every body span the equation runs in.
type specKernel struct {
	eq int64 // equation index, for KSpecFallback
	// arms[i] runs where guards[i] is the first guard to hold; the last
	// arm is the else (the whole body when nothing splits).
	arms       []specArm
	guards     []guardFn
	cmps       []guardCmp
	accs       []*specAccess
	sf, sn, sb hoistTab
	fused      int
}

// spanState is one equation's share of a span's working set: the
// context its direct closures evaluate on, each access's entry offset,
// per-point slope and certified interval [lo, hi] of span points, its
// guard comparisons' differences, and its kernel index.
type spanState struct {
	kctx
	base, slope, lo, hi []int64
	d                   []int64
	eq                  int32
}

// newState allocates the working set of one of sk's spans.
func (sk *specKernel) newState() spanState {
	nacc := len(sk.accs)
	return spanState{
		kctx: kctx{
			offs: make([]int64, nacc),
			fs:   make([][]float64, nacc),
			is:   make([][]int64, nacc),
			sf:   make([]float64, len(sk.sf)),
			sn:   make([]int64, len(sk.sn)),
			sb:   make([]bool, len(sk.sb)),
		},
		base:  make([]int64, nacc),
		slope: make([]int64, nacc),
		lo:    make([]int64, nacc),
		hi:    make([]int64, nacc),
	}
}

// specializeEquation compiles eq's direct form when the body fits the
// recognized fragment; otherwise the outcome names why the checked
// kernel stays its only kernel. The caller must have c.eq set.
func (c *compiler) specializeEquation(eq *sem.Equation) (sp eqSpec) {
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case specAbort:
				sp = eqSpec{why: e.reason}
			case compileError:
				sp = eqSpec{why: e.err.Error()}
			default:
				panic(r)
			}
		}
	}()
	if eq.MultiCall != nil || eq.WholeCall != nil {
		return eqSpec{why: "module call"}
	}
	target := eq.Targets[0]
	if target.Rank() == 0 {
		return eqSpec{why: "scalar target"}
	}
	// Lower each arm of the right-hand side once more with the same
	// compiler in direct mode. The write target is access 0 unless a read
	// deduplicates onto it; either way ti addresses the stored element.
	s := &speccer{c: c, byKey: make(map[string]int)}
	dc := *c
	dc.direct = s
	ti := s.access(target.Sym, target.Subs, c.targetSlots(target))
	exprs, guards := s.bodyArms(eq.RHS)
	sk := &specKernel{eq: int64(eq.Index), guards: guards, arms: make([]specArm, len(exprs))}
	for i, e := range exprs {
		s.arm, s.readsIdx = []int{ti}, false
		arm := &sk.arms[i]
		if s.accs[ti].isF {
			arm.store, arm.src = dc.storeF(ti, e)
		} else {
			arm.store, arm.src = dc.storeI(ti, e)
		}
		// A bare read of another array is a copy: the arm's span copies
		// the source run wherever both advance one element per point.
		if arm.src >= 0 && s.accs[arm.src].si == s.accs[ti].si {
			arm.src = -1
		}
		arm.dst, arm.accs, arm.readsIdx = ti, s.arm, s.readsIdx
	}
	sk.cmps, sk.accs = s.cmps, s.accs
	sk.sf, sk.sn, sk.sb, sk.fused = s.sf, s.sn, s.sb, s.fused
	return eqSpec{spec: sk}
}

// spanAccess is one access of a specialized equation resolved for the
// slot a body span advances: each subscript's checked-mode value and its
// slope along the slot.
type spanAccess struct {
	si   int
	isF  bool
	subs []spanSub
}

// spanSub is one subscript of a spanAccess.
type spanSub struct {
	eval  evalI
	slope int64
}

// bodySpan is the one span executor: it runs consecutive points of a
// body of k ≥ 1 equations along one loop index, each point running
// every equation in body order — a single equation's row is the k = 1
// case.
type bodySpan struct {
	// kern lists the body's kernel indices (into pl.Eqs) in body order,
	// gens their checked kernels.
	kern []int32
	gens []kernelFn
	// slot is the frame slot of the loop index the spans advance: the
	// innermost index of the loop that runs the body.
	slot int
	// sks holds the equations' direct forms; nil when one of them stayed
	// generic, and the body then runs on the checked kernels throughout.
	sks []*specKernel
	// accs[e] is equation e's access table resolved along slot.
	accs [][]spanAccess
	// cmps concatenates the equations' guard comparisons, equation e's
	// being cmps[cmpLo[e]:cmpLo[e+1]]; cmpSlopes holds each one's side
	// slopes along slot.
	cmps      []guardCmp
	cmpLo     []int
	cmpSlopes [][2]int64
	pool      sync.Pool
}

// bodyState is the pooled working set of one body span: each
// equation's spanState, each guard comparison's difference d0 + ds·p,
// the sorted cuts they make, and the arm tuple of the piece being cut
// and of its successor.
type bodyState struct {
	eqs        []spanState
	d0, ds, d  []int64
	cuts       []int64
	arms, next []*specArm
}

// newBodySpan builds the span executor of the body whose kernels, in
// body order, are kern, run along the loop index in frame slot slot.
func (cp *compiledPlan) newBodySpan(kern []int32, slot int) *bodySpan {
	b := &bodySpan{kern: kern, gens: make([]kernelFn, len(kern)), slot: slot}
	sks := make([]*specKernel, len(kern))
	for e, ki := range kern {
		b.gens[e], sks[e] = cp.kernels[ki], cp.specs[ki].spec
	}
	if slices.Contains(sks, nil) {
		return b
	}
	b.sks, b.cmpLo = sks, []int{0}
	for _, sk := range sks {
		accs := make([]spanAccess, len(sk.accs))
		for ai, ac := range sk.accs {
			accs[ai] = spanAccess{si: ac.si, isF: ac.isF, subs: make([]spanSub, len(ac.subs))}
			for d := range ac.subs {
				accs[ai].subs[d] = spanSub{ac.subs[d].eval, ac.subs[d].coef(slot)}
			}
		}
		b.accs = append(b.accs, accs)
		for _, gc := range sk.cmps {
			b.cmpSlopes = append(b.cmpSlopes, [2]int64{gc.lhs.coef(slot), gc.rhs.coef(slot)})
		}
		b.cmps = append(b.cmps, sk.cmps...)
		b.cmpLo = append(b.cmpLo, len(b.cmps))
	}
	b.pool.New = func() any {
		k, ncmp := len(sks), len(b.cmps)
		bs := &bodyState{
			eqs:  make([]spanState, k),
			d0:   make([]int64, ncmp),
			ds:   make([]int64, ncmp),
			d:    make([]int64, ncmp),
			cuts: make([]int64, 0, 2*ncmp+2),
			arms: make([]*specArm, k), next: make([]*specArm, k),
		}
		for e, sk := range sks {
			bs.eqs[e] = sk.newState()
			bs.eqs[e].d, bs.eqs[e].eq = bs.d[b.cmpLo[e]:b.cmpLo[e+1]], kern[e]
		}
		return bs
	}
	return b
}

// span runs the body over n consecutive points: it starts at the
// frame's current coordinates and advances fr[b.slot] by one between
// points (a DOALL row, a leaf DO, a row of a wavefront tile), and
// restores the frame to the first point before returning. It certifies
// every access of every equation once, cuts the span wherever one of
// their guard comparisons can change truth, and runs each piece with the
// tuple of arms the guards select. en.eqCount grows by one per equation
// instance, and en.curEq names the equation executing.
func (b *bodySpan) span(en *env, fr []int64, n int64) {
	if n <= 0 {
		return
	}
	en.curEq = b.kern[0]
	if b.sks == nil || en.strict || en.noSpec {
		b.checked(en, fr, n)
		fr[b.slot] -= n
		return
	}
	bs := b.pool.Get().(*bodyState)
	for e, sk := range b.sks {
		st := &bs.eqs[e]
		st.en, st.fr = en, fr
		st.certify(b.accs[e], n)
		for i, si := range sk.sf {
			st.sf[i] = en.scalars[si].(float64)
		}
		for i, si := range sk.sn {
			st.sn[i] = en.scalars[si].(int64)
		}
		for i, si := range sk.sb {
			st.sb[i] = en.scalars[si].(bool)
		}
	}
	if !b.split(bs, n) {
		b.fallback(bs, n)
	} else {
		// The frame sits at start; consecutive pieces the guards send to
		// the same arms run as one.
		start, arms, next := int64(0), bs.arms, bs.next
		b.pick(bs, 0, arms, arms)
		for _, c := range bs.cuts[1:] {
			if c < n && !b.pick(bs, c, next, arms) {
				continue
			}
			b.piece(bs, arms, start, c)
			start, arms, next = c, next, arms
		}
	}
	fr[b.slot] -= n
	for e := range bs.eqs {
		bs.eqs[e].en, bs.eqs[e].fr = nil, nil
	}
	b.pool.Put(bs)
}

// certify resolves each access's backing, its flat offset at the span's
// first point, its per-point slope, and the interval [lo, hi] of span
// points where it is provably in bounds — empty when a stationary
// subscript is out of range, a windowed axis moves (mod wrap mid-span
// makes offsets non-affine) or a bound leaves int64. A subscript of
// slope c along the span is x0 + c·p at point p, so each moving
// dimension clips the interval to the p that keep it on its axis.
// Offsets are meaningful inside the interval only, where wrapping int64
// arithmetic computes them exactly.
func (st *spanState) certify(accs []spanAccess, n int64) {
	k := &st.kctx
	for ai := range accs {
		ac := &accs[ai]
		a := k.en.arrays[ac.si]
		if ac.isF {
			k.fs[ai] = a.F
		} else {
			k.is[ai] = a.I
		}
		lo, hi := int64(0), n-1
		var off, slope int64
		for d, sub := range ac.subs {
			x0, c := sub.eval(k), sub.slope
			ax := a.Axes[d]
			if c == 0 {
				// Stationary dimension: one range check covers the span;
				// window wrap folds into the base offset.
				if x0 < ax.Lo || x0 > ax.Hi {
					lo, hi = n, n-1
					break
				}
				p := x0 - ax.Lo
				if ph := a.PhysDims[d]; p >= ph {
					p %= ph
				}
				off += p * a.Strides[d]
				continue
			}
			if a.PhysDims[d] < ax.Hi-ax.Lo+1 {
				lo, hi = n, n-1
				break
			}
			var pLo, pHi int64
			if c == 1 {
				// The common unit slope inline: onAxis's call costs 3 % of
				// the 8 × 8 relaxation's run time.
				var o ovf
				if pLo, pHi = o.sub(ax.Lo, x0), o.sub(ax.Hi, x0); o.bad {
					pLo, pHi = 1, 0
				}
			} else {
				pLo, pHi = onAxis(x0, c, ax.Lo, ax.Hi)
			}
			lo, hi = max(lo, pLo), min(hi, pHi)
			off += (x0 - ax.Lo) * a.Strides[d]
			slope += c * a.Strides[d]
		}
		st.lo[ai], st.hi[ai], st.base[ai], st.slope[ai] = lo, hi, off, slope
	}
}

// onAxis returns the span points p with lo ≤ x0 + c·p ≤ hi for a slope
// c ≠ 0 — mirrored to −x0 + |c|·p ∈ [−hi, −lo] when c < 0, so unit
// slopes need no division — and an empty range when a bound leaves
// int64.
func onAxis(x0, c, lo, hi int64) (pLo, pHi int64) {
	var o ovf
	if c < 0 {
		c, x0, lo, hi = o.sub(0, c), o.sub(0, x0), o.sub(0, hi), o.sub(0, lo)
	}
	pLo, pHi = o.sub(lo, x0), o.sub(hi, x0)
	if c != 1 {
		pLo, pHi = ceilDiv(pLo, c), floorDiv(pHi, c)
	}
	if o.bad {
		return 1, 0
	}
	return pLo, pHi
}

// split evaluates every guard comparison of the body at the span's
// first point and leaves the sorted cuts in bs.cuts: 0, n, and each
// point of (0, n) where a comparison's difference d(p) = d0 + s·p can
// change sign — ⌈−d0/s⌉ and ⌊−d0/s⌋+1. It reports false when a side
// could leave int64 along the span: the checked kernel's wrapping
// arithmetic is linear in p only while both sides stay in range at both
// ends.
func (b *bodySpan) split(bs *bodyState, n int64) bool {
	cuts := append(bs.cuts[:0], 0, n)
	// Guard sides read only the frame and module scalars: any
	// equation's context evaluates them.
	k := &bs.eqs[0].kctx
	var o ovf
	for i := range b.cmps {
		gc := &b.cmps[i]
		ls, rs := b.cmpSlopes[i][0], b.cmpSlopes[i][1]
		l0, lEnd := line(&o, k, gc.lhs.eval, ls, n)
		r0, rEnd := line(&o, k, gc.rhs.eval, rs, n)
		d0, s := o.sub(l0, r0), o.sub(ls, rs)
		o.sub(lEnd, rEnd)
		bs.d0[i], bs.ds[i] = d0, s
		if s == 0 {
			continue
		}
		// The root −d0/s as x/y with y > 0.
		x, y := d0, s
		if s > 0 {
			x = o.sub(0, d0)
		} else {
			y = o.sub(0, s)
		}
		if c := ceilDiv(x, y); c > 0 && c < n {
			cuts = append(cuts, c)
		}
		if f := floorDiv(x, y); f >= 0 && f < n-1 {
			cuts = append(cuts, f+1)
		}
	}
	if o.bad {
		bs.cuts = cuts[:0]
		return false
	}
	if bs.cuts = cuts; len(cuts) > 2 {
		slices.Sort(cuts)
		bs.cuts = slices.Compact(cuts)
	}
	return true
}

// line evaluates one guard side of the given slope at the span's first
// point and at its last, recording any overflow in o.
func line(o *ovf, k *kctx, side evalI, slope, n int64) (v0, vEnd int64) {
	v0 = side(k)
	return v0, o.add(v0, o.mul(slope, n-1))
}

// pick fills arms with the arm each equation's guards select at span
// point p and reports whether that tuple differs from cur. split checked
// both ends of every difference, so d0 + ds·p is exact in wrapping
// arithmetic.
func (b *bodySpan) pick(bs *bodyState, p int64, arms, cur []*specArm) (changed bool) {
	for i := range bs.d {
		bs.d[i] = bs.d0[i] + bs.ds[i]*p
	}
	for e, sk := range b.sks {
		arm, d := &sk.arms[len(sk.guards)], bs.eqs[e].d
		for i, g := range sk.guards {
			if g(d) {
				arm = &sk.arms[i]
				break
			}
		}
		arms[e] = arm
		changed = changed || arm != cur[e]
	}
	return changed
}

// piece runs span points [a, z) — the frame at a — with the arm tuple
// arms: the points inside every selected arm's certificate on the
// direct stores, the rest through the checked kernels. It leaves the
// frame at z.
func (b *bodySpan) piece(bs *bodyState, arms []*specArm, a, z int64) {
	lo, hi := a, z-1
	for e, arm := range arms {
		st := &bs.eqs[e]
		for _, ai := range arm.accs {
			lo, hi = max(lo, st.lo[ai]), min(hi, st.hi[ai])
		}
	}
	if lo > hi {
		lo, hi = z, z-1
	}
	if lo > a {
		b.fallback(bs, lo-a)
	}
	if cnt := hi - lo + 1; cnt > 0 {
		en, k := bs.eqs[0].en, int64(len(b.sks))
		en.eqCount += cnt * k
		en.specCount += cnt * k
		b.jam(bs, arms, lo, cnt)
	}
	if hi < z-1 {
		b.fallback(bs, z-1-hi)
	}
}

// fallback runs cnt points through the checked kernels, recorded as one
// KSpecFallback instant per equation and segment rather than per point.
func (b *bodySpan) fallback(bs *bodyState, cnt int64) {
	en := bs.eqs[0].en
	if en.ring != nil {
		now := en.ring.Now()
		for _, sk := range b.sks {
			en.ring.Emit(obs.KSpecFallback, now, 0, sk.eq, cnt)
		}
	}
	b.checked(en, bs.eqs[0].fr, cnt)
}

// checked runs cnt points through the checked kernels from the frame's
// current point, every equation in body order at each point, and leaves
// the frame just past the last one.
func (b *bodySpan) checked(en *env, fr []int64, cnt int64) {
	for c := int64(0); c < cnt; c++ {
		for e, gen := range b.gens {
			en.curEq = b.kern[e]
			en.eqCount++
			gen(en, fr)
		}
		fr[b.slot]++
	}
}

// jam stores cnt certified points of the body from span point x on the
// direct stores of the arm tuple arms — branch-free, every equation in
// body order at each point, each advancing only its arm's offsets — and
// leaves the frame just past them.
func (b *bodySpan) jam(bs *bodyState, arms []*specArm, x, cnt int64) {
	eqs, readsIdx := bs.eqs, false
	for e, arm := range arms {
		st := &eqs[e]
		for _, ai := range arm.accs {
			st.offs[ai] = st.base[ai] + st.slope[ai]*x
		}
		readsIdx = readsIdx || arm.readsIdx
	}
	en, fr, slot := eqs[0].en, eqs[0].fr, b.slot
	if len(eqs) == 1 {
		// One equation, which en.curEq already names, keeps its store and
		// offsets in locals: activations of short rows run about 3 %
		// faster than through the loop over equations below.
		k, arm := &eqs[0].kctx, arms[0]
		store, accs, offs, slope := arm.store, arm.accs, k.offs, eqs[0].slope
		if d, s := arm.dst, arm.src; s >= 0 && slope[d] == 1 && slope[s] == 1 {
			// A copy arm over unit-stride runs of two distinct arrays: one
			// memmove stores what the point loop would, in any order.
			if b.accs[0][d].isF {
				copy(k.fs[d][offs[d]:offs[d]+cnt], k.fs[s][offs[s]:])
			} else {
				copy(k.is[d][offs[d]:offs[d]+cnt], k.is[s][offs[s]:])
			}
			fr[slot] += cnt
			return
		}
		for p := int64(0); p < cnt; p++ {
			store(k)
			for _, ai := range accs {
				offs[ai] += slope[ai]
			}
			if readsIdx {
				fr[slot]++
			}
		}
	} else {
		for p := int64(0); p < cnt; p++ {
			for i, arm := range arms {
				st := &eqs[i]
				en.curEq = st.eq
				arm.store(&st.kctx)
				offs, slope := st.offs, st.slope
				for _, ai := range arm.accs {
					offs[ai] += slope[ai]
				}
			}
			if readsIdx {
				fr[slot]++
			}
		}
	}
	if !readsIdx {
		fr[slot] += cnt
	}
}

// --- reporting ---------------------------------------------------------------

// KernelSpec describes one equation's kernel-specialization outcome, in
// plan order; Runner.Explain renders it.
type KernelSpec struct {
	Eq          string // equation label
	Target      string // target symbol name(s)
	Specialized bool
	Reason      string // why the equation stayed generic ("" when specialized)
	// Guards is the number of span-affine guard comparisons a span of the
	// kernel splits on (0 when its body has no such guard).
	Guards int
	// PointWise is why the selected plan reaches the kernel one point at
	// a time, so its specialized form never runs ("" when a loop hands
	// it spans).
	PointWise string
	// CopyArms numbers (from 1, in guard order, the else last) the arms
	// that run as one copy per certified piece: a bare read of another
	// array, both moving one element per point along the single-equation
	// spans of the selected plan.
	CopyArms []int
	// Fused is the number of the kernel's direct closures that inline a
	// leaf operand — an array read, a literal or a hoisted scalar.
	Fused int
}

// Kernels reports the specialization outcome per equation of the named
// module's selected plan, and how that plan reaches it.
func (p *Program) Kernels(name string, opts plan.Options) []KernelSpec {
	m := p.Prog.Module(name)
	if m == nil {
		return nil
	}
	cm := p.mods[m]
	if cm == nil {
		return nil
	}
	cp := cm.variant(opts.Hyperplane)
	specs := make([]KernelSpec, len(cp.pl.Eqs))
	pointWise := cp.pl.PointWise()
	for i, eq := range cp.pl.Eqs {
		names := make([]string, len(eq.Targets))
		for j, t := range eq.Targets {
			names[j] = t.Sym.Name
		}
		sp := cp.specs[i]
		specs[i] = KernelSpec{
			Eq:          eq.Label,
			Target:      strings.Join(names, ", "),
			Specialized: sp.spec != nil,
			Reason:      sp.why,
			PointWise:   pointWise[i],
		}
		if sp.spec != nil {
			specs[i].Guards, specs[i].Fused = len(sp.spec.cmps), sp.spec.fused
		}
	}
	for _, spans := range cp.spans {
		for _, b := range spans {
			if b.sks == nil || len(b.kern) != 1 {
				continue
			}
			for a, arm := range b.sks[0].arms {
				if arm.src >= 0 && unitStride(b.accs[0][arm.dst]) && unitStride(b.accs[0][arm.src]) {
					specs[b.kern[0]].CopyArms = append(specs[b.kern[0]].CopyArms, a+1)
				}
			}
		}
	}
	return specs
}

// unitStride reports whether a span moves the access one element per
// point: along its last dimension only, with slope 1.
func unitStride(ac spanAccess) bool {
	last := len(ac.subs) - 1
	for _, sub := range ac.subs[:last] {
		if sub.slope != 0 {
			return false
		}
	}
	return ac.subs[last].slope == 1
}

// --- write-coverage analysis -------------------------------------------------

// writeCovered reports whether the module's equations provably define
// every element of sym before any could be read: the condition under
// which an arena-recycled backing may skip zeroing. The analysis is
// conservative — false means "must zero", never "may skip wrongly".
// Coverage holds when some equation writes the full index space of
// every dimension, or when the equations split exactly one dimension
// into constant slices tiling upward from the dimension's lower bound
// plus a ranged slice covering the rest (the boundary-plus-interior
// shape of relaxation recurrences).
func writeCovered(m *sem.Module, sym *sem.Symbol) bool {
	arr, isArr := sym.Type.(*types.Array)
	if !isArr {
		return true
	}
	nd := len(arr.Dims)
	type dimPiece struct {
		full    bool
		isConst bool
		constV  int64
		ranged  bool
		rangeLo int64
	}
	var rows [][]dimPiece
	for _, eq := range m.Eqs {
		for _, t := range eq.Targets {
			if t.Sym != sym {
				continue
			}
			if eq.WholeCall != nil || eq.MultiCall != nil || len(t.Subs) == 0 {
				// Whole-value assignment covers every element.
				return true
			}
			row := make([]dimPiece, nd)
			for d := 0; d < nd; d++ {
				if d >= len(t.Subs) {
					row[d] = dimPiece{full: true} // implicit: full dimension
					continue
				}
				dim := arr.Dims[d]
				af := m.AnalyzeAffine(t.Subs[d])
				if af == nil {
					continue // unknown piece
				}
				if af.IsConst() && !af.Symbolic {
					row[d] = dimPiece{isConst: true, constV: af.Const}
					continue
				}
				v, cst, ok := af.SingleVar()
				if !ok || cst != 0 {
					continue
				}
				switch {
				case v == dim,
					ast.ExprString(v.Lo) == ast.ExprString(dim.Lo) &&
						ast.ExprString(v.Hi) == ast.ExprString(dim.Hi):
					row[d] = dimPiece{full: true}
				case ast.ExprString(v.Hi) == ast.ExprString(dim.Hi):
					if lo, isLit := sem.EvalConstInt(v.Lo); isLit {
						row[d] = dimPiece{ranged: true, rangeLo: lo}
					}
				}
			}
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return false
	}
	for _, row := range rows {
		full := true
		for d := 0; d < nd; d++ {
			if !row[d].full {
				full = false
				break
			}
		}
		if full {
			return true
		}
	}
	// Single-dimension split: constant slices from the dimension's
	// literal lower bound, then a ranged slice through the upper bound.
	for d := 0; d < nd; d++ {
		dimLo, loLit := sem.EvalConstInt(arr.Dims[d].Lo)
		if !loLit {
			continue
		}
		var consts []int64
		haveRange := false
		rangeLo := int64(0)
		for _, row := range rows {
			fullElse := true
			for e := 0; e < nd; e++ {
				if e != d && !row[e].full {
					fullElse = false
					break
				}
			}
			if !fullElse {
				continue
			}
			switch p := row[d]; {
			case p.isConst:
				consts = append(consts, p.constV)
			case p.ranged:
				if !haveRange || p.rangeLo < rangeLo {
					haveRange, rangeLo = true, p.rangeLo
				}
			}
		}
		if !haveRange {
			continue
		}
		sort.Slice(consts, func(i, j int) bool { return consts[i] < consts[j] })
		next := dimLo
		for _, cv := range consts {
			if cv == next {
				next++
			}
		}
		if rangeLo >= dimLo && rangeLo <= next {
			return true
		}
	}
	return false
}
