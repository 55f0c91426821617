package interp

// Kernel specialization (the perf core of the §3–§4 reproduction): when
// an equation body is a recognized shape — unit-stride affine reads of
// flat float64/int64 arrays combined with +,−,×,÷, literals, loop
// indices and builtins — the compiler runs a second time in its direct
// addressing mode (compile.go: same expression lowering, different
// leaves) and emits a *direct kernel* alongside the checked closure
// tree: a closure over raw backing slices whose
// operand offsets are maintained incrementally along a run of
// consecutive points (strength reduction), with array bounds certified
// once per run so the per-point path is branch-free. Executors hand
// kernels contiguous spans instead of single points — DOALL rows,
// wavefront rows, and the leaf DO of a sequential recurrence nest, whose
// reads carried along the span see program order because each point's
// store lands before the next point's reads. A windowed axis the span
// does not move folds into the base offset.
//
// Index-set splitting: a body `if g1 then a1 elsif … else aN` whose
// every guard is span-affine — true/false, not, and, or over
// comparisons of two affine integer expressions in the loop indices and
// span-invariant scalars — compiles one direct store per arm. Along a
// span each comparison's difference is d0 + s·p, so its truth changes
// at ≤ 2 points: the span is cut there, each piece runs the one arm its
// guard selects, and each arm is certified against its own accesses
// only (a stencil's boundary rows read the carried value, never the
// out-of-range neighbours). Any other body is the one-arm, zero-cut
// case of the same loop. Points an arm's certificate cannot cover
// (windowed axes in motion, out-of-range reads, a guard whose sides
// could leave int64) and strict mode run the checked kernel, so
// specialized and generic execution are bitwise identical.

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

// spanFn executes n consecutive points of one equation. The span starts
// at the frame's current coordinates and advances fr[slot] by one
// between points: every executor hands it a row along its innermost
// dimension (a DOALL row, a leaf DO, a row of a wavefront tile). The
// frame is restored to the span's first point before returning, so
// multi-equation bodies replay the same run per kernel. en.eqCount is
// incremented per executed point.
type spanFn func(en *env, fr []int64, slot int, n int64)

// eqSpan pairs one equation's span executor with its specialization
// report (surfaced through Program.Kernels and Runner.Explain).
type eqSpan struct {
	fn          spanFn
	specialized bool
	// guards is the number of guard comparisons a span splits on.
	guards int
	// why is the reason the equation stayed generic ("" when specialized).
	why string
}

// runSpanGeneric walks a span point-by-point through the checked kernel:
// the path for strict mode and non-specializable equations.
func runSpanGeneric(gen kernelFn, en *env, fr []int64, slot int, n int64) {
	stepGeneric(gen, en, fr, slot, n)
	fr[slot] -= n
}

// stepGeneric runs n points through the checked kernel from the frame's
// current point and leaves the frame just past the last one.
func stepGeneric(gen kernelFn, en *env, fr []int64, slot int, n int64) {
	for c := int64(0); c < n; c++ {
		en.eqCount++
		gen(en, fr)
		fr[slot]++
	}
}

// genericSpanFn wraps a checked kernel as a span executor.
func genericSpanFn(gen kernelFn) spanFn {
	return func(en *env, fr []int64, slot int, n int64) {
		runSpanGeneric(gen, en, fr, slot, n)
	}
}

// specAbort is the bail panic of the compiler's direct mode: the
// equation shape is outside the recognized fragment, so the checked
// closure tree remains the only kernel.
type specAbort struct{ reason string }

// specSub is one dimension of a specialized array access.
type specSub struct {
	// base evaluates the subscript at the span's first point (compiled in
	// checked mode, run once per span).
	base evalI
	// dimVar is the frame slot of the subscript's unit-coefficient
	// index variable, or -1 for a constant subscript. Eligibility
	// guarantees the subscript is dimVar + c, so its per-point motion
	// along a span is exactly the slot's direction.
	dimVar int
}

// specAccess is one distinct array reference of a specialized equation.
type specAccess struct {
	si   int // symbol slot
	isF  bool
	subs []specSub
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
			ac.subs = append(ac.subs, specSub{base: frameSlot(slot), dimVar: slot})
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

// subscript classifies one explicit subscript: constant (possibly
// symbolic in module scalars) or index variable + literal constant with
// coefficient exactly 1. Anything else — negated or scaled variables
// (reflect's N+1-J), multi-variable sums — bails, keeping the checked
// kernel.
func (s *speccer) subscript(e ast.Expr) specSub {
	af := s.c.m.AnalyzeAffine(e)
	if af == nil {
		s.bail("non-affine subscript %s", ast.ExprString(e))
	}
	nz := 0
	var v *types.Subrange
	var coef int64
	for vv, cc := range af.Coeffs {
		if cc != 0 {
			nz++
			v, coef = vv, cc
		}
	}
	sub := specSub{base: s.c.compileI(e), dimVar: -1}
	switch {
	case nz == 0:
		// constant subscript; base evaluates it (symbolic terms included).
	case nz == 1 && coef == 1:
		slot, ok := s.c.cm.slotOf[v]
		if !ok {
			s.bail("no frame slot for subscript variable in %s", ast.ExprString(e))
		}
		sub.dimVar = slot
	default:
		s.bail("subscript %s is not unit-stride", ast.ExprString(e))
	}
	return sub
}

// --- span-affine guards --------------------------------------------------------

// guardFn is a guard lowered over its comparisons: d[i] is lhs − rhs of
// comparison i at the point being classified.
type guardFn func(d []int64) bool

// slotCoef is one index term coef × fr[slot] of an affine guard side.
type slotCoef struct {
	slot int
	coef int64
}

// guardCmp is one comparison of a span-affine guard. Each side is its
// index terms plus span-invariant ones, so along a span it moves by
// the Σ coef of the span's slot per point.
type guardCmp struct {
	lhs, rhs evalI // checked mode, evaluated once per span
	lt, rt   []slotCoef
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
		lt, lok := s.affineSide(x.X)
		rt, rok := s.affineSide(x.Y)
		if !isRel || !lok || !rok {
			return nil, false
		}
		i := len(s.cmps)
		s.cmps = append(s.cmps, guardCmp{lhs: s.c.compileI(x.X), rhs: s.c.compileI(x.Y), lt: lt, rt: rt})
		return func(d []int64) bool { return truth[cmp.Compare(d[i], 0)+1] }, true
	}
	return nil, false
}

// affineSide decomposes one comparison operand into its index terms, or
// reports false when it is not affine in indices that have frame slots.
func (s *speccer) affineSide(e ast.Expr) ([]slotCoef, bool) {
	af := s.c.m.AnalyzeAffine(e)
	if af == nil {
		return nil, false
	}
	var terms []slotCoef
	for v, coef := range af.Coeffs {
		slot, ok := s.c.cm.slotOf[v]
		if !ok {
			return nil, false
		}
		if coef != 0 {
			terms = append(terms, slotCoef{slot, coef})
		}
	}
	// A fixed order makes the per-span overflow checks deterministic.
	slices.SortFunc(terms, func(a, b slotCoef) int { return a.slot - b.slot })
	return terms, true
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
// the only reason to keep the frame current point by point.
type specArm struct {
	store    func(k *kctx)
	accs     []int
	readsIdx bool
}

// specKernel is one equation's specialized span executor.
type specKernel struct {
	gen kernelFn
	eq  int64 // equation index, for KSpecFallback
	// arms[i] runs where guards[i] is the first guard to hold; the last
	// arm is the else (the whole body when nothing splits).
	arms       []specArm
	guards     []guardFn
	cmps       []guardCmp
	accs       []*specAccess
	sf, sn, sb hoistTab
	pool       sync.Pool
}

// spanState is the pooled working set of one specialized span: the
// context its direct closures evaluate on, the span's motion, each
// access's entry offset, per-point slope and certified interval [lo, hi]
// of span points, and each guard comparison's difference d0 + ds·p with
// the cuts they make.
type spanState struct {
	kctx
	slot                int
	base, slope, lo, hi []int64
	d0, ds, d           []int64
	cuts                []int64
}

// specializeEquation compiles eq's span executor: the specialized
// direct kernel when the body fits the recognized fragment, the checked
// kernel gen otherwise. The caller must have c.eq set.
func (c *compiler) specializeEquation(eq *sem.Equation, gen kernelFn) (sp eqSpan) {
	sp = eqSpan{fn: genericSpanFn(gen)}
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case specAbort:
				sp = eqSpan{fn: genericSpanFn(gen), why: e.reason}
			case compileError:
				sp = eqSpan{fn: genericSpanFn(gen), why: e.err.Error()}
			default:
				panic(r)
			}
		}
	}()
	if eq.MultiCall != nil || eq.WholeCall != nil {
		sp.why = "module call"
		return sp
	}
	target := eq.Targets[0]
	if target.Rank() == 0 {
		sp.why = "scalar target"
		return sp
	}
	// Lower each arm of the right-hand side once more with the same
	// compiler in direct mode. The write target is access 0 unless a read
	// deduplicates onto it; either way ti addresses the stored element.
	s := &speccer{c: c, byKey: make(map[string]int)}
	dc := *c
	dc.direct = s
	ti := s.access(target.Sym, target.Subs, c.targetSlots(target))
	exprs, guards := s.bodyArms(eq.RHS)
	sk := &specKernel{gen: gen, eq: int64(eq.Index), guards: guards, arms: make([]specArm, len(exprs))}
	for i, e := range exprs {
		s.arm, s.readsIdx = []int{ti}, false
		if s.accs[ti].isF {
			rhs := dc.compileF(e)
			sk.arms[i].store = func(k *kctx) { k.fs[ti][k.offs[ti]] = rhs(k) }
		} else {
			rhs := dc.compileI(e)
			sk.arms[i].store = func(k *kctx) { k.is[ti][k.offs[ti]] = rhs(k) }
		}
		sk.arms[i].accs, sk.arms[i].readsIdx = s.arm, s.readsIdx
	}
	sk.cmps, sk.accs = s.cmps, s.accs
	sk.sf, sk.sn, sk.sb = s.sf, s.sn, s.sb
	nacc, ncmp := len(sk.accs), len(sk.cmps)
	sk.pool.New = func() any {
		return &spanState{
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
			d0:    make([]int64, ncmp),
			ds:    make([]int64, ncmp),
			d:     make([]int64, ncmp),
			cuts:  make([]int64, 0, 2*ncmp+2),
		}
	}
	return eqSpan{fn: sk.span, specialized: true, guards: ncmp}
}

// span is the specialized spanFn: certify every access once, cut the
// span where a guard comparison can change truth, and run each piece
// with the one arm its guard selects.
func (sk *specKernel) span(en *env, fr []int64, slot int, n int64) {
	if n <= 0 {
		return
	}
	if en.strict || en.noSpec {
		runSpanGeneric(sk.gen, en, fr, slot, n)
		return
	}
	st := sk.pool.Get().(*spanState)
	k := &st.kctx
	k.en, k.fr, st.slot = en, fr, slot
	st.certify(sk.accs, n)
	for i, si := range sk.sf {
		k.sf[i] = en.scalars[si].(float64)
	}
	for i, si := range sk.sn {
		k.sn[i] = en.scalars[si].(int64)
	}
	for i, si := range sk.sb {
		k.sb[i] = en.scalars[si].(bool)
	}
	if cuts, ok := st.split(sk.cmps, n); !ok {
		sk.fallback(st, n)
	} else {
		// The frame sits at start; consecutive pieces the guards send to
		// the same arm run as one.
		start, arm := int64(0), st.pick(sk.guards, 0)
		for _, c := range cuts[1:] {
			next := -1
			if c < n {
				next = st.pick(sk.guards, c)
			}
			if next != arm {
				sk.piece(st, &sk.arms[arm], start, c)
				start, arm = c, next
			}
		}
	}
	fr[slot] -= n
	k.en, k.fr = nil, nil
	sk.pool.Put(st)
}

// certify resolves each access's backing, its flat offset at the span's
// first point, its per-point slope, and the interval [lo, hi] of span
// points where it is provably in bounds — empty when a stationary
// subscript is out of range or a windowed axis moves (mod wrap mid-span
// makes offsets non-affine). Offsets are meaningful inside the interval
// only.
func (st *spanState) certify(accs []*specAccess, n int64) {
	k := &st.kctx
	for ai, ac := range accs {
		a := k.en.arrays[ac.si]
		if ac.isF {
			k.fs[ai] = a.F
		} else {
			k.is[ai] = a.I
		}
		lo, hi := int64(0), n-1
		var off, slope int64
		for d, sb := range ac.subs {
			x0 := sb.base(k)
			ax := a.Axes[d]
			if sb.dimVar != st.slot {
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
			lo, hi = max(lo, ax.Lo-x0), min(hi, ax.Hi-x0)
			off += (x0 - ax.Lo) * a.Strides[d]
			slope += a.Strides[d]
		}
		st.lo[ai], st.hi[ai], st.base[ai], st.slope[ai] = lo, hi, off, slope
	}
}

// split evaluates every guard comparison at the span's first point and
// returns the sorted cuts: 0, n, and each point of (0, n) where a
// comparison's difference d(p) = d0 + s·p can change sign — ⌈−d0/s⌉
// and ⌊−d0/s⌋+1. It reports false when a side could leave int64 along
// the span: the checked kernel's wrapping arithmetic is linear in p only
// while both sides stay in range at both ends.
func (st *spanState) split(cmps []guardCmp, n int64) ([]int64, bool) {
	cuts := append(st.cuts[:0], 0, n)
	var o ovf
	for i := range cmps {
		gc := &cmps[i]
		l0, lEnd, ls := st.line(&o, gc.lhs, gc.lt, n)
		r0, rEnd, rs := st.line(&o, gc.rhs, gc.rt, n)
		d0, s := o.sub(l0, r0), o.sub(ls, rs)
		o.sub(lEnd, rEnd)
		st.d0[i], st.ds[i] = d0, s
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
		return nil, false
	}
	slices.Sort(cuts)
	st.cuts = slices.Compact(cuts)
	return st.cuts, true
}

// line evaluates one guard side at the span's first point and at its
// last, with its slope per point, recording any overflow in o.
func (st *spanState) line(o *ovf, side evalI, terms []slotCoef, n int64) (v0, vEnd, slope int64) {
	for _, t := range terms {
		if t.slot == st.slot {
			slope = o.add(slope, t.coef)
		}
	}
	v0 = side(&st.kctx)
	return v0, o.add(v0, o.mul(slope, n-1)), slope
}

// pick returns the arm the guards select at span point p. split checked
// both ends of every difference, so d0 + ds·p is exact in wrapping
// arithmetic.
func (st *spanState) pick(guards []guardFn, p int64) int {
	for i := range st.d {
		st.d[i] = st.d0[i] + st.ds[i]*p
	}
	for i, g := range guards {
		if g(st.d) {
			return i
		}
	}
	return len(guards)
}

// piece runs span points [a, b) — the frame at a — with one arm: the
// points inside the arm's certificate on its direct store, the rest
// through the checked kernel. It leaves the frame at b.
func (sk *specKernel) piece(st *spanState, arm *specArm, a, b int64) {
	lo, hi := a, b-1
	for _, ai := range arm.accs {
		lo, hi = max(lo, st.lo[ai]), min(hi, st.hi[ai])
	}
	if lo > hi {
		lo, hi = b, b-1
	}
	sk.fallback(st, lo-a)
	if cnt := hi - lo + 1; cnt > 0 {
		st.run(arm, lo, cnt)
	}
	sk.fallback(st, b-1-hi)
}

// fallback runs cnt points through the checked kernel, recorded as one
// KSpecFallback instant per segment rather than per point.
func (sk *specKernel) fallback(st *spanState, cnt int64) {
	if cnt <= 0 {
		return
	}
	en := st.en
	if en.ring != nil {
		en.ring.Emit(obs.KSpecFallback, en.ring.Now(), 0, sk.eq, cnt)
	}
	stepGeneric(sk.gen, en, st.fr, st.slot, cnt)
}

// run stores cnt certified points from span point x on the arm's
// direct store — branch-free, advancing only the arm's offsets — and
// leaves the frame just past them.
func (st *spanState) run(arm *specArm, x, cnt int64) {
	k := &st.kctx
	offs, slope, accs, store := k.offs, st.slope, arm.accs, arm.store
	for _, ai := range accs {
		offs[ai] = st.base[ai] + slope[ai]*x
	}
	k.en.eqCount += cnt
	k.en.specCount += cnt
	fr, slot := k.fr, st.slot
	if !arm.readsIdx {
		for p := int64(0); p < cnt; p++ {
			store(k)
			for _, ai := range accs {
				offs[ai] += slope[ai]
			}
		}
		fr[slot] += cnt
		return
	}
	for p := int64(0); p < cnt; p++ {
		store(k)
		for _, ai := range accs {
			offs[ai] += slope[ai]
		}
		fr[slot]++
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
		specs[i] = KernelSpec{
			Eq:          eq.Label,
			Target:      strings.Join(names, ", "),
			Specialized: cp.spans[i].specialized,
			Reason:      cp.spans[i].why,
			Guards:      cp.spans[i].guards,
			PointWise:   pointWise[i],
		}
	}
	return specs
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
