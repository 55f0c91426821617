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
// does not move folds into the base offset; points the certification
// cannot cover (span edges, windowed axes in motion, strict mode) fall
// back to the checked kernel, so specialized and generic execution are
// bitwise identical.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sem"
	"repro/internal/types"
)

// spanFn executes n consecutive points of one equation. The span starts
// at the frame's current coordinates and advances fr[slots[j]] += dir[j]
// between points (a wavefront row moves every original coordinate by a
// T⁻¹ column; a DOALL row or a leaf DO moves its innermost dimension by
// one). The frame is restored to the span's first point before
// returning, so multi-equation bodies replay the same run per kernel.
// en.eqCount is incremented per executed point.
type spanFn func(en *env, fr []int64, slots []int, dir []int64, n int64)

// eqSpan pairs one equation's span executor with its specialization
// report (surfaced through Program.Kernels and Runner.Explain).
type eqSpan struct {
	fn          spanFn
	specialized bool
	// why is the reason the equation stayed generic ("" when specialized).
	why string
}

// runSpanGeneric walks a span point-by-point through the checked kernel:
// the fallback for strict mode, non-specializable equations, and the
// uncertified edges of specialized spans.
func runSpanGeneric(gen kernelFn, en *env, fr []int64, slots []int, dir []int64, n int64) {
	for c := int64(0); c < n; c++ {
		en.eqCount++
		gen(en, fr)
		for j, s := range slots {
			fr[s] += dir[j]
		}
	}
	for j, s := range slots {
		fr[s] -= n * dir[j]
	}
}

// genericSpanFn wraps a checked kernel as a span executor.
func genericSpanFn(gen kernelFn) spanFn {
	return func(en *env, fr []int64, slots []int, dir []int64, n int64) {
		runSpanGeneric(gen, en, fr, slots, dir, n)
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
// for one equation: the access table its array leaves index and the
// hoist tables its scalar leaves index. The expression lowering itself
// is the compiler's, shared with the checked mode.
type speccer struct {
	// c is the checked-mode compiler, used for subscript base evaluators.
	c          *compiler
	accs       []*specAccess
	byKey      map[string]int
	sf, sn, sb hoistTab
}

func (s *speccer) bail(format string, args ...any) {
	panic(specAbort{reason: fmt.Sprintf(format, args...)})
}

// access registers an array reference (explicit subscripts plus the
// frame slots of implicit trailing dimensions) and returns its index in
// the access tables. Identical references share one table slot, which is
// safe even across the write target: offsets are positions, not values.
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
	if ai, ok := s.byKey[key]; ok {
		return ai
	}
	ac := &specAccess{si: s.c.cm.symIdx[sym], isF: isF}
	for _, e := range explicit {
		ac.subs = append(ac.subs, s.subscript(e))
	}
	for _, slot := range implicit {
		ac.subs = append(ac.subs, specSub{base: frameSlot(slot), dimVar: slot})
	}
	ai := len(s.accs)
	s.accs = append(s.accs, ac)
	s.byKey[key] = ai
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

// --- building the specialized span -------------------------------------------

// spanState is the pooled working set of one specialized span: the
// context its direct closures evaluate on and each access's per-point
// offset increment.
type spanState struct {
	kctx
	slope []int64
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
	// Lower the right-hand side once more with the same compiler in
	// direct mode. The write target is access 0 unless a read
	// deduplicates onto it; either way ti addresses the stored element.
	s := &speccer{c: c, byKey: make(map[string]int)}
	dc := *c
	dc.direct = s
	ti := s.access(target.Sym, target.Subs, c.targetSlots(target))
	var store func(k *kctx)
	if s.accs[ti].isF {
		rhs := dc.compileF(eq.RHS)
		store = func(k *kctx) { k.fs[ti][k.offs[ti]] = rhs(k) }
	} else {
		rhs := dc.compileI(eq.RHS)
		store = func(k *kctx) { k.is[ti][k.offs[ti]] = rhs(k) }
	}

	accs := s.accs
	sfSlots, snSlots, sbSlots := s.sf, s.sn, s.sb
	nacc := len(accs)
	pool := &sync.Pool{New: func() any {
		return &spanState{
			kctx: kctx{
				offs: make([]int64, nacc),
				fs:   make([][]float64, nacc),
				is:   make([][]int64, nacc),
				sf:   make([]float64, len(sfSlots)),
				sn:   make([]int64, len(snSlots)),
				sb:   make([]bool, len(sbSlots)),
			},
			slope: make([]int64, nacc),
		}
	}}

	sp.specialized = true
	eqIdx := int64(eq.Index)
	sp.fn = func(en *env, fr []int64, slots []int, dir []int64, n int64) {
		if n <= 0 {
			return
		}
		if en.strict || en.noSpec {
			runSpanGeneric(gen, en, fr, slots, dir, n)
			return
		}
		st := pool.Get().(*spanState)
		k := &st.kctx
		k.en, k.fr = en, fr
		// Certify the span: resolve each access's backing, entry offset
		// and per-point slope, and intersect the sub-interval [cLo,cHi]
		// of points where every access is provably in bounds. Offsets
		// are meaningful inside the certified interval only.
		cLo, cHi := int64(0), n-1
		ok := true
	setup:
		for ai, ac := range accs {
			a := en.arrays[ac.si]
			if ac.isF {
				k.fs[ai] = a.F
			} else {
				k.is[ai] = a.I
			}
			var off, slope int64
			for d, sb := range ac.subs {
				x0 := sb.base(k)
				ax := a.Axes[d]
				var sl int64
				if sb.dimVar >= 0 {
					for j, sv := range slots {
						if sv == sb.dimVar {
							sl = dir[j]
							break
						}
					}
				}
				if sl == 0 {
					// Stationary dimension: one range check covers the
					// span; window wrap folds into the base offset.
					if x0 < ax.Lo || x0 > ax.Hi {
						ok = false
						break setup
					}
					p := x0 - ax.Lo
					if ph := a.PhysDims[d]; p >= ph {
						p %= ph
					}
					off += p * a.Strides[d]
					continue
				}
				if ph := a.PhysDims[d]; ph < ax.Hi-ax.Lo+1 {
					// A windowed axis in motion makes offsets non-affine
					// (mod wrap mid-span); keep the checked kernel.
					ok = false
					break setup
				}
				if sl > 0 {
					if q := ceilDiv(ax.Lo-x0, sl); q > cLo {
						cLo = q
					}
					if q := floorDiv(ax.Hi-x0, sl); q < cHi {
						cHi = q
					}
				} else {
					if q := ceilDiv(x0-ax.Hi, -sl); q > cLo {
						cLo = q
					}
					if q := floorDiv(x0-ax.Lo, -sl); q < cHi {
						cHi = q
					}
				}
				off += (x0 - ax.Lo) * a.Strides[d]
				slope += sl * a.Strides[d]
			}
			k.offs[ai], st.slope[ai] = off, slope
		}
		if !ok || cLo > cHi {
			cLo, cHi = n, n-1 // nothing certified: all points generic
		}
		if cLo < 0 {
			cLo = 0
		}
		if cHi > n-1 {
			cHi = n - 1
		}
		for i, si := range sfSlots {
			k.sf[i] = en.scalars[si].(float64)
		}
		for i, si := range snSlots {
			k.sn[i] = en.scalars[si].(int64)
		}
		for i, si := range sbSlots {
			k.sb[i] = en.scalars[si].(bool)
		}
		// Generic prefix: points before the certified interval.
		if cLo > 0 && en.ring != nil {
			// One instant per fallback segment, not per point: the span's
			// leading points ran the checked kernel instead of the
			// specialized stores.
			en.ring.Emit(obs.KSpecFallback, en.ring.Now(), 0, eqIdx, cLo)
		}
		for p := int64(0); p < cLo; p++ {
			en.eqCount++
			gen(en, fr)
			for j, sv := range slots {
				fr[sv] += dir[j]
			}
		}
		// Certified run: branch-free stores with incremental offsets.
		if cLo <= cHi {
			for ai := range accs {
				k.offs[ai] += st.slope[ai] * cLo
			}
			cnt := cHi - cLo + 1
			en.eqCount += cnt
			en.specCount += cnt
			for p := int64(0); p < cnt; p++ {
				store(k)
				for ai := range accs {
					k.offs[ai] += st.slope[ai]
				}
				for j, sv := range slots {
					fr[sv] += dir[j]
				}
			}
		}
		// Generic suffix: points past the certified interval.
		if cHi+1 < n && en.ring != nil {
			en.ring.Emit(obs.KSpecFallback, en.ring.Now(), 0, eqIdx, n-cHi-1)
		}
		for p := cHi + 1; p < n; p++ {
			en.eqCount++
			gen(en, fr)
			for j, sv := range slots {
				fr[sv] += dir[j]
			}
		}
		for j, sv := range slots {
			fr[sv] -= n * dir[j]
		}
		k.en, k.fr = nil, nil
		pool.Put(st)
	}
	return sp
}

// --- reporting ---------------------------------------------------------------

// KernelSpec describes one equation's kernel-specialization outcome, in
// plan order; Runner.Explain renders it.
type KernelSpec struct {
	Eq          string // equation label
	Target      string // target symbol name(s)
	Specialized bool
	Reason      string // why the equation stayed generic ("" when specialized)
	// PointWise is why the selected plan reaches the kernel one point at
	// a time, so its specialized form never runs ("" when a loop hands
	// it spans).
	PointWise string
}

// Kernels reports the specialization outcome per equation of the named
// module's selected plan variant, and how that plan reaches it.
func (p *Program) Kernels(name string, opts plan.Options) []KernelSpec {
	m := p.Prog.Module(name)
	if m == nil {
		return nil
	}
	cm := p.mods[m]
	if cm == nil {
		return nil
	}
	cp := cm.variant(opts.Fuse, planMode(opts))
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
