package interp

import (
	"cmp"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sem"
	"repro/internal/types"
	"repro/internal/value"
)

// Typed evaluation functions: the compiler dispatches on the checked
// static type so the hot paths (real and integer arithmetic) never box.
// Checked and direct kernels share this one closure shape; the single
// context pointer is the cheapest signature for both (one register to
// pass and to spill around each child call — BenchmarkKernelDispatch).
type (
	evalF = func(k *kctx) float64
	evalI = func(k *kctx) int64
	evalB = func(k *kctx) bool
	evalA = func(k *kctx) any
)

// kctx is the evaluation context every compiled closure receives.
// Checked leaves read only en and fr, so a checked closure runs on any
// context. Direct leaves read the span tables below, which only a
// specialized span fills (specializeEquation): raw backing slices and
// the current certified flat offset per access, plus the scalars hoisted
// at span entry — the per-point path is slice reads and arithmetic only.
type kctx struct {
	en   *env
	fr   []int64
	offs []int64     // current flat offset per access
	fs   [][]float64 // float64 backing per access (nil for int-backed)
	is   [][]int64   // int64 backing per access
	sf   []float64   // hoisted real scalars
	sn   []int64     // hoisted integer scalars
	sb   []bool      // hoisted bool scalars
}

// checked returns the env's checked-mode evaluation context at frame fr.
// The context lives in the env so that the per-point kernel call
// allocates nothing; every env copy (worker state) carries its own and
// it is re-pointed on each call, so copies never share one.
func (en *env) checked(fr []int64) *kctx {
	k := &en.ck
	k.en, k.fr = en, fr
	return k
}

// kernelFn executes one equation at the current index frame.
type kernelFn func(en *env, fr []int64)

// compiledModule is one module ready to run: equation kernels compiled
// once, the six lowered [fuse][mode] plan variants, slot-resolved bound
// thunks, and precomputed allocation descriptors.
type compiledModule struct {
	m     *sem.Module
	sched *core.Schedule
	// plans holds the lowered variants indexed [fuse][mode], where mode
	// is 0 = hyperplane off, 1 = the auto cascade, 2 = the
	// pipeline-first cascade (WithSchedule(SchedulePipeline)). Options
	// select one at activation time; all are lowered once here, not per
	// run. Variants that lower identically — a module with no
	// cascade-eligible nest has equal base and auto plans — share one
	// compiledPlan.
	plans [2][3]*compiledPlan
	// slotOf assigns every subrange type a frame slot for its index
	// value — the plan's Bounds order, shared by every variant. It is
	// consulted at compile time only; execution reads slots baked into
	// plan steps and closures.
	slotOf map[*types.Subrange]int
	nSlots int
	// bounds holds compiled lo/hi thunks per frame slot, evaluated once
	// per activation into env.bounds.
	bounds [][2]evalI
	// symIdx numbers all data symbols for the env value table.
	symIdx map[*sem.Symbol]int
	syms   []*sem.Symbol
	// ws pools per-worker execution state reused across DOALL chunks.
	ws sync.Pool
}

// variant selects the compiled plan for one (fuse, mode) pair.
func (cm *compiledModule) variant(fuse bool, mode int) *compiledPlan {
	fi := 0
	if fuse {
		fi = 1
	}
	return cm.plans[fi][mode]
}

// planMode maps plan options onto the variant mode index: 0 =
// hyperplane off, 1 = the auto cascade, 2 = the pipeline-first cascade.
func planMode(o plan.Options) int {
	switch {
	case !o.Hyperplane:
		return 0
	case o.PipelineFirst:
		return 2
	}
	return 1
}

// compiledPlan pairs one lowered plan variant with its kernel table
// (aligned index-for-index with pl.Eqs) and the allocation descriptors
// resolved against the variant's own virtual-dimension report — the
// auto-hyperplane variants drop windows on transformed subranges.
type compiledPlan struct {
	pl      *plan.Program
	kernels []kernelFn
	// spans holds each equation's span executor (specialized direct
	// kernel or generic wrapper), aligned index-for-index with pl.Eqs.
	spans []eqSpan
	// allocs describes the result and local arrays allocated per
	// activation, with §3.4 windows resolved at compile time.
	allocs []allocInfo
}

// allocInfo describes one array allocated at activation entry.
type allocInfo struct {
	si   int
	elem types.Kind
	dims []allocDim
	// zero means a recycled arena backing must be cleared: the write-
	// coverage analysis could not prove every element is defined before
	// being read. Fresh allocations are zero either way.
	zero bool
	// local marks module locals, whose backing returns to the arena when
	// the activation completes (results outlive it).
	local bool
}

// allocDim is one dimension of an allocated array: the frame slot whose
// bounds size it and the window (0 = physical allocation).
type allocDim struct {
	slot   int
	window int
}

// compiler compiles one module's equations: the only code that turns a
// PS expression into a Go closure.
type compiler struct {
	p  *Program
	cm *compiledModule
	m  *sem.Module
	eq *sem.Equation
	// direct, when non-nil, selects the direct addressing mode: array and
	// scalar leaves register with its access and hoist tables instead of
	// reading the env, and anything outside the specializable fragment
	// bails. nil is the checked mode.
	direct *speccer
}

type compileError struct{ err error }

// failf aborts compilation. In direct mode that only abandons the
// specialization attempt: the checked kernel remains the equation's
// kernel and the message becomes its reported reason.
func (c *compiler) failf(format string, args ...any) {
	if c.direct != nil {
		c.direct.bail(format, args...)
	}
	panic(compileError{fmt.Errorf("interp: "+format, args...)})
}

// unsupported rejects an expression the current mode cannot lower.
func (c *compiler) unsupported(what string, e ast.Expr) {
	verb := "compile"
	if c.direct != nil {
		verb = "specialize"
	}
	c.failf("cannot %s %s %s", verb, what, ast.ExprString(e))
}

func (p *Program) compileModule(m *sem.Module, sched *core.Schedule) (cm *compiledModule, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(compileError); ok {
				err = ce.err
				return
			}
			panic(r)
		}
	}()
	// Lower the schedule once into every plan variant; everything below
	// compiles against the plan's slot assignment, which all variants
	// share (Bounds come from the module's subrange table).
	basePl := plan.Lower(m, sched, plan.Options{})
	fusedPl := plan.Lower(m, sched, plan.Options{Fuse: true})
	hyperPl := plan.Lower(m, sched, plan.Options{Hyperplane: true})
	hyperFusedPl := plan.Lower(m, sched, plan.Options{Fuse: true, Hyperplane: true})
	pipePl := plan.Lower(m, sched, plan.Options{Hyperplane: true, PipelineFirst: true})
	pipeFusedPl := plan.Lower(m, sched, plan.Options{Fuse: true, Hyperplane: true, PipelineFirst: true})
	cm = &compiledModule{
		m:      m,
		sched:  sched,
		slotOf: make(map[*types.Subrange]int, len(basePl.Bounds)),
		symIdx: make(map[*sem.Symbol]int),
	}
	p.mods[m] = cm // registered before equation compilation so calls resolve
	c := &compiler{p: p, cm: cm, m: m}
	// Symbol slots must exist before bound expressions compile: bounds
	// like M+1 read scalar parameters through the slot table.
	for _, sym := range m.DataSymbols() {
		cm.symIdx[sym] = len(cm.syms)
		cm.syms = append(cm.syms, sym)
	}
	cm.nSlots = basePl.NSlots()
	cm.bounds = make([][2]evalI, cm.nSlots)
	for i, b := range basePl.Bounds {
		cm.slotOf[b.Subrange] = i
		cm.bounds[i] = [2]evalI{c.compileI(b.Lo), c.compileI(b.Hi)}
	}
	// Equation kernels compile once and are shared by every variant; the
	// specializer runs right after each checked kernel, falling back to
	// it for shapes outside the recognized fragment.
	kernels := make(map[*sem.Equation]kernelFn, len(m.Eqs))
	specs := make(map[*sem.Equation]eqSpan, len(m.Eqs))
	for _, eq := range m.Eqs {
		c.eq = eq
		kernels[eq] = c.compileEquation(eq)
		specs[eq] = c.specializeEquation(eq, kernels[eq])
		c.eq = nil
	}
	cm.plans[0][0] = cm.bindPlan(basePl, kernels, specs)
	cm.plans[1][0] = cm.bindPlan(fusedPl, kernels, specs)
	// A module where no cascade backend fires lowers identically with
	// the cascade on; share the untransformed compiledPlan then. The
	// pipeline-first mode likewise shares the auto plan unless flipping
	// the cascade order actually changed the lowering.
	if hyperPl.HasWavefront() || hyperPl.HasPipeline() {
		cm.plans[0][1] = cm.bindPlan(hyperPl, kernels, specs)
	} else {
		cm.plans[0][1] = cm.plans[0][0]
	}
	if hyperFusedPl.HasWavefront() || hyperFusedPl.HasPipeline() {
		cm.plans[1][1] = cm.bindPlan(hyperFusedPl, kernels, specs)
	} else {
		cm.plans[1][1] = cm.plans[1][0]
	}
	if pipePl.String() == hyperPl.String() {
		cm.plans[0][2] = cm.plans[0][1]
	} else {
		cm.plans[0][2] = cm.bindPlan(pipePl, kernels, specs)
	}
	if pipeFusedPl.String() == hyperFusedPl.String() {
		cm.plans[1][2] = cm.plans[1][1]
	} else {
		cm.plans[1][2] = cm.bindPlan(pipeFusedPl, kernels, specs)
	}
	return cm, nil
}

// bindPlan aligns the shared kernel table with one plan variant's
// equation order and resolves the variant's allocation descriptors
// (windows come from the variant's own virtual report).
func (cm *compiledModule) bindPlan(pl *plan.Program, kernels map[*sem.Equation]kernelFn, specs map[*sem.Equation]eqSpan) *compiledPlan {
	cp := &compiledPlan{
		pl:      pl,
		kernels: make([]kernelFn, len(pl.Eqs)),
		spans:   make([]eqSpan, len(pl.Eqs)),
	}
	for i, eq := range pl.Eqs {
		cp.kernels[i] = kernels[eq]
		cp.spans[i] = specs[eq]
	}
	m := cm.m
	win := pl.Windows()
	for _, sym := range append(append([]*sem.Symbol{}, m.Results...), m.Locals...) {
		arr, isArr := sym.Type.(*types.Array)
		if !isArr {
			continue
		}
		al := allocInfo{
			si:    cm.symIdx[sym],
			elem:  arr.Elem.Kind(),
			zero:  !writeCovered(m, sym),
			local: sym.Kind == sem.LocalSym,
		}
		for d, sr := range arr.Dims {
			al.dims = append(al.dims, allocDim{slot: cm.slotOf[sr], window: win[sym][d]})
		}
		cp.allocs = append(cp.allocs, al)
	}
	return cp
}

// --- equation compilation ---------------------------------------------------

func (c *compiler) compileEquation(eq *sem.Equation) kernelFn {
	if eq.MultiCall != nil || eq.WholeCall != nil {
		return c.compileCallEquation(eq)
	}
	store := c.compileStore(eq)
	return func(en *env, fr []int64) { store(en.checked(fr)) }
}

// compileStore compiles eq's right-hand side and the checked store of
// its value into the target. The value is computed first, then the
// element is located (subscripts range-checked), then written.
func (c *compiler) compileStore(eq *sem.Equation) func(k *kctx) {
	target := eq.Targets[0]
	sym := target.Sym
	if target.Rank() == 0 {
		si := c.cm.symIdx[sym]
		rhs := c.compileAs(eq.RHS, sym.Type)
		return func(k *kctx) { k.en.scalars[si] = rhs(k) }
	}
	r := c.checkedRef(sym, target.Subs, c.targetSlots(target))
	switch elem := sym.Type.(*types.Array).Elem; {
	case elem.Kind() == types.RealKind:
		rhs := c.compileF(eq.RHS)
		return func(k *kctx) {
			v := rhs(k)
			if k.en.strict {
				var buf [maxRank]int64
				a, idx := r.index(k, &buf)
				a.SetF(idx, v)
				return
			}
			a, off := r.offset(k)
			a.F[off] = v
		}
	case intBacked(elem):
		rhs := c.compileI(eq.RHS)
		return func(k *kctx) {
			v := rhs(k)
			if k.en.strict {
				var buf [maxRank]int64
				a, idx := r.index(k, &buf)
				a.SetI(idx, v)
				return
			}
			a, off := r.offset(k)
			a.I[off] = v
		}
	case elem.Kind() == types.BoolKind:
		rhs := c.compileB(eq.RHS)
		return func(k *kctx) {
			v := rhs(k)
			if k.en.strict {
				var buf [maxRank]int64
				a, idx := r.index(k, &buf)
				a.SetB(idx, v)
				return
			}
			a, off := r.offset(k)
			a.B[off] = v
		}
	}
	rhs := c.compileA(eq.RHS)
	return func(k *kctx) {
		v := rhs(k)
		var buf [maxRank]int64
		a, idx := r.index(k, &buf)
		a.Set(idx, v)
	}
}

// targetSlots returns the frame slots of a target's implicit dimensions.
func (c *compiler) targetSlots(t *sem.Target) []int {
	slots := make([]int, len(t.Implicit))
	for i, v := range t.Implicit {
		slots[i] = c.cm.slotOf[v]
	}
	return slots
}

// compileCallEquation handles whole-value module calls: x = f(...) and
// multi-target a, b = f(...).
func (c *compiler) compileCallEquation(eq *sem.Equation) kernelFn {
	call := eq.WholeCall
	if eq.MultiCall != nil {
		call = eq.MultiCall
	}
	invoke := c.compileInvoke(call)
	slots := make([]int, len(eq.Targets))
	isArray := make([]bool, len(eq.Targets))
	for i, t := range eq.Targets {
		if len(t.Subs) > 0 {
			c.failf("subscripted target %s of whole-call equation %s", t.Sym.Name, eq.Label)
		}
		slots[i] = c.cm.symIdx[t.Sym]
		isArray[i] = types.Rank(t.Sym.Type) > 0
	}
	return func(en *env, fr []int64) {
		results := invoke(en.checked(fr))
		for i, slot := range slots {
			if isArray[i] {
				en.arrays[slot] = results[i].(*value.Array)
			} else {
				en.scalars[slot] = results[i]
			}
		}
	}
}

// compileInvoke is the one lowering of a module call, whole-value or
// expression-level: resolve (compiling on demand) the callee, box the
// arguments, run one activation and return every result.
func (c *compiler) compileInvoke(x *ast.Call) func(k *kctx) []any {
	if c.direct != nil {
		c.failf("call %s is not a specializable builtin", x.Fun.Name)
	}
	callee := c.m.Prog.Module(x.Fun.Name)
	if callee == nil {
		c.failf("unknown function %s", x.Fun.Name)
	}
	sub, ok := c.p.mods[callee]
	if !ok {
		var err error
		sub, err = c.p.compileCallee(callee)
		if err != nil {
			c.failf("compiling callee %s: %v", callee.Name, err)
		}
	}
	args := make([]evalA, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.compileA(a)
	}
	p := c.p
	return func(k *kctx) []any {
		en := k.en
		argv := make([]any, len(args))
		for i, f := range args {
			argv[i] = f(k)
		}
		results, err := p.runModule(en.rs, sub, argv, en.inParallel, en.inParallel || en.inSpan)
		if err != nil {
			panic(runtimeError{err: fmt.Errorf("call %s: %w", sub.m.Name, err)})
		}
		return results
	}
}

// compileModuleCall compiles a single-result module invocation inside an
// expression.
func (c *compiler) compileModuleCall(x *ast.Call) evalA {
	invoke := c.compileInvoke(x)
	return func(k *kctx) any { return invoke(k)[0] }
}

// --- expression compilation ---------------------------------------------------
//
// compileF/I/B/A dispatch on the checked static type so the hot paths
// (real and integer arithmetic) never box. Everything above the leaves
// — literals, widening, operators, the div/mod zero check, comparisons,
// conditionals, builtins — is mode-independent and written once; only
// the leaf helpers (scalarF/I/B, readF/I/B, compileInvoke) look at
// c.direct.

func (c *compiler) typeOf(e ast.Expr) types.Type {
	t := c.m.TypeOf(e)
	if t == nil {
		c.failf("expression %s has no checked type", ast.ExprString(e))
	}
	return t
}

// intBacked reports whether values of t are stored as int64: integers,
// subranges, chars and enum ordinals.
func intBacked(t types.Type) bool {
	return types.IsInteger(t) || t.Kind() == types.CharKind || t.Kind() == types.EnumKind
}

func constant[T any](v T) func(*kctx) T { return func(*kctx) T { return v } }

func box[T any](f func(*kctx) T) evalA { return func(k *kctx) any { return f(k) } }

// arith builds l op r for the operators real and integer arithmetic
// share, or nil for any other operator.
func arith[T float64 | int64](op string, l, r func(*kctx) T) func(*kctx) T {
	switch op {
	case "+":
		return func(k *kctx) T { return l(k) + r(k) }
	case "-":
		return func(k *kctx) T { return l(k) - r(k) }
	case "*":
		return func(k *kctx) T { return l(k) * r(k) }
	}
	return nil
}

// negate builds the unary operator op over f: "-" negates, "+" is f.
func negate[T float64 | int64](op string, f func(*kctx) T) func(*kctx) T {
	if op == "-" {
		return func(k *kctx) T { return -f(k) }
	}
	return f
}

// compare builds the relational operator op over reals, integers
// (including char and enum ordinals) or strings, or nil for an unknown
// operator.
func compare[T cmp.Ordered](op string, l, r func(*kctx) T) evalB {
	switch op {
	case "=":
		return func(k *kctx) bool { return l(k) == r(k) }
	case "<>":
		return func(k *kctx) bool { return l(k) != r(k) }
	case "<":
		return func(k *kctx) bool { return l(k) < r(k) }
	case "<=":
		return func(k *kctx) bool { return l(k) <= r(k) }
	case ">":
		return func(k *kctx) bool { return l(k) > r(k) }
	case ">=":
		return func(k *kctx) bool { return l(k) >= r(k) }
	}
	return nil
}

// compileIf compiles an if/elsif chain whose arms compile with arm.
func compileIf[T any](c *compiler, x *ast.IfExpr, arm func(ast.Expr) func(*kctx) T) func(*kctx) T {
	conds := []evalB{c.compileB(x.Cond)}
	thens := []func(*kctx) T{arm(x.Then)}
	for _, e := range x.Elifs {
		conds = append(conds, c.compileB(e.Cond))
		thens = append(thens, arm(e.Then))
	}
	els := arm(x.Else)
	return func(k *kctx) T {
		for i, cond := range conds {
			if cond(k) {
				return thens[i](k)
			}
		}
		return els(k)
	}
}

// compileF compiles a numeric expression to a float64 evaluator, widening
// integer subexpressions. Array-typed expressions in element context
// (e.g. the RHS of A[1] = InitialA) compile to implicitly-aligned element
// reads.
func (c *compiler) compileF(e ast.Expr) evalF {
	switch t := c.typeOf(e); {
	case intBacked(t):
		f := c.compileI(e)
		return func(k *kctx) float64 { return float64(f(k)) }
	case t.Kind() == types.ArrayKind:
		return c.readF(e)
	case t.Kind() != types.RealKind:
		c.failf("expression %s has type %s, want real", ast.ExprString(e), t)
	}
	switch x := e.(type) {
	case *ast.RealLit:
		return constant(x.Value)
	case *ast.Paren:
		return c.compileF(x.X)
	case *ast.Ident:
		return c.scalarF(x.Name)
	case *ast.Unary:
		return negate(x.Op.String(), c.compileF(x.X))
	case *ast.Binary:
		l, r := c.compileF(x.X), c.compileF(x.Y)
		op := x.Op.String()
		if f := arith(op, l, r); f != nil {
			return f
		}
		if op == "/" {
			return func(k *kctx) float64 { return l(k) / r(k) }
		}
		c.failf("invalid real operator %s", op)
	case *ast.IfExpr:
		return compileIf(c, x, c.compileF)
	case *ast.Index:
		return c.readF(x)
	case *ast.Field:
		if c.direct == nil {
			g := c.compileFieldAccess(x)
			return func(k *kctx) float64 { return value.ToFloat(g(k)) }
		}
	case *ast.Call:
		return c.compileCallF(x)
	}
	c.unsupported("real expression", e)
	return nil
}

// compileI compiles an integer-backed expression (int, subrange, char,
// enum ordinal).
func (c *compiler) compileI(e ast.Expr) evalI {
	// Subrange bound expressions are compiled without checked types; the
	// nil-tolerant lookup only matters for the array element case.
	if t := c.m.TypeOf(e); t != nil && t.Kind() == types.ArrayKind {
		return c.readI(e)
	}
	switch x := e.(type) {
	case *ast.IntLit:
		return constant(x.Value)
	case *ast.CharLit:
		return constant(int64(x.Value))
	case *ast.Paren:
		return c.compileI(x.X)
	case *ast.Ident:
		if iv := c.m.IndexVar(x.Name); iv != nil {
			slot, ok := c.cm.slotOf[iv]
			if !ok {
				c.failf("no frame slot for index %s", x.Name)
			}
			if c.direct != nil {
				c.direct.readsIdx = true // the span must keep the frame current
			}
			return frameSlot(slot)
		}
		if sym := c.m.Lookup(x.Name); sym != nil && sym.Kind == sem.EnumConstSym {
			return constant(int64(sym.Index))
		}
		return c.scalarI(x.Name)
	case *ast.Unary:
		return negate(x.Op.String(), c.compileI(x.X))
	case *ast.Binary:
		l, r := c.compileI(x.X), c.compileI(x.Y)
		op := x.Op.String()
		if f := arith(op, l, r); f != nil {
			return f
		}
		switch op {
		case "div":
			return func(k *kctx) int64 {
				d := nonzero(r(k))
				return l(k) / d
			}
		case "mod":
			return func(k *kctx) int64 {
				d := nonzero(r(k))
				return l(k) % d
			}
		}
		c.failf("invalid integer operator %s", op)
	case *ast.IfExpr:
		return compileIf(c, x, c.compileI)
	case *ast.Index:
		return c.readI(x)
	case *ast.Field:
		if c.direct == nil {
			g := c.compileFieldAccess(x)
			return func(k *kctx) int64 { return value.ToInt(g(k)) }
		}
	case *ast.Call:
		return c.compileCallI(x)
	}
	c.unsupported("integer expression", e)
	return nil
}

// nonzero returns the divisor d of a div or mod, raising the run-time
// error when it is zero.
func nonzero(d int64) int64 {
	if d == 0 {
		panic(runtimeError{err: fmt.Errorf("division by zero")})
	}
	return d
}

// frameSlot reads a loop index from the frame — the same in both modes.
func frameSlot(slot int) evalI { return func(k *kctx) int64 { return k.fr[slot] } }

// compileB compiles a boolean expression.
func (c *compiler) compileB(e ast.Expr) evalB {
	if t := c.m.TypeOf(e); t != nil && t.Kind() == types.ArrayKind {
		if c.direct != nil {
			c.failf("array %s read in boolean context", ast.ExprString(e))
		}
		return c.readB(e)
	}
	switch x := e.(type) {
	case *ast.BoolLit:
		return constant(x.Value)
	case *ast.Paren:
		return c.compileB(x.X)
	case *ast.Ident:
		return c.scalarB(x.Name)
	case *ast.Unary:
		f := c.compileB(x.X)
		return func(k *kctx) bool { return !f(k) }
	case *ast.Binary:
		return c.compileBinaryB(x)
	case *ast.IfExpr:
		return compileIf(c, x, c.compileB)
	case *ast.Index:
		if c.direct == nil {
			return c.readB(x)
		}
	case *ast.Field:
		if c.direct == nil {
			g := c.compileFieldAccess(x)
			return func(k *kctx) bool { return g(k).(bool) }
		}
	case *ast.Call:
		g := c.compileModuleCall(x)
		return func(k *kctx) bool { return g(k).(bool) }
	}
	c.unsupported("boolean expression", e)
	return nil
}

func (c *compiler) compileBinaryB(x *ast.Binary) evalB {
	op := x.Op.String()
	switch op {
	case "and":
		l, r := c.compileB(x.X), c.compileB(x.Y)
		return func(k *kctx) bool { return l(k) && r(k) }
	case "or":
		l, r := c.compileB(x.X), c.compileB(x.Y)
		return func(k *kctx) bool { return l(k) || r(k) }
	}
	// Relational operators: compare by operand type.
	var rel evalB
	switch lt, rt := c.typeOf(x.X), c.typeOf(x.Y); {
	case lt.Kind() == types.RealKind || rt.Kind() == types.RealKind:
		rel = compare(op, c.compileF(x.X), c.compileF(x.Y))
	case intBacked(lt):
		rel = compare(op, c.compileI(x.X), c.compileI(x.Y))
	case lt.Kind() == types.BoolKind:
		l, r := c.compileB(x.X), c.compileB(x.Y)
		switch op {
		case "=":
			rel = func(k *kctx) bool { return l(k) == r(k) }
		case "<>":
			rel = func(k *kctx) bool { return l(k) != r(k) }
		}
	case lt.Kind() == types.StringKind && c.direct == nil:
		rel = compare(op, c.compileS(x.X), c.compileS(x.Y))
	}
	if rel == nil {
		c.unsupported("comparison", x)
	}
	return rel
}

// compileS compiles a string expression (boxed at run time).
func (c *compiler) compileS(e ast.Expr) func(*kctx) string {
	g := c.compileA(e)
	return func(k *kctx) string { return g(k).(string) }
}

// --- leaves: scalars -----------------------------------------------------------
//
// A scalar read unboxes the env slot in checked mode; in direct mode the
// slot is interned in the speccer's hoist table and read from the copy
// the span loop takes at span entry (module scalars cannot change while
// an equation's span runs).

func (c *compiler) scalarSlot(name string) int {
	sym := c.m.Lookup(name)
	if sym == nil || !sym.IsData() {
		c.failf("unknown name %s", name)
	}
	if types.Rank(sym.Type) > 0 {
		c.failf("array %s used as scalar", name)
	}
	return c.cm.symIdx[sym]
}

func (c *compiler) scalarF(name string) evalF {
	si := c.scalarSlot(name)
	if s := c.direct; s != nil {
		hi := s.sf.intern(si)
		return func(k *kctx) float64 { return k.sf[hi] }
	}
	return func(k *kctx) float64 { return k.en.scalars[si].(float64) }
}

func (c *compiler) scalarI(name string) evalI {
	si := c.scalarSlot(name)
	if s := c.direct; s != nil {
		hi := s.sn.intern(si)
		return func(k *kctx) int64 { return k.sn[hi] }
	}
	return func(k *kctx) int64 { return k.en.scalars[si].(int64) }
}

func (c *compiler) scalarB(name string) evalB {
	si := c.scalarSlot(name)
	if s := c.direct; s != nil {
		hi := s.sb.intern(si)
		return func(k *kctx) bool { return k.sb[hi] }
	}
	return func(k *kctx) bool { return k.en.scalars[si].(bool) }
}

// --- leaves: array references ----------------------------------------------------

// maxRank bounds the subscript buffer kept on the evaluator's stack.
const maxRank = 8

// resolveRef decomposes an array reference — a whole array or a fully
// or partially subscripted one — into its symbol, explicit subscripts
// and the frame slots of the trailing dimensions left implicit, which
// align with the equation's implicit variables (newA = A[maxK] reads
// A[maxK,i,j]).
func (c *compiler) resolveRef(e ast.Expr) (sym *sem.Symbol, explicit []ast.Expr, implicit []int) {
	var name string
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.Index:
		base, ok := ast.Unparen(x.Base).(*ast.Ident)
		if !ok {
			c.failf("subscripted value %s must be a named array", ast.ExprString(x.Base))
		}
		name, explicit = base.Name, x.Subs
	default:
		c.failf("array-valued expression %s cannot be read element-wise", ast.ExprString(e))
	}
	sym = c.m.Lookup(name)
	if sym == nil || !sym.IsData() {
		c.failf("unknown array %s", name)
	}
	arr, isArr := sym.Type.(*types.Array)
	if !isArr {
		c.failf("%s is not an array", name)
	}
	if len(arr.Dims) > maxRank {
		c.failf("array %s has rank %d > %d", name, len(arr.Dims), maxRank)
	}
	if n := len(arr.Dims) - len(explicit); n > 0 {
		implicit = c.implicitSlots(n)
	}
	return sym, explicit, implicit
}

// implicitSlots returns the frame slots of the current equation's last n
// implicit dimensions, failing when alignment is impossible.
func (c *compiler) implicitSlots(n int) []int {
	if c.eq == nil {
		c.failf("array-valued expression outside an equation")
	}
	imp := c.eq.Dims[c.eq.NumExplicit:]
	if len(imp) != n {
		c.failf("cannot align %d remaining dimensions with %d implicit variables in %s", n, len(imp), c.eq.Label)
	}
	out := make([]int, n)
	for i, v := range imp {
		out[i] = c.cm.slotOf[v]
	}
	return out
}

// elemRef is a checked array reference: the symbol slot and one
// subscript evaluator per dimension.
type elemRef struct {
	si   int
	subs []evalI
}

// checkedRef compiles the subscripts of a reference in checked mode.
func (c *compiler) checkedRef(sym *sem.Symbol, explicit []ast.Expr, implicit []int) *elemRef {
	r := &elemRef{si: c.cm.symIdx[sym]}
	for _, e := range explicit {
		r.subs = append(r.subs, c.compileI(e))
	}
	for _, slot := range implicit {
		r.subs = append(r.subs, frameSlot(slot))
	}
	return r
}

// offset evaluates the subscripts and returns the array with the
// element's physical offset (window wrap-around applied), panicking
// with a runtimeError when a subscript is out of range.
func (r *elemRef) offset(k *kctx) (*value.Array, int64) {
	a := k.en.arrays[r.si]
	var off int64
	for d, f := range r.subs {
		x := f(k)
		ax := a.Axes[d]
		if x < ax.Lo || x > ax.Hi {
			panic(runtimeError{err: fmt.Errorf("subscript %d out of range %d..%d in dimension %d", x, ax.Lo, ax.Hi, d+1)})
		}
		p := x - ax.Lo
		if ph := a.PhysDims[d]; p >= ph {
			p %= ph
		}
		off += p * a.Strides[d]
	}
	return a, off
}

// index evaluates the subscripts into buf for value.Array's own checked
// accessors: strict mode (definedness and single-assignment tracking)
// and boxed elements.
func (r *elemRef) index(k *kctx, buf *[maxRank]int64) (*value.Array, []int64) {
	idx := buf[:len(r.subs)]
	for i, f := range r.subs {
		idx[i] = f(k)
	}
	return k.en.arrays[r.si], idx
}

// readF compiles an array reference read as one real element; integer
// elements widen. Checked mode goes through the subscripts, direct mode
// through the access's certified offset.
func (c *compiler) readF(e ast.Expr) evalF {
	sym, explicit, implicit := c.resolveRef(e)
	if intBacked(sym.Type.(*types.Array).Elem) {
		f := c.readI(e)
		return func(k *kctx) float64 { return float64(f(k)) }
	}
	if s := c.direct; s != nil {
		ai := s.access(sym, explicit, implicit)
		return func(k *kctx) float64 { return k.fs[ai][k.offs[ai]] }
	}
	r := c.checkedRef(sym, explicit, implicit)
	return func(k *kctx) float64 {
		if k.en.strict {
			var buf [maxRank]int64
			a, idx := r.index(k, &buf)
			return a.GetF(idx)
		}
		a, off := r.offset(k)
		return a.F[off]
	}
}

// readI compiles an array reference read as one integer-backed element.
func (c *compiler) readI(e ast.Expr) evalI {
	sym, explicit, implicit := c.resolveRef(e)
	if sym.Type.(*types.Array).Elem.Kind() == types.RealKind {
		c.failf("real array %s read in integer context", sym.Name)
	}
	if s := c.direct; s != nil {
		ai := s.access(sym, explicit, implicit)
		return func(k *kctx) int64 { return k.is[ai][k.offs[ai]] }
	}
	r := c.checkedRef(sym, explicit, implicit)
	return func(k *kctx) int64 {
		if k.en.strict {
			var buf [maxRank]int64
			a, idx := r.index(k, &buf)
			return a.GetI(idx)
		}
		a, off := r.offset(k)
		return a.I[off]
	}
}

// readB compiles an array reference read as one bool element (checked
// mode only: bool arrays are outside the direct fragment).
func (c *compiler) readB(e ast.Expr) evalB {
	r := c.checkedRef(c.resolveRef(e))
	return func(k *kctx) bool {
		if k.en.strict {
			var buf [maxRank]int64
			a, idx := r.index(k, &buf)
			return a.GetB(idx)
		}
		a, off := r.offset(k)
		return a.B[off]
	}
}

// --- builtins ------------------------------------------------------------------

func (c *compiler) compileCallF(x *ast.Call) evalF {
	name := strings.ToLower(x.Fun.Name)
	switch name {
	case "sqrt", "sin", "cos", "exp", "ln":
		f := c.compileF(x.Args[0])
		var fn func(float64) float64
		switch name {
		case "sqrt":
			fn = math.Sqrt
		case "sin":
			fn = math.Sin
		case "cos":
			fn = math.Cos
		case "exp":
			fn = math.Exp
		case "ln":
			fn = math.Log
		}
		return func(k *kctx) float64 { return fn(f(k)) }
	case "pow":
		l, r := c.compileF(x.Args[0]), c.compileF(x.Args[1])
		return func(k *kctx) float64 { return math.Pow(l(k), r(k)) }
	case "abs":
		f := c.compileF(x.Args[0])
		return func(k *kctx) float64 { return math.Abs(f(k)) }
	case "min":
		l, r := c.compileF(x.Args[0]), c.compileF(x.Args[1])
		return func(k *kctx) float64 { return math.Min(l(k), r(k)) }
	case "max":
		l, r := c.compileF(x.Args[0]), c.compileF(x.Args[1])
		return func(k *kctx) float64 { return math.Max(l(k), r(k)) }
	case "float":
		f := c.compileI(x.Args[0])
		return func(k *kctx) float64 { return float64(f(k)) }
	}
	// Module call returning a real.
	g := c.compileModuleCall(x)
	return func(k *kctx) float64 { return value.ToFloat(g(k)) }
}

func (c *compiler) compileCallI(x *ast.Call) evalI {
	name := strings.ToLower(x.Fun.Name)
	switch name {
	case "abs":
		f := c.compileI(x.Args[0])
		return func(k *kctx) int64 {
			v := f(k)
			if v < 0 {
				return -v
			}
			return v
		}
	case "min":
		l, r := c.compileI(x.Args[0]), c.compileI(x.Args[1])
		return func(k *kctx) int64 {
			a, b := l(k), r(k)
			if a < b {
				return a
			}
			return b
		}
	case "max":
		l, r := c.compileI(x.Args[0]), c.compileI(x.Args[1])
		return func(k *kctx) int64 {
			a, b := l(k), r(k)
			if a > b {
				return a
			}
			return b
		}
	case "trunc":
		f := c.compileF(x.Args[0])
		return func(k *kctx) int64 { return int64(math.Trunc(f(k))) }
	case "round":
		f := c.compileF(x.Args[0])
		return func(k *kctx) int64 { return int64(math.Round(f(k))) }
	case "ord":
		return c.compileI(x.Args[0])
	}
	g := c.compileModuleCall(x)
	return func(k *kctx) int64 { return value.ToInt(g(k)) }
}

// --- boxed values ----------------------------------------------------------------

// compileFieldAccess compiles a record field selection to a boxed
// evaluator, bypassing the scalar-type dispatch of compileA (which would
// bounce scalar-typed fields back to the typed compilers).
func (c *compiler) compileFieldAccess(x *ast.Field) evalA {
	g := c.compileA(x.Base)
	name := x.Sel.Name
	return func(k *kctx) any {
		return g(k).(*value.Record).Field(name)
	}
}

// compileA compiles any expression to a boxed evaluator: whole arrays,
// records, strings, and scalars used as call arguments.
func (c *compiler) compileA(e ast.Expr) evalA { return c.compileAs(e, c.typeOf(e)) }

// compileAs compiles e boxed as a value of type t: scalar types coerce
// through the typed compilers (an integer expression assigned to a real
// scalar widens), everything else stays boxed.
func (c *compiler) compileAs(e ast.Expr, t types.Type) evalA {
	switch {
	case t.Kind() == types.RealKind:
		return box(c.compileF(e))
	case intBacked(t):
		return box(c.compileI(e))
	case t.Kind() == types.BoolKind:
		return box(c.compileB(e))
	}
	switch x := e.(type) {
	case *ast.Paren:
		return c.compileA(x.X)
	case *ast.StringLit:
		return constant[any](x.Value)
	case *ast.Ident:
		sym := c.m.Lookup(x.Name)
		if sym == nil || !sym.IsData() {
			c.failf("unknown name %s", x.Name)
		}
		si := c.cm.symIdx[sym]
		if types.Rank(sym.Type) > 0 {
			return func(k *kctx) any { return k.en.arrays[si] }
		}
		return func(k *kctx) any { return k.en.scalars[si] }
	case *ast.Field:
		return c.compileFieldAccess(x)
	case *ast.Index:
		r := c.checkedRef(c.resolveRef(x))
		return func(k *kctx) any {
			var buf [maxRank]int64
			a, idx := r.index(k, &buf)
			return a.Get(idx)
		}
	case *ast.Call:
		return c.compileModuleCall(x)
	case *ast.IfExpr:
		return compileIf(c, x, c.compileA)
	}
	c.unsupported("expression", e)
	return nil
}
