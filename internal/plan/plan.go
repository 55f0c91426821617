package plan

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/hyperplane"
	"repro/internal/sem"
	"repro/internal/types"
)

// Op is a plan instruction opcode.
type Op uint8

const (
	// OpEq executes one equation kernel at the current index frame.
	OpEq Op = iota
	// OpDo is a sequential (iterative) loop over one subrange.
	OpDo
	// OpDoAll is a parallel loop: one or more collapsed DOALL dimensions
	// forming a single linear iteration space.
	OpDoAll
	// OpWavefront is a §4 hyperplane-restructured loop nest, run as a
	// wavefront of tiles of skewed iteration space (see Hyper).
	OpWavefront
)

// String names the opcode.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "eq"
	case OpDo:
		return "do"
	case OpDoAll:
		return "doall"
	case OpWavefront:
		return "wavefront"
	}
	return "?"
}

// Bound is one subrange of the module: its inclusive lo/hi bound
// expressions (the "bound thunks" backends compile once) and, by its
// position in Program.Bounds, the frame slot its index variable occupies.
type Bound struct {
	Subrange *types.Subrange
	Lo, Hi   ast.Expr
}

// Step is one flat plan instruction. Loop steps own the contiguous range
// of body steps Steps[i+1:End]; executors iterate a step slice and skip
// to End after running a loop, so the program needs no pointer chasing.
type Step struct {
	Op Op
	// Eq indexes Program.Eqs for OpEq steps.
	Eq int
	// Dims lists the frame slots this loop iterates, outermost first.
	// OpDo always has exactly one; OpDoAll has one per collapsed
	// dimension of the nest.
	Dims []int
	// End is one past the last body step for loop ops (body is
	// Steps[i+1:End]); meaningless for OpEq.
	End int
	// Leaf marks a loop executors hand to the kernels as contiguous
	// spans instead of re-entering the step dispatcher per point: a loop
	// whose body is one or more equation steps only. A leaf DOALL runs
	// each equation's row in turn; a leaf DO is the §3 iterative loop and
	// runs its whole range as one span of its body, the equations jammed
	// point by point in body order, so carried reads along the loop see
	// program order.
	Leaf bool
	// Hyper carries the §4 restructuring data for OpWavefront steps; nil
	// for every other op.
	Hyper *Hyper
}

// Hyper is the hyperplane restructuring of one sequential loop nest
// (paper §4), attached to an OpWavefront step whose Dims list the
// original frame slots in equation-dimension order. Both backends run
// the nest as a wavefront of rectangular tiles of skewed iteration space
// (Skew), sharing the equation kernels of the untransformed variants; π
// and the window describe the same nest as hyperplanes for the listing.
type Hyper struct {
	// Pi is the least time vector with π·d ≥ 1 for every dependence d.
	Pi []int64
	// Window is 1 + the largest π·d over the dependences — the number of
	// consecutive hyperplanes a plane's inputs span.
	Window int
	// Skew is the tiling skew S, dense rows: unit lower-triangular with
	// S·d ≥ 0 componentwise for every dependence d, so the skewed nest
	// is fully permutable and any rectangular tiling of it is legal (a
	// tile's inputs lie in tiles with no larger coordinate). Rows only
	// add multiples of outer coordinates, so the innermost skewed
	// coordinate advances the original innermost index by exactly one.
	Skew [][]int64
	// RowSplit reports that no dependence inside one row — S·d of the
	// form (0,…,0,c) — runs from a later body equation to an earlier
	// one, so each equation may run its whole row in turn. Otherwise the
	// row is one span of the body, the equations jammed point by point.
	RowSplit bool
}

// skewFor derives the tiling skew of a nest: row i starts as e_i, and
// each dependence it maps below zero adds the least multiple of the
// first skewed row that maps that dependence above zero (added rows are
// non-negative on every dependence, so one pass fixes a row). nil means
// a dependence has a negative first component: no unit lower-triangular
// skew exists in this loop order.
func skewFor(deps []hyperplane.Dependence, n int) [][]int64 {
	s := make([][]int64, n)
	for i := range s {
		s[i] = make([]int64, n)
		s[i][i] = 1
		for _, d := range deps {
			v := dot(s[i], d.Vec)
			if v >= 0 {
				continue
			}
			k := 0
			for k < i && dot(s[k], d.Vec) <= 0 {
				k++
			}
			if k == i {
				return nil
			}
			c := (-v + dot(s[k], d.Vec) - 1) / dot(s[k], d.Vec)
			for j := range s[i] {
				s[i][j] += c * s[k][j]
			}
		}
	}
	return s
}

// rowSplit reports whether equations may run whole rows in turn: no
// dependence lies inside a row of skew s (S·d = (0,…,0,c)) running from
// a later body equation to an earlier one.
func rowSplit(s [][]int64, deps []hyperplane.Dependence) bool {
	for _, d := range deps {
		if d.From > d.To && inRow(s, d.Vec) {
			return false
		}
	}
	return true
}

// inRow reports whether S·d is zero on every coordinate but the last.
func inRow(s [][]int64, d []int64) bool {
	for r := 0; r < len(s)-1; r++ {
		if dot(s[r], d) != 0 {
			return false
		}
	}
	return true
}

// dot is the integer inner product.
func dot(a, b []int64) int64 {
	var v int64
	for i := range a {
		v += a[i] * b[i]
	}
	return v
}

// skewCoords renders each skewed coordinate over the step's dimension
// names, e.g. K, I+K, J+K.
func skewCoords(s [][]int64, names []string) []string {
	coords := make([]string, len(s))
	for i, row := range s {
		coords[i] = names[i]
		for j, k := range row[:i] {
			switch {
			case k == 1:
				coords[i] += "+" + names[j]
			case k == -1:
				coords[i] += "-" + names[j]
			case k != 0:
				coords[i] += fmt.Sprintf("%+d%s", k, names[j])
			}
		}
	}
	return coords
}

// piString renders the time function over the step's dimension names,
// e.g. "2K + I + J".
func (h *Hyper) piString(names []string) string {
	var terms []string
	for i, c := range h.Pi {
		switch {
		case c == 0:
		case c == 1:
			terms = append(terms, names[i])
		default:
			terms = append(terms, fmt.Sprintf("%d%s", c, names[i]))
		}
	}
	if len(terms) == 0 {
		return "0"
	}
	return strings.Join(terms, " + ")
}

// vecString renders an integer vector like "(2,1,1)".
func vecString(v []int64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Program is the lowered loop program for one module variant.
type Program struct {
	// Module is the source module's name.
	Module string
	// Bounds lists every subrange of the module in declaration order.
	// The index of a bound is the frame slot of its loop variable, so a
	// frame is []int64 of length len(Bounds).
	Bounds []Bound
	// Steps is the flat loop program in pre-order.
	Steps []Step
	// Eqs is the kernel table: OpEq steps index it.
	Eqs []*sem.Equation
	// Virtual carries the §3.4 window-allocatable dimensions through to
	// the backends.
	Virtual []core.VirtualDim
	// Cascade records one Decision per lowered loop nest when the
	// scheduler cascade ran (Options.Hyperplane); nil otherwise.
	Cascade []Decision
}

// Rejection records why one cascade backend declined a nest.
type Rejection struct {
	Backend string // "doall", "wavefront"
	Reason  string
}

// Decision is the scheduler cascade's record for one lowered loop nest:
// which backend won and why each earlier backend in the cascade order
// was rejected. Runner.Explain renders the list.
type Decision struct {
	// Step indexes the step the nest lowered to.
	Step int
	// Nest names the nest's dimensions, outermost first.
	Nest string
	// Choice is the winning backend: "doall", "wavefront" or
	// "sequential".
	Choice string
	// Detail is backend-specific: the chosen π and window for
	// wavefronts.
	Detail string
	// Merged marks a nest the cascade's §5 fusion step built by merging
	// sibling loops; its body lists the fused equations.
	Merged bool
	// Rejections lists the backends tried before Choice, in cascade
	// order, with the reason each declined.
	Rejections []Rejection
}

// CascadeReport renders the cascade decisions as an indented block, or
// "" when the cascade did not run:
//
//	cascade:
//	  step 0: nest I -> sequential
//	          doall rejected: 2 loop-carried dependence edge(s) force ascending order
//	          wavefront rejected: hyperplane: ...
//	  step 4: nest I, J -> doall [fused eq.3, eq.4]
func (p *Program) CascadeReport() string {
	if len(p.Cascade) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("cascade:\n")
	for _, d := range p.Cascade {
		fmt.Fprintf(&sb, "  step %d: nest %s -> %s", d.Step, d.Nest, d.Choice)
		if d.Detail != "" {
			fmt.Fprintf(&sb, " (%s)", d.Detail)
		}
		if d.Merged {
			var labels []string
			for _, eq := range p.BodyEqs(d.Step) {
				labels = append(labels, eq.Label)
			}
			fmt.Fprintf(&sb, " [fused %s]", strings.Join(labels, ", "))
		}
		sb.WriteByte('\n')
		for _, r := range d.Rejections {
			fmt.Fprintf(&sb, "          %s rejected: %s\n", r.Backend, r.Reason)
		}
	}
	return sb.String()
}

// BodyEqs returns the equations run directly in the body of the loop
// step at i, in execution order.
func (p *Program) BodyEqs(i int) []*sem.Equation {
	var eqs []*sem.Equation
	for j := i + 1; j < p.Steps[i].End; j++ {
		if st := &p.Steps[j]; st.Op == OpEq {
			eqs = append(eqs, p.Eqs[st.Eq])
		}
	}
	return eqs
}

// fused reports whether the cascade's fusion step built the loop step at
// i (any step when i < 0).
func (p *Program) fused(i int) bool {
	for _, d := range p.Cascade {
		if d.Merged && (i < 0 || d.Step == i) {
			return true
		}
	}
	return false
}

// NSlots returns the index-frame length plans of this module require.
func (p *Program) NSlots() int { return len(p.Bounds) }

// Windows resolves the Virtual report into a per-symbol window table
// (dimension index → plane count), the form both backends consume when
// allocating arrays.
func (p *Program) Windows() map[*sem.Symbol]map[int]int {
	win := make(map[*sem.Symbol]map[int]int)
	for _, v := range p.Virtual {
		if win[v.Sym] == nil {
			win[v.Sym] = make(map[int]int)
		}
		win[v.Sym][v.Dim] = v.Window
	}
	return win
}

// Allocated lists the arrays an activation of module m allocates, results
// before locals: every array result and local except the targets of
// module calls, which take the callee's result arrays.
func (p *Program) Allocated(m *sem.Module) []*sem.Symbol {
	called := make(map[*sem.Symbol]bool)
	for _, eq := range p.Eqs {
		if eq.WholeCall != nil || eq.MultiCall != nil {
			for _, t := range eq.Targets {
				called[t.Sym] = true
			}
		}
	}
	var out []*sem.Symbol
	for _, sym := range append(append([]*sem.Symbol{}, m.Results...), m.Locals...) {
		if types.Rank(sym.Type) > 0 && !called[sym] {
			out = append(out, sym)
		}
	}
	return out
}

// MaxCollapse bounds the number of dimensions folded into one DOALL
// step, matching the executors' fixed-size per-dimension buffers.
const MaxCollapse = 8

// Options select the plan variant to lower.
type Options struct {
	// Fuse is ignored: §5 fusion is a step of the cascade. It stays only
	// because the repo benchmark (benchmark/layers.go) still sets it.
	Fuse bool
	// Hyperplane runs the scheduler selection cascade: at each flowchart
	// level §5 fusion merges nests where that yields a parallel step
	// (fuse), then each nest tries DOALL, then the automatic §4 wavefront
	// restructuring, and falls back to a sequential DO nest when both
	// decline. Without it the schedule lowers as emitted.
	Hyperplane bool
	// PipelineFirst is ignored: it selected a cascade backend that no
	// longer exists. It stays only because the repo benchmark
	// (benchmark/layers.go) still sets it.
	PipelineFirst bool
}

// Lower flattens a module's schedule into an executable plan. It is the
// single point where flowchart descriptors are interpreted; backends
// must consume the returned Program instead of the flowchart.
func Lower(m *sem.Module, sched *core.Schedule, opts Options) *Program {
	p := &Program{Module: m.Name, Virtual: sched.Virtual}
	lw := &lowerer{p: p, m: m, opts: opts, slot: make(map[*types.Subrange]int, len(m.Subranges)),
		merged: make(map[*core.LoopDesc]bool)}
	for i, info := range m.Subranges {
		lw.slot[info.Type] = i
		p.Bounds = append(p.Bounds, Bound{Subrange: info.Type, Lo: info.Type.Lo, Hi: info.Type.Hi})
	}
	lw.lower(sched.Flowchart)
	return p
}

// HasWavefront reports whether the plan contains a §4 wavefront step.
func (p *Program) HasWavefront() bool { return p.has(OpWavefront) }

// HasParallel reports whether the plan contains a step the run may
// dispatch to workers: a DOALL or a wavefront.
func (p *Program) HasParallel() bool { return p.has(OpDoAll) || p.has(OpWavefront) }

// has reports whether any step has opcode op.
func (p *Program) has(op Op) bool {
	for i := range p.Steps {
		if p.Steps[i].Op == op {
			return true
		}
	}
	return false
}

// Restructured reports whether the cascade lowered the plan differently
// from the schedule as emitted: a wavefront step or a fused nest.
func (p *Program) Restructured() bool {
	return p.HasWavefront() || p.fused(-1)
}

// PointWise reports, per kernel, why the plan reaches it only one point
// at a time, or "" when its enclosing loop hands it contiguous spans (a
// leaf DOALL or DO, or a wavefront's rows).
func (p *Program) PointWise() []string {
	why := make([]string, len(p.Eqs))
	var walk func(parent, lo, hi int)
	walk = func(parent, lo, hi int) {
		for i := lo; i < hi; {
			st := &p.Steps[i]
			if st.Op != OpEq {
				walk(i, i+1, st.End)
				i = st.End
				continue
			}
			why[st.Eq] = p.reach(parent)
			i++
		}
	}
	walk(-1, 0, len(p.Steps))
	return why
}

// reach explains how the loop step at parent (-1: none) runs the
// equation steps directly in its body: "" for spans, else the reason
// they run point-wise.
func (p *Program) reach(parent int) string {
	if parent < 0 {
		return "no enclosing loop"
	}
	if st := &p.Steps[parent]; !st.Leaf && st.Op != OpWavefront {
		return fmt.Sprintf("%s body holds a nested loop", st.Op)
	}
	return ""
}

// BodySpan reports whether executors run the equation body of the loop
// step at i as one span per row, its equations jammed point by point in
// body order: a leaf DO (one equation being the plain case), or a
// wavefront whose rows do not split.
func (p *Program) BodySpan(i int) bool {
	st := &p.Steps[i]
	return (st.Op == OpDo && st.Leaf) || (st.Op == OpWavefront && !st.Hyper.RowSplit)
}

// lowerer carries lowering state for one Lower call.
type lowerer struct {
	p      *Program
	m      *sem.Module
	opts   Options
	slot   map[*types.Subrange]int
	eqIdx  map[*sem.Equation]int
	merged map[*core.LoopDesc]bool
}

func (lw *lowerer) lower(fc core.Flowchart) {
	if lw.opts.Hyperplane {
		fc = lw.fuse(fc)
	}
	for _, d := range fc {
		switch x := d.(type) {
		case *core.NodeDesc:
			if x.Node.Eq != nil {
				lw.p.Steps = append(lw.p.Steps, Step{Op: OpEq, Eq: lw.kernel(x.Node.Eq)})
			}
		case *core.LoopDesc:
			if lw.opts.Hyperplane {
				lw.lowerCascade(x)
			} else {
				lw.lowerLoop(x)
			}
		}
	}
}

// fuse is the cascade's §5 step, "merge iterative loops" with core's
// legality, applied to one flowchart level before its nests are lowered.
// A merge is made only where the merged nest runs as a parallel step:
// sibling DOALLs become one leaf DOALL (core admits only reads of the
// same iteration's writes, so each kernel still runs its own row span
// per chunk, and one fork/join is saved); sibling DO nests, or the nests
// the scheduler split inside one DO, merge when the merged nest is a
// wavefront. A merged sequential nest gains no parallel step — its body
// would run as one jammed span where the unmerged nests ran one span
// each — so it is refused.
func (lw *lowerer) fuse(fc core.Flowchart) core.Flowchart {
	return core.FuseIf(fc, func(l *core.LoopDesc) bool {
		ok := leafDoAll(l)
		if !l.Parallel {
			_, _, err := lw.wavefrontAnalysis(l)
			ok = err == nil
		}
		lw.merged[l] = ok
		return ok
	})
}

// leafDoAll reports whether l is a perfect DOALL nest around equations
// only, which lowerLoop collapses into a leaf step.
func leafDoAll(l *core.LoopDesc) bool {
	for l.Parallel && len(l.Body) == 1 {
		inner, ok := l.Body[0].(*core.LoopDesc)
		if !ok {
			break
		}
		l = inner
	}
	return l.Parallel && equationBody(l.Body) != nil
}

// lowerCascade lowers l through the backend selection cascade — DOALL,
// then wavefront, then a sequential DO nest — and records the Decision.
// Decisions are kept in step order: a sequential nest's own precedes
// those of the loops nested in it.
func (lw *lowerer) lowerCascade(l *core.LoopDesc) {
	step := len(lw.p.Steps)
	at := len(lw.p.Cascade)
	lw.p.Cascade = append(lw.p.Cascade, Decision{Step: step, Merged: lw.merged[l]})
	// lowerLoop appends the nested loops' decisions, which may move
	// Cascade: no pointer into it is used after that call.
	if l.Parallel {
		lw.lowerLoop(l)
		lw.p.Cascade[at].Nest, lw.p.Cascade[at].Choice = lw.p.dimNames(&lw.p.Steps[step]), "doall"
		return
	}
	d := &lw.p.Cascade[at]
	d.Nest = l.Subrange.Name
	d.Rejections = []Rejection{{"doall", doallReason(l)}}
	an, eqs, err := lw.wavefrontAnalysis(l)
	if err != nil {
		d.Rejections = append(d.Rejections, Rejection{"wavefront", err.Error()})
		d.Choice = "sequential"
		lw.lowerLoop(l)
		return
	}
	names := make([]string, len(an.Dims))
	for k, dim := range an.Dims {
		names[k] = dim.Name
	}
	d.Nest, d.Choice = strings.Join(names, ", "), "wavefront"
	d.Detail = fmt.Sprintf("pi = %s, window %d", vecString(an.Pi), an.Window)
	lw.emitWavefront(an, eqs)
}

// doallReason explains why a sequential loop cannot be a DOALL.
func doallReason(l *core.LoopDesc) string {
	if n := len(l.Deleted); n > 0 {
		return fmt.Sprintf("%d loop-carried dependence edge(s) force ascending order", n)
	}
	return "loop-carried dependences force ascending order"
}

// slotOf resolves a scheduled subrange to its frame slot; every loop
// dimension must come from the module's subrange table.
func (lw *lowerer) slotOf(sr *types.Subrange) int {
	s, ok := lw.slot[sr]
	if !ok {
		panic(fmt.Sprintf("plan: module %s schedules unknown subrange %s", lw.p.Module, sr.Name))
	}
	return s
}

// kernel interns an equation into the kernel table.
func (lw *lowerer) kernel(eq *sem.Equation) int {
	if lw.eqIdx == nil {
		lw.eqIdx = make(map[*sem.Equation]int)
	}
	if i, ok := lw.eqIdx[eq]; ok {
		return i
	}
	i := len(lw.p.Eqs)
	lw.eqIdx[eq] = i
	lw.p.Eqs = append(lw.p.Eqs, eq)
	return i
}

// lowerLoop emits one loop step. A parallel loop whose body is exactly
// one nested parallel loop collapses into a single multi-dimensional
// DOALL — the dimension flattening the interpreter used to rediscover on
// every activation. PS subrange bounds depend only on module scalars, so
// inner bounds are loop-invariant and the collapse is always legal.
func (lw *lowerer) lowerLoop(l *core.LoopDesc) {
	dims := []int{lw.slotOf(l.Subrange)}
	body := l.Body
	op := OpDo
	if l.Parallel {
		op = OpDoAll
		for len(body) == 1 && len(dims) < MaxCollapse {
			inner, ok := body[0].(*core.LoopDesc)
			if !ok || !inner.Parallel {
				break
			}
			dims = append(dims, lw.slotOf(inner.Subrange))
			body = inner.Body
		}
	}
	self := len(lw.p.Steps)
	lw.p.Steps = append(lw.p.Steps, Step{Op: op, Dims: dims})
	lw.lower(body)
	lw.p.Steps[self].End = len(lw.p.Steps)
	lw.markLeaf(self)
}

// markLeaf sets Leaf on the loop step at self once its body is lowered
// and holds one or more equation steps only.
func (lw *lowerer) markLeaf(self int) {
	st := &lw.p.Steps[self]
	if st.End == self+1 {
		return
	}
	for i := self + 1; i < st.End; i++ {
		if lw.p.Steps[i].Op != OpEq {
			return
		}
	}
	st.Leaf = true
}

// wavefrontAnalysis recognizes the §4-eligible shape under l — a
// maximal nest of fully sequential singleton loops whose innermost body
// is one or more recurrence equations iterating exactly the nest's
// dimensions (one equation, a strongly connected component the
// scheduler put into one nest, or a group the cascade's fusion step is
// weighing) — and runs the
// hyperplane analysis on the union of the group's dependence vectors.
// On any ineligibility it returns an error naming the reason, which the
// cascade records as the wavefront backend's rejection; the transform
// stays a pure win-or-no-change.
func (lw *lowerer) wavefrontAnalysis(l *core.LoopDesc) (*hyperplane.Analysis, []*sem.Equation, error) {
	var dims []*types.Subrange
	cur := l
	for {
		if cur.Parallel {
			return nil, nil, fmt.Errorf("nest has a DOALL dimension (%s)", cur.Subrange.Name)
		}
		dims = append(dims, cur.Subrange)
		if len(cur.Body) == 1 {
			if inner, ok := cur.Body[0].(*core.LoopDesc); ok {
				cur = inner
				continue
			}
		}
		eqs := equationBody(cur.Body)
		if eqs == nil {
			return nil, nil, fmt.Errorf("innermost body is not a pure equation group")
		}
		// A 1-D nest has no plane to parallelize; every equation must
		// iterate the nest's full dimension set so one time vector covers
		// every scheduled subscript of the group.
		if len(dims) < 2 {
			return nil, nil, fmt.Errorf("1-D nest has no plane to parallelize")
		}
		if len(dims) > MaxCollapse {
			return nil, nil, fmt.Errorf("nest exceeds the %d-dimension collapse bound", MaxCollapse)
		}
		for _, eq := range eqs {
			covers := len(eq.Dims) == len(dims)
			if covers {
				for _, d := range eq.Dims {
					found := false
					for _, nd := range dims {
						if nd == d {
							found = true
							break
						}
					}
					if !found {
						covers = false
						break
					}
				}
			}
			if !covers {
				return nil, nil, fmt.Errorf("equation %s does not iterate the nest's dimension set", eq.Label)
			}
		}
		an, err := hyperplane.AnalyzeGroup(lw.m, eqs)
		if err != nil {
			return nil, nil, err
		}
		if skewFor(an.Deps, len(dims)) == nil {
			return nil, nil, fmt.Errorf("no unit lower-triangular skew makes every dependence non-negative")
		}
		return an, eqs, nil
	}
}

// equationBody returns the equations of an innermost loop body in
// scheduled order, or nil when the body contains anything but equation
// nodes (nested loops, data declarations).
func equationBody(fc core.Flowchart) []*sem.Equation {
	var eqs []*sem.Equation
	for _, d := range fc {
		nd, ok := d.(*core.NodeDesc)
		if !ok || nd.Node.Eq == nil {
			return nil
		}
		eqs = append(eqs, nd.Node.Eq)
	}
	return eqs
}

// emitWavefront lowers one analyzed recurrence group as a wavefront
// step whose body is one OpEq step per equation, in group (scheduled)
// order, so zero-distance dependences between group equations flow
// forward within every row. The step's Dims are the frame slots of the
// group's dimensions in analysis order (the order π and the skew are
// expressed in). Virtual windows keyed on the transformed subranges are
// dropped from the plan: tiles interleave the nest's outer iterations,
// so a window sized for ascending-order execution would be overwritten
// while still live.
func (lw *lowerer) emitWavefront(an *hyperplane.Analysis, eqs []*sem.Equation) {
	n := len(an.Dims)
	hy := &Hyper{Pi: an.Pi, Window: an.Window, Skew: skewFor(an.Deps, n)}
	hy.RowSplit = rowSplit(hy.Skew, an.Deps)
	slots := make([]int, n)
	transformed := make(map[*types.Subrange]bool, n)
	for i, d := range an.Dims {
		slots[i] = lw.slotOf(d)
		transformed[d] = true
	}
	self := len(lw.p.Steps)
	lw.p.Steps = append(lw.p.Steps, Step{Op: OpWavefront, Dims: slots, Hyper: hy})
	for _, eq := range eqs {
		lw.p.Steps = append(lw.p.Steps, Step{Op: OpEq, Eq: lw.kernel(eq)})
	}
	lw.p.Steps[self].End = len(lw.p.Steps)

	kept := lw.p.Virtual[:0:0]
	for _, v := range lw.p.Virtual {
		if !transformed[v.Subrange] {
			kept = append(kept, v)
		}
	}
	lw.p.Virtual = kept
}

// dimNames joins the subrange names of a loop step's dimensions.
func (p *Program) dimNames(st *Step) string {
	names := make([]string, len(st.Dims))
	for i, s := range st.Dims {
		names[i] = p.Bounds[s].Subrange.Name
	}
	return strings.Join(names, ", ")
}

// String renders the plan as an indented listing — the artifact
// `psrun -explain` and Runner.Explain print:
//
//	plan Relaxation (5 steps, 3 slots)
//	  bounds: I = 0 .. M+1 [slot 0]; ...
//	  virtual: A dim 1 window 2 (K)
//	   0: doall I, J collapse(2) leaf
//	   1:   eq.1 -> A  [kernel 0]
//	   ...
func (p *Program) String() string {
	var sb strings.Builder
	variant := ""
	if p.HasWavefront() {
		variant = ", auto-hyperplane"
	}
	fmt.Fprintf(&sb, "plan %s (%d steps, %d slots%s)\n", p.Module, len(p.Steps), len(p.Bounds), variant)
	for i, b := range p.Bounds {
		fmt.Fprintf(&sb, "  bound %s = %s .. %s [slot %d]\n",
			b.Subrange.Name, ast.ExprString(b.Lo), ast.ExprString(b.Hi), i)
	}
	for _, v := range p.Virtual {
		fmt.Fprintf(&sb, "  virtual %s dim %d window %d (%s)\n",
			v.Sym.Name, v.Dim+1, v.Window, v.Subrange.Name)
	}
	depth := make([]int, 0, 4) // stack of End indices for indentation
	for i, st := range p.Steps {
		for len(depth) > 0 && i >= depth[len(depth)-1] {
			depth = depth[:len(depth)-1]
		}
		fmt.Fprintf(&sb, "%4d: %s", i, strings.Repeat("    ", len(depth)))
		switch st.Op {
		case OpEq:
			eq := p.Eqs[st.Eq]
			targets := make([]string, len(eq.Targets))
			for j, t := range eq.Targets {
				targets[j] = t.Sym.Name
			}
			fmt.Fprintf(&sb, "%s -> %s  [kernel %d]\n", eq.Label, strings.Join(targets, ", "), st.Eq)
			continue
		case OpDo, OpDoAll:
			fmt.Fprintf(&sb, "%s %s", st.Op, p.dimNames(&st))
			if len(st.Dims) > 1 {
				fmt.Fprintf(&sb, " collapse(%d)", len(st.Dims))
			}
			if st.Leaf {
				sb.WriteString(" leaf")
			}
		case OpWavefront:
			names := make([]string, len(st.Dims))
			for j, s := range st.Dims {
				names[j] = p.Bounds[s].Subrange.Name
			}
			fmt.Fprintf(&sb, "wavefront %s  t = %s, pi = %s, window %d",
				strings.Join(names, ", "), st.Hyper.piString(names), vecString(st.Hyper.Pi), st.Hyper.Window)
			if nk := st.End - i - 1; nk > 1 {
				// A multi-equation group: the indented body lists the
				// kernels sharing this π, executed in order per point.
				fmt.Fprintf(&sb, ", kernels %d", nk)
			}
		}
		if p.fused(i) {
			sb.WriteString(" [fused]")
		}
		sb.WriteByte('\n')
		if st.Op == OpWavefront {
			// The executor's view of the step: the skewed coordinates, the
			// two it cuts into tiles, and how a row runs its equations.
			names := strings.Split(p.dimNames(&st), ", ")
			coords := skewCoords(st.Hyper.Skew, names)
			rows := "jammed"
			if st.Hyper.RowSplit {
				rows = "split"
			}
			fmt.Fprintf(&sb, "      %stiles: skew (%s) on (%s), rows along %s, %s\n",
				strings.Repeat("    ", len(depth)+1), strings.Join(coords, ", "),
				strings.Join(coords[:2], ", "), names[len(names)-1], rows)
		}
		depth = append(depth, st.End)
	}
	return sb.String()
}

// Compact renders the loop program on one line in the flowchart's
// Figure 6 style, with collapsed DOALL nests joined by "×":
// "DOALL I×J (eq.1); DO K (DOALL I×J (eq.3)); ...".
func (p *Program) Compact() string { return p.compactRange(0, len(p.Steps)) }

func (p *Program) compactRange(lo, hi int) string {
	var parts []string
	for i := lo; i < hi; {
		st := &p.Steps[i]
		if st.Op == OpEq {
			parts = append(parts, p.Eqs[st.Eq].Label)
			i++
			continue
		}
		kw := "DO"
		switch st.Op {
		case OpDoAll:
			kw = "DOALL"
		case OpWavefront:
			kw = fmt.Sprintf("WAVEFRONT[pi=%s]", vecString(st.Hyper.Pi))
		}
		names := make([]string, len(st.Dims))
		for j, s := range st.Dims {
			names[j] = p.Bounds[s].Subrange.Name
		}
		parts = append(parts, fmt.Sprintf("%s %s (%s)", kw, strings.Join(names, "×"), p.compactRange(i+1, st.End)))
		i = st.End
	}
	return strings.Join(parts, "; ")
}
