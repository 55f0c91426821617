package plan

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/hyperplane"
	"repro/internal/sched"
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
	// OpWavefront is a §4 hyperplane-restructured loop nest: an outer
	// sequential sweep over hyperplanes t = π·x wrapping a parallel
	// (DOALL) traversal of each plane, with the T⁻¹ remap back to the
	// original index frame baked into the step (see Hyper).
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
	// spans instead of re-entering the step dispatcher per point: a
	// DOALL whose body is equation steps only, or a DO whose body is
	// exactly one equation step (the §3 iterative loop — one kernel runs
	// its points in ascending order, so carried reads along the loop see
	// program order).
	Leaf bool
	// Hyper carries the §4 restructuring data for OpWavefront steps; nil
	// for every other op.
	Hyper *Hyper
}

// Hyper is the hyperplane restructuring of one sequential loop nest
// (paper §4), attached to an OpWavefront step. The step's Dims list the
// original frame slots in equation-dimension order; executors sweep the
// transformed coordinates x' = T·x plane by plane (x'₀ = π·x is the
// time axis), recover x = T⁻¹·x' per point, skip points whose preimage
// falls outside the original iteration box, and run the body at the
// original frame — so equation kernels are shared untouched with the
// untransformed plan variants.
type Hyper struct {
	// Pi is the least time vector with π·d ≥ 1 for every dependence d;
	// it is row 0 of T.
	Pi []int64
	// T is the unimodular coordinate change, TInv its exact inverse,
	// stored as dense rows.
	T, TInv [][]int64
	// Basis[r] = j when row r of T is the standard basis vector e_j (so
	// transformed coordinate r is exactly original dimension j), else
	// -1. Executors use it to tighten each plane coordinate's range per
	// time step — π·x = t bounds a basis coordinate to
	// [⌈(t−maxOthers)/π_j⌉, ⌊(t−minOthers)/π_j⌋] — which keeps the
	// bounding-box slack linear instead of quadratic in the time span.
	// Basis[0] is always -1 (row 0 is π).
	Basis []int
	// Window is 1 + the largest transformed first dependence component —
	// the number of consecutive hyperplanes a plane's inputs span.
	Window int
	// TDeps are the transformed dependence vectors T·d, one per
	// constant-offset self-reference of the recurrence; every first
	// component is ≥ 1 (π·d ≥ 1). They are the doacross schedule's raw
	// material: the `depend(sink:)` vectors of the generated C and the
	// source of the predecessor-tile offsets below.
	TDeps [][]int64
	// Pred[r-1][dt-1] bounds the coordinate-r shift of the dependences
	// reaching dt hyperplanes back (r = 1..n-1 plane coordinates,
	// dt = 1..Window-1): a point with plane coordinate c on plane t
	// reads coordinates [c-Hi, c-Lo] on plane t-dt. The doacross
	// executor blocks one plane coordinate into tiles and waits only on
	// the predecessor tiles this table implies.
	Pred [][]sched.PredRange
}

// predRanges folds the transformed dependence vectors into the
// per-coordinate predecessor-offset table.
func predRanges(tdeps [][]int64, n, window int) [][]sched.PredRange {
	pred := make([][]sched.PredRange, n-1)
	for r := 1; r < n; r++ {
		pred[r-1] = make([]sched.PredRange, window-1)
		for _, d := range tdeps {
			dt := int(d[0])
			if dt < 1 || dt > window-1 {
				continue
			}
			pr := &pred[r-1][dt-1]
			if !pr.Has {
				*pr = sched.PredRange{Has: true, Lo: d[r], Hi: d[r]}
				continue
			}
			if d[r] < pr.Lo {
				pr.Lo = d[r]
			}
			if d[r] > pr.Hi {
				pr.Hi = d[r]
			}
		}
	}
	return pred
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
	// Fused records whether §5 loop fusion was applied at lowering.
	Fused bool
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
	// Merged marks a nest the re-merge pre-pass rebuilt from sibling
	// nests the scheduler had split.
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
//	  step 4: nest I, J -> doall
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
			sb.WriteString(" [re-merged sibling nests]")
		}
		sb.WriteByte('\n')
		for _, r := range d.Rejections {
			fmt.Fprintf(&sb, "          %s rejected: %s\n", r.Backend, r.Reason)
		}
	}
	return sb.String()
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

// MaxCollapse bounds the number of dimensions folded into one DOALL
// step, matching the executors' fixed-size per-dimension buffers.
const MaxCollapse = 8

// Options select the plan variant to lower.
type Options struct {
	// Fuse applies §5 loop fusion to the flowchart before lowering.
	Fuse bool
	// Hyperplane runs the scheduler selection cascade: each nest tries
	// DOALL first, then the automatic §4 wavefront restructuring, and
	// falls back to a sequential DO nest when both decline. It also
	// enables the re-merge pre-pass rejoining sibling nests whose
	// unioned dependence vectors admit a π.
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
	p := &Program{Module: m.Name, Fused: opts.Fuse, Virtual: sched.Virtual}
	lw := &lowerer{p: p, m: m, opts: opts, slot: make(map[*types.Subrange]int, len(m.Subranges))}
	for i, info := range m.Subranges {
		lw.slot[info.Type] = i
		p.Bounds = append(p.Bounds, Bound{Subrange: info.Type, Lo: info.Type.Lo, Hi: info.Type.Hi})
	}
	fc := sched.Flowchart
	if opts.Fuse {
		fc = core.Fuse(fc)
	}
	if opts.Hyperplane {
		fc = lw.remerge(fc)
	}
	lw.lower(fc)
	return p
}

// HasWavefront reports whether the plan contains a §4 wavefront step.
func (p *Program) HasWavefront() bool {
	for i := range p.Steps {
		if p.Steps[i].Op == OpWavefront {
			return true
		}
	}
	return false
}

// PointWise reports, per kernel, why the plan reaches it only one point
// at a time, or "" when its enclosing loop hands it contiguous spans (a
// leaf DOALL or DO, or a wavefront row).
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
	st := &p.Steps[parent]
	if st.Leaf || st.Op == OpWavefront {
		return ""
	}
	for i := parent + 1; i < st.End; i++ {
		if p.Steps[i].Op != OpEq {
			return fmt.Sprintf("%s body holds a nested loop", st.Op)
		}
	}
	return fmt.Sprintf("%d-equation sequential body", st.End-parent-1)
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

// remerge is the cascade pre-pass: when a sequential loop's body was
// split by the scheduler into sibling DO nests over one common subrange
// (deleting the cross edges of a strongly connected component splits it
// into per-equation loops), re-merge the siblings with the §5 fusion
// rules and keep the merged nest exactly when the unioned dependence
// vectors of the rejoined body admit a time vector — so the base
// schedule of a program like mutual.ps wavefronts the way its fused
// variant does.
func (lw *lowerer) remerge(fc core.Flowchart) core.Flowchart {
	out := make(core.Flowchart, 0, len(fc))
	for _, d := range fc {
		l, ok := d.(*core.LoopDesc)
		if !ok {
			out = append(out, d)
			continue
		}
		nl := &core.LoopDesc{
			Subrange: l.Subrange,
			Parallel: l.Parallel,
			Body:     lw.remerge(l.Body),
			Deleted:  l.Deleted,
		}
		if cand, ok := lw.tryRemerge(nl); ok {
			if lw.merged == nil {
				lw.merged = make(map[*core.LoopDesc]bool)
			}
			lw.merged[cand] = true
			nl = cand
		}
		out = append(out, nl)
	}
	return out
}

// tryRemerge rebuilds l with its sibling body nests fused, keeping the
// result only when the merged nest admits a π.
func (lw *lowerer) tryRemerge(l *core.LoopDesc) (*core.LoopDesc, bool) {
	if l.Parallel || len(l.Body) < 2 {
		return nil, false
	}
	var sub *types.Subrange
	for _, d := range l.Body {
		inner, ok := d.(*core.LoopDesc)
		if !ok || inner.Parallel {
			return nil, false
		}
		if sub == nil {
			sub = inner.Subrange
		} else if inner.Subrange != sub {
			return nil, false
		}
	}
	fused := core.Fuse(l.Body)
	if len(fused) != 1 {
		return nil, false
	}
	cand := &core.LoopDesc{Subrange: l.Subrange, Body: fused, Deleted: l.Deleted}
	if _, _, err := lw.wavefrontAnalysis(cand); err != nil {
		return nil, false
	}
	return cand, true
}

// lowerCascade lowers l through the backend selection cascade — DOALL,
// then wavefront, then a sequential DO nest — and records the Decision.
// Decisions are kept in step order: a sequential nest's own precedes
// those of the loops nested in it.
func (lw *lowerer) lowerCascade(l *core.LoopDesc) {
	step := len(lw.p.Steps)
	at := len(lw.p.Cascade)
	lw.p.Cascade = append(lw.p.Cascade, Decision{Step: step})
	// lowerLoop appends the nested loops' decisions, which may move
	// Cascade: no pointer into it is used after that call.
	if l.Parallel {
		lw.lowerLoop(l)
		lw.p.Cascade[at].Nest, lw.p.Cascade[at].Choice = lw.p.dimNames(&lw.p.Steps[step]), "doall"
		return
	}
	d := &lw.p.Cascade[at]
	d.Nest, d.Merged = l.Subrange.Name, lw.merged[l]
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

// markLeaf sets Leaf on the loop step at self once its body is lowered:
// a DOALL whose body is equation steps only, or a DO whose body is
// exactly one equation step.
func (lw *lowerer) markLeaf(self int) {
	st := &lw.p.Steps[self]
	n := st.End - self - 1
	if n == 0 || (st.Op == OpDo && n != 1) {
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
// scheduler put into one nest, or a §5-fused group) — and runs the
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
// order — executors run every kernel at each plane point, so in-plane
// zero-distance dependences between group equations stay satisfied. The
// step's Dims are the frame slots of the group's dimensions in analysis
// order (the order π, T and T⁻¹ are expressed in). Virtual windows
// keyed on the transformed subranges are dropped from the plan: the
// wavefront sweep interleaves original-coordinate planes, so a window
// sized for ascending-order execution would be overwritten while still
// live.
func (lw *lowerer) emitWavefront(an *hyperplane.Analysis, eqs []*sem.Equation) {
	n := len(an.Dims)
	hy := &Hyper{Pi: an.Pi, Window: an.Window}
	for _, d := range an.TransformedDeps {
		td := make([]int64, len(d.Vec))
		copy(td, d.Vec)
		hy.TDeps = append(hy.TDeps, td)
	}
	hy.Pred = predRanges(hy.TDeps, n, an.Window)
	for r := 0; r < n; r++ {
		hy.T = append(hy.T, an.T.Row(r))
		hy.TInv = append(hy.TInv, an.TInv.Row(r))
		b := -1
		if r > 0 {
			b = basisIndex(hy.T[r])
		}
		hy.Basis = append(hy.Basis, b)
	}
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
	if p.Fused {
		variant = ", fused"
	}
	if p.HasWavefront() {
		variant += ", auto-hyperplane"
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
		case OpDo, OpDoAll:
			fmt.Fprintf(&sb, "%s %s", st.Op, p.dimNames(&st))
			if len(st.Dims) > 1 {
				fmt.Fprintf(&sb, " collapse(%d)", len(st.Dims))
			}
			if st.Leaf {
				sb.WriteString(" leaf")
			}
			sb.WriteByte('\n')
			depth = append(depth, st.End)
		case OpWavefront:
			names := make([]string, len(st.Dims))
			for j, s := range st.Dims {
				names[j] = p.Bounds[s].Subrange.Name
			}
			tdeps := make([]string, len(st.Hyper.TDeps))
			for j, d := range st.Hyper.TDeps {
				tdeps[j] = vecString(d)
			}
			fmt.Fprintf(&sb, "wavefront %s  t = %s, pi = %s, window %d, tdeps %s",
				strings.Join(names, ", "), st.Hyper.piString(names), vecString(st.Hyper.Pi), st.Hyper.Window,
				strings.Join(tdeps, ""))
			if nk := st.End - i - 1; nk > 1 {
				// A multi-equation group: the indented body lists the
				// kernels sharing this π, executed in order per point.
				fmt.Fprintf(&sb, ", kernels %d", nk)
			}
			sb.WriteByte('\n')
			depth = append(depth, st.End)
		}
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
