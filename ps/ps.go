// Package ps is the public API of the PS dataflow compiler reproduction
// (Gokhale, "Exploiting Loop Level Parallelism in Nonprocedural Dataflow
// Programs", ICPP 1987). It wires the full pipeline together:
//
//	source → parse → check → dependency graph → schedule (DO/DOALL
//	flowchart + virtual dimensions) → lower to the loop-plan IR (§5
//	fusion; automatic §4 hyperplane restructuring of eligible sequential
//	nests into wavefront steps) → {execute in parallel | generate C |
//	hyperplane-transform}
//
// Every program compiles through an Engine: a long-lived, concurrency-safe
// runtime with one shared worker pool, a compiled-program cache keyed by
// source hash, and engine-level default options. Programs prepare
// modules into Runners, whose Run accepts a context for cancellation
// and returns per-run statistics:
//
//	eng := ps.NewEngine(ps.EngineWorkers(8))
//	defer eng.Close()
//	prog, err := eng.Compile("relax.ps", source)
//	m := prog.Module("Relaxation")
//	fmt.Println(m.Flowchart())           // Figure 6-style schedule
//	run, err := prog.Prepare("Relaxation")
//	out, stats, err := run.Run(ctx, []any{grid, 256, 64})
//	out, stats, err = run.RunNamed(ctx,
//	    map[string]any{"InitialA": grid, "M": 256, "maxK": 64})
//
// Failures at every phase are *ps.Error values carrying the phase
// (parse, check, schedule, run), the module, the equation label, and —
// for front-end diagnostics — the source position.
//
// The compiler picks each nest's loop form itself, as the paper's does:
// parallel runs execute the cascade plan, where §5 fusion merges nests
// whose merge yields a parallel step and the §4 hyperplane restructuring
// turns every sequential recurrence nest with constant dependence
// vectors and a valid time vector into a wavefront sweep; Sequential
// runs execute the schedule as emitted, the parity reference. Both are
// inspectable through Runner.Explain and Module.Plan. The §4 rewrite
// also remains available as an explicit source-to-source transformation:
//
//	hp, err := m.Hyperplane("eq.3")      // analysis: π, T, T⁻¹, window
//	prog2, err := eng.Compile("t.ps", hp.TransformedSource)
package ps

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/cgen"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/hyperplane"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/sem"
	"repro/internal/types"
	"repro/internal/value"
)

// Array is a runtime PS array value (see NewRealArray and friends).
type Array = value.Array

// Axis describes one array dimension: inclusive bounds and an optional
// window size for virtual allocation.
type Axis = value.Axis

// Program is a compiled PS compilation unit, ready to inspect, prepare
// and run. Programs are immutable after compilation and safe for
// concurrent use from many goroutines.
type Program struct {
	checked *sem.Program
	ip      *interp.Program
	mods    map[string]*Module
	// eng is the engine this program was compiled through; it supplies
	// its pools and default options to prepared Runners.
	eng *Engine
}

// Module exposes one module's analyses.
type Module struct {
	prog  *Program
	sem   *sem.Module
	graph *depgraph.Graph
	sched *core.Schedule
	// pl is the base lowered loop plan — the artifact both the
	// interpreter and the C generator execute.
	pl *plan.Program
}

// compileProgram runs the front half of the pipeline, attributing
// failures to their phase.
func compileProgram(eng *Engine, name, source string) (*Program, error) {
	parsed, err := parser.ParseProgram(name, source)
	if err != nil {
		return nil, compileError(PhaseParse, name, err)
	}
	checked, err := sem.CheckNamed(name, parsed)
	if err != nil {
		return nil, compileError(PhaseCheck, name, err)
	}
	ip, err := interp.Compile(checked)
	if err != nil {
		return nil, compileError(PhaseSchedule, name, err)
	}
	p := &Program{checked: checked, ip: ip, mods: make(map[string]*Module), eng: eng}
	for _, m := range checked.Modules {
		p.mods[m.Name] = &Module{
			prog:  p,
			sem:   m,
			graph: ip.Scheds[m].Graph,
			sched: ip.Scheds[m],
			pl:    ip.Plan(m.Name, plan.Options{Hyperplane: true}),
		}
	}
	return p, nil
}

// Module returns a compiled module by name, or nil.
func (p *Program) Module(name string) *Module {
	if m := p.mods[name]; m != nil {
		return m
	}
	// Case-insensitive fallback, PS names being Pascal-like.
	sm := p.checked.Module(name)
	if sm == nil {
		return nil
	}
	return p.mods[sm.Name]
}

// Modules lists the program's module names in declaration order.
func (p *Program) Modules() []string {
	out := make([]string, len(p.checked.Modules))
	for i, m := range p.checked.Modules {
		out[i] = m.Name
	}
	return out
}

// RunOption configures execution.
type RunOption func(*interp.Options)

// Workers sets the worker count of DOALL and wavefront steps: the
// Runner runs on the engine's pool of that width, which the first
// Prepare at that width starts. n <= 0, or no Workers option, is the
// engine's default pool.
func Workers(n int) RunOption { return func(o *interp.Options) { o.Workers = n } }

// Sequential forces serial execution of every loop, DOALLs included.
func Sequential() RunOption { return func(o *interp.Options) { o.Sequential = true } }

// Strict enables single-assignment and undefined-read checking.
func Strict() RunOption { return func(o *interp.Options) { o.Strict = true } }

// WithProfileLabels tags worker execution with runtime/pprof labels
// (ps_module, ps_step, ps_eqs), so CPU profiles taken during runs
// attribute samples to the module, schedule step and equations
// executing when each sample hit. Costs one label-set install per
// parallel dispatch — negligible next to any profiled workload.
func WithProfileLabels() RunOption { return func(o *interp.Options) { o.ProfileLabels = true } }

// Name returns the module's declared name.
func (m *Module) Name() string { return m.sem.Name }

// Source returns the module pretty-printed as PS text.
func (m *Module) Source() string { return ast.ModuleString(m.sem.AST) }

// Flowchart returns the schedule in the paper's indented Figure 6 form.
func (m *Module) Flowchart() string { return m.sched.Flowchart.String() }

// FlowchartCompact returns the schedule on one line, e.g.
// "DO K (DOALL I (DOALL J (eq.3)))".
func (m *Module) FlowchartCompact() string { return m.sched.Flowchart.Compact() }

// PlanOptions select a lowered plan for inspection and C generation.
type PlanOptions struct {
	// Sequential selects the plan Sequential() runs: the schedule as
	// emitted. The zero value selects the cascade plan every parallel run
	// executes — §5 fusion where it yields a parallel step, then DOALL →
	// wavefront → sequential per nest.
	Sequential bool
}

// planFor resolves a plan variant.
func (m *Module) planFor(o PlanOptions) *plan.Program {
	return m.prog.ip.Plan(m.sem.Name, plan.Options{Hyperplane: !o.Sequential})
}

// Plan returns the lowered loop program — the flat, slot-resolved IR
// both the interpreter and the C generator consume — rendered as an
// indented listing (`psrun -explain` prints the same artifact). Loops
// are resolved to frame slots, directly nested DOALLs are collapsed,
// §4-eligible sequential nests appear as wavefront steps annotated with
// their time vector π and window, and every equation carries its kernel
// index. It shows the variant parallel runs execute by default; use
// PlanWith to inspect others.
func (m *Module) Plan() string { return m.pl.String() }

// PlanWith returns the listing of a specific plan variant.
func (m *Module) PlanWith(o PlanOptions) string { return m.planFor(o).String() }

// PlanCompact returns the lowered loop program on one line, e.g.
// "DOALL I×J (eq.1); WAVEFRONT[pi=(2,1,1)] K×I×J (eq.3); DOALL I×J (eq.2)".
func (m *Module) PlanCompact() string { return m.pl.Compact() }

// PlanCompactWith returns the one-line form of a specific plan variant.
func (m *Module) PlanCompactWith(o PlanOptions) string { return m.planFor(o).Compact() }

// GraphListing returns the dependency graph as text (Figure 3).
func (m *Module) GraphListing() string { return m.graph.Listing() }

// GraphDOT returns the dependency graph in Graphviz format.
func (m *Module) GraphDOT() string { return m.graph.DOT() }

// Components describes the MSCC decomposition and per-component
// flowcharts (Figure 5): one entry per component, "{nodes} => flowchart".
func (m *Module) Components() []string {
	out := make([]string, len(m.sched.Components))
	for i, c := range m.sched.Components {
		fc := c.Flowchart.Compact()
		if fc == "" {
			fc = "null"
		}
		out[i] = fmt.Sprintf("{%s} => %s", c.NodeNames(), fc)
	}
	return out
}

// VirtualDim reports one window-allocatable array dimension (§3.4).
type VirtualDim struct {
	Array    string
	Dim      int // 1-based dimension index
	Window   int
	Subrange string
}

// VirtualDims lists the virtual dimensions the scheduler found.
func (m *Module) VirtualDims() []VirtualDim {
	out := make([]VirtualDim, len(m.sched.Virtual))
	for i, v := range m.sched.Virtual {
		out[i] = VirtualDim{
			Array:    v.Sym.Name,
			Dim:      v.Dim + 1,
			Window:   v.Window,
			Subrange: v.Subrange.Name,
		}
	}
	return out
}

// CGenOptions configure C code generation.
type CGenOptions = cgen.Options

// GenerateC emits the module as a C translation unit with annotated
// DO/DOALL loops, the paper's output artifact. The generator consumes
// the same lowered plan parallel interpretation executes by default.
// A §4 wavefront nest is emitted as the interpreter runs it: its two
// outer skewed coordinates are cut into a grid of tiles for
// omp_get_max_threads() threads (one tile without OpenMP), the grid
// runs one anti-diagonal at a time with one OpenMP parallel loop over
// the diagonal's tiles, and each tile walks its box points in the
// original loop order, rows split or jammed as the interpreter's are.
// The modules it calls are in the same translation unit, ahead of it, as
// static functions. Use GenerateCWith to emit another variant.
func (m *Module) GenerateC(opts CGenOptions) (string, error) {
	return m.GenerateCWith(PlanOptions{}, opts)
}

// GenerateCWith emits C for a specific plan variant. The modules this
// one calls are emitted in the same translation unit, ahead of it, each
// from the same variant of its plan.
func (m *Module) GenerateCWith(o PlanOptions, opts CGenOptions) (string, error) {
	return cgen.Generate(m.sem, func(c *sem.Module) *plan.Program {
		return m.prog.ip.Plan(c.Name, plan.Options{Hyperplane: !o.Sequential})
	}, opts)
}

// Hyperplane is the result of the §4 analysis and transformation of one
// recurrence equation.
type Hyperplane struct {
	// TimeVector is the least integer π with π·d ≥ 1 for every
	// dependence d (the paper's a=2, b=c=1).
	TimeVector []int64
	// TimeEquation renders π as t(A[K,I,J]) = 2K + I + J.
	TimeEquation string
	// Inequalities are the strict dependence inequalities in coefficient
	// form ("a > 0", "a > c", ...).
	Inequalities []string
	// Dependences and TransformedDeps are the offset vectors before and
	// after the coordinate change.
	Dependences     []string
	TransformedDeps []string
	// T and TInv render the unimodular transformation and its inverse.
	T, TInv string
	// Window is the §3.4 window of the transformed array's first
	// dimension (3 for the paper's example).
	Window int
	// TransformedSource is the rewritten module as PS source; compile it
	// with Engine.Compile to schedule and run the wavefront version. Its
	// module name is the original name with an "H" suffix.
	TransformedSource string
	// TransformedModule is the rewritten module's name.
	TransformedModule string
}

// Hyperplane runs the §4 restructuring on the named recurrence equation
// (e.g. "eq.3").
func (m *Module) Hyperplane(eqLabel string) (*Hyperplane, error) {
	var eq *sem.Equation
	for _, e := range m.sem.Eqs {
		if e.Label == eqLabel {
			eq = e
			break
		}
	}
	if eq == nil {
		return nil, &Error{Phase: PhaseSchedule, Module: m.sem.Name, Equation: eqLabel,
			Err: fmt.Errorf("module has no equation %s", eqLabel)}
	}
	an, err := hyperplane.Analyze(m.sem, eq)
	if err != nil {
		return nil, err
	}
	res, err := hyperplane.Transform(an)
	if err != nil {
		return nil, err
	}
	h := &Hyperplane{
		TimeVector:        an.Pi,
		TimeEquation:      an.TimeEquation(),
		Inequalities:      an.Inequalities(),
		T:                 an.T.String(),
		TInv:              an.TInv.String(),
		Window:            an.Window,
		TransformedSource: res.Source,
		TransformedModule: res.Module.Name.Name,
	}
	for _, d := range an.Deps {
		h.Dependences = append(h.Dependences, d.String())
	}
	for _, d := range an.TransformedDeps {
		h.TransformedDeps = append(h.TransformedDeps, d.String())
	}
	return h, nil
}

// NewRealArray allocates a real-valued array with the given axes.
func NewRealArray(axes ...Axis) *Array {
	return value.NewArray(types.RealKind, axes)
}

// NewIntArray allocates an integer-valued array with the given axes.
func NewIntArray(axes ...Axis) *Array {
	return value.NewArray(types.IntKind, axes)
}

// NewBoolArray allocates a boolean array with the given axes.
func NewBoolArray(axes ...Axis) *Array {
	return value.NewArray(types.BoolKind, axes)
}
