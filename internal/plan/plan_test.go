package plan_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/psrc"
	"repro/internal/sched"
	"repro/internal/sem"
)

func lower(t *testing.T, src, modName string, opts plan.Options) *plan.Program {
	t.Helper()
	prog, err := parser.ParseProgram("t.ps", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	m := cp.Module(modName)
	if modName == "" {
		m = cp.Modules[len(cp.Modules)-1]
	}
	sched, err := core.Build(depgraph.Build(m))
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	return plan.Lower(m, sched, opts)
}

// TestLowerRelaxation checks the Figure 6 schedule lowers to collapsed
// DOALL planes inside a sequential K loop, with resolved slots.
func TestLowerRelaxation(t *testing.T) {
	p := lower(t, psrc.Relaxation, "Relaxation", plan.Options{})
	got := p.Compact()
	want := "DOALL I×J (eq.1); DO K (DOALL I×J (eq.3)); DOALL I×J (eq.2)"
	if got != want {
		t.Errorf("Compact = %q, want %q", got, want)
	}
	// I, J, K plus the subrange synthesized for A's anonymous 1..maxK
	// dimension.
	if p.NSlots() != 4 {
		t.Errorf("NSlots = %d, want 4", p.NSlots())
	}
	// The DOALL plane inside DO K must be a collapsed 2-dim leaf.
	var inner *plan.Step
	for i := range p.Steps {
		st := &p.Steps[i]
		if st.Op == plan.OpDoAll && len(st.Dims) == 2 {
			inner = st
			break
		}
	}
	if inner == nil {
		t.Fatal("no collapsed 2-dim DOALL step")
	}
	if !inner.Leaf {
		t.Error("collapsed DOALL plane not marked leaf")
	}
	// Slots must be distinct and in range.
	seen := map[int]bool{}
	for _, s := range inner.Dims {
		if s < 0 || s >= p.NSlots() || seen[s] {
			t.Errorf("bad slot %d in %v", s, inner.Dims)
		}
		seen[s] = true
	}
	// Virtual dimension report is carried through.
	if len(p.Virtual) == 0 {
		t.Error("plan lost the virtual-dimension report")
	}
}

// TestLowerGaussSeidel checks the Figure 7 recurrence lowers to three
// nested sequential DO loops (its in-plane dependences forbid DOALLs).
func TestLowerGaussSeidel(t *testing.T) {
	p := lower(t, psrc.RelaxationGS, "Relaxation", plan.Options{})
	if got, want := p.Compact(), "DO K (DO I (DO J (eq.3)))"; !strings.Contains(got, want) {
		t.Errorf("Compact = %q, want substring %q", got, want)
	}
}

// TestLeafDo pins which sequential DOs executors may hand to a kernel as
// one span: exactly those whose body is a single equation step. A DO
// around a nested loop (DO, DOALL) or around two equations stays
// point-wise, and PointWise says why for every kernel it reaches.
func TestLeafDo(t *testing.T) {
	for _, tc := range []struct {
		name, src, module string
		leaf              map[string]bool // DO dimension -> Leaf
		pointWise         map[string]string
	}{
		{"GaussSeidel", psrc.RelaxationGS, "Relaxation",
			map[string]bool{"K": false, "I": false, "J": true},
			map[string]string{"eq.1": "", "eq.2": "", "eq.3": ""}},
		{"Relaxation", psrc.Relaxation, "Relaxation",
			map[string]bool{"K": false},
			map[string]string{"eq.1": "", "eq.2": "", "eq.3": ""}},
		{"CoupledGrid", psrc.CoupledGrid, "CoupledGrid",
			map[string]bool{"I": false, "J": false},
			map[string]string{"eq.1": "2-equation sequential body", "eq.2": "2-equation sequential body", "eq.3": ""}},
		{"Prefix", psrc.Prefix, "Prefix",
			map[string]bool{"I2": true},
			map[string]string{"eq.1": "no enclosing loop", "eq.2": "", "eq.3": ""}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := lower(t, tc.src, tc.module, plan.Options{})
			seen := map[string]bool{}
			for i := range p.Steps {
				st := &p.Steps[i]
				if st.Op != plan.OpDo {
					continue
				}
				dim := p.Bounds[st.Dims[0]].Subrange.Name
				seen[dim] = true
				if want, ok := tc.leaf[dim]; !ok || st.Leaf != want {
					t.Errorf("do %s: Leaf = %v, want %v (listed: %v)", dim, st.Leaf, want, ok)
				}
				if st.Leaf && (st.End != i+2 || p.Steps[i+1].Op != plan.OpEq) {
					t.Errorf("do %s is leaf but its body is not one equation step", dim)
				}
			}
			for dim := range tc.leaf {
				if !seen[dim] {
					t.Errorf("no do %s in %s", dim, p.Compact())
				}
			}
			for k, why := range p.PointWise() {
				if want := tc.pointWise[p.Eqs[k].Label]; why != want {
					t.Errorf("%s: PointWise = %q, want %q", p.Eqs[k].Label, why, want)
				}
			}
		})
	}
}

// TestLowerFused checks fusion is applied at lowering time: the four
// element-wise chain loops merge into one collapsed DOALL.
func TestLowerFused(t *testing.T) {
	const src = `
Chain: module (Xs: array[I] of real; N: int):
    [As: array [I] of real; Bs: array [I] of real];
type I = 0 .. N;
define
    As[I] = Xs[I] * 2.0 + 1.0;
    Bs[I] = As[I] * As[I];
end Chain;
`
	base := lower(t, src, "Chain", plan.Options{})
	fused := lower(t, src, "Chain", plan.Options{Fuse: true})
	if !fused.Fused {
		t.Error("fused plan not marked Fused")
	}
	countLoops := func(p *plan.Program) int {
		n := 0
		for _, st := range p.Steps {
			if st.Op != plan.OpEq {
				n++
			}
		}
		return n
	}
	if b, f := countLoops(base), countLoops(fused); f >= b {
		t.Errorf("fusion did not reduce loop count: base %d, fused %d", b, f)
	}
	if got, want := fused.Compact(), "DOALL I (eq.1; eq.2)"; got != want {
		t.Errorf("fused Compact = %q, want %q", got, want)
	}
}

// TestLowerWavefront checks the automatic §4 restructuring at the plan
// level: the Gauss–Seidel DO nest becomes a wavefront step carrying the
// paper's time vector, transformation and window, the virtual window on
// the transformed subrange is dropped (wavefront order interleaves K
// planes, so a 2-plane window would be clobbered while live), and
// T·T⁻¹ = I.
func TestLowerWavefront(t *testing.T) {
	base := lower(t, psrc.RelaxationGS, "Relaxation", plan.Options{})
	p := lower(t, psrc.RelaxationGS, "Relaxation", plan.Options{Hyperplane: true})
	if !p.HasWavefront() {
		t.Fatalf("no wavefront step in %s", p.Compact())
	}
	var wf *plan.Step
	for i := range p.Steps {
		if p.Steps[i].Op == plan.OpWavefront {
			wf = &p.Steps[i]
			break
		}
	}
	hy := wf.Hyper
	if got, want := fmt.Sprintf("%v", hy.Pi), "[2 1 1]"; got != want {
		t.Errorf("Pi = %s, want %s", got, want)
	}
	if hy.Window != 3 {
		t.Errorf("Window = %d, want 3", hy.Window)
	}
	if wf.End != indexOf(t, p, wf)+2 {
		t.Errorf("wavefront body is not the single recurrence step (End %d)", wf.End)
	}
	// T·T⁻¹ = I.
	n := len(hy.Pi)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s int64
			for k := 0; k < n; k++ {
				s += hy.T[i][k] * hy.TInv[k][j]
			}
			want := int64(0)
			if i == j {
				want = 1
			}
			if s != want {
				t.Fatalf("T·TInv[%d][%d] = %d, want %d", i, j, s, want)
			}
		}
	}
	// Row 1 of the paper's T is e_0 (I' = K): Basis must record it.
	if hy.Basis[0] != -1 || hy.Basis[1] != 0 {
		t.Errorf("Basis = %v", hy.Basis)
	}
	// Window drop: the base plan reports A's K window, the wavefront
	// variant must not.
	if len(base.Virtual) == 0 {
		t.Fatal("base plan lost the virtual report")
	}
	if len(p.Virtual) != 0 {
		t.Errorf("wavefront plan still reports virtual windows on transformed dims: %v", p.Virtual)
	}
	if got, want := p.Compact(), "DOALL I×J (eq.1); WAVEFRONT[pi=(2,1,1)] K×I×J (eq.3); DOALL I×J (eq.2)"; got != want {
		t.Errorf("Compact = %q, want %q", got, want)
	}
}

// TestWavefrontSchedMetadata checks the doacross schedule metadata baked
// onto the wavefront step: the transformed dependence vectors T·d (the
// paper's (1,0,0),(1,0,1),(1,1,0),(1,1,-1),(2,1,0) for Gauss–Seidel) and
// the predecessor-offset table folded per plane coordinate and plane
// distance.
func TestWavefrontSchedMetadata(t *testing.T) {
	p := lower(t, psrc.RelaxationGS, "Relaxation", plan.Options{Hyperplane: true})
	var hy *plan.Hyper
	for i := range p.Steps {
		if p.Steps[i].Op == plan.OpWavefront {
			hy = p.Steps[i].Hyper
			break
		}
	}
	if hy == nil {
		t.Fatal("no wavefront step")
	}
	if len(hy.TDeps) != 5 {
		t.Fatalf("TDeps = %v, want 5 vectors", hy.TDeps)
	}
	for _, d := range hy.TDeps {
		if d[0] < 1 {
			t.Errorf("transformed dependence %v has first component < 1", d)
		}
		if int(d[0]) > hy.Window-1 {
			t.Errorf("transformed dependence %v exceeds window %d", d, hy.Window)
		}
	}
	// Plane coordinates are (K, I); window 3 gives offsets for dt 1 and 2.
	if len(hy.Pred) != 2 || len(hy.Pred[0]) != 2 {
		t.Fatalf("Pred shape = %dx%d, want 2x2", len(hy.Pred), len(hy.Pred[0]))
	}
	// dt=1 deps are (1,0,0),(1,0,1),(1,1,0),(1,1,-1): K shifts in [0,1],
	// I shifts in [-1,1]. dt=2 dep is (2,1,0): K shift 1, I shift 0.
	check := func(pr sched.PredRange, lo, hi int64, what string) {
		if !pr.Has || pr.Lo != lo || pr.Hi != hi {
			t.Errorf("%s = %+v, want [%d,%d]", what, pr, lo, hi)
		}
	}
	check(hy.Pred[0][0], 0, 1, "Pred[K][dt=1]")
	check(hy.Pred[0][1], 1, 1, "Pred[K][dt=2]")
	check(hy.Pred[1][0], -1, 1, "Pred[I][dt=1]")
	check(hy.Pred[1][1], 0, 0, "Pred[I][dt=2]")
	// The listing surfaces the schedule metadata for the golden files.
	if !strings.Contains(p.String(), "tdeps (2,1,0)(1,0,0)(1,0,1)(1,1,0)(1,1,-1)") {
		t.Errorf("plan listing missing tdeps:\n%s", p.String())
	}
}

func indexOf(t *testing.T, p *plan.Program, st *plan.Step) int {
	t.Helper()
	for i := range p.Steps {
		if &p.Steps[i] == st {
			return i
		}
	}
	t.Fatal("step not in plan")
	return -1
}

// TestLowerWavefrontIneligible checks the pass leaves untransformable
// shapes alone: a 1-D recurrence (no plane) and an already-parallel
// nest lower identically with the option on.
func TestLowerWavefrontIneligible(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"Prefix", psrc.Prefix},
		{"Relaxation", psrc.Relaxation},
		{"Heat1D", psrc.Heat1D},
	} {
		base := lower(t, tc.src, "", plan.Options{})
		auto := lower(t, tc.src, "", plan.Options{Hyperplane: true})
		if auto.HasWavefront() {
			t.Errorf("%s: ineligible program transformed: %s", tc.name, auto.Compact())
		}
		if got, want := auto.Compact(), base.Compact(); got != want {
			t.Errorf("%s: auto plan %q differs from base %q", tc.name, got, want)
		}
	}
}

// TestStepRanges verifies the flat encoding invariants: loop bodies are
// contiguous, properly nested, and End always moves forward.
func TestStepRanges(t *testing.T) {
	for _, src := range []string{psrc.Relaxation, psrc.RelaxationGS, psrc.Prefix, psrc.Wavefront2D} {
		p := lower(t, src, "", plan.Options{})
		for i, st := range p.Steps {
			if st.Op == plan.OpEq {
				if st.Eq < 0 || st.Eq >= len(p.Eqs) {
					t.Errorf("step %d: kernel index %d out of range", i, st.Eq)
				}
				continue
			}
			if st.End <= i || st.End > len(p.Steps) {
				t.Errorf("step %d: End %d out of range", i, st.End)
			}
			if len(st.Dims) == 0 {
				t.Errorf("step %d: loop with no dims", i)
			}
		}
	}
}

// TestLowerMultiEquationWavefront checks the multi-equation tentpole at
// the plan level: a strongly connected two-recurrence component lowers
// to a single OpWavefront step whose body is one OpEq per equation, the
// Hyper block carries the union of both equations' transformed
// dependence vectors, and the predecessor-tile table folds the union.
func TestLowerMultiEquationWavefront(t *testing.T) {
	p := lower(t, psrc.CoupledGrid, "CoupledGrid", plan.Options{Hyperplane: true})
	var wf *plan.Step
	wfIdx := -1
	for i := range p.Steps {
		if p.Steps[i].Op == plan.OpWavefront {
			if wf != nil {
				t.Fatal("more than one wavefront step")
			}
			wf = &p.Steps[i]
			wfIdx = i
		}
	}
	if wf == nil {
		t.Fatalf("no wavefront step in plan:\n%s", p)
	}
	body := p.Steps[wfIdx+1 : wf.End]
	if len(body) != 2 {
		t.Fatalf("wavefront body has %d steps, want 2:\n%s", len(body), p)
	}
	for _, st := range body {
		if st.Op != plan.OpEq {
			t.Fatalf("wavefront body step is %s, want eq", st.Op)
		}
	}
	hy := wf.Hyper
	if want := []int64{1, 1}; hy.Pi[0] != want[0] || hy.Pi[1] != want[1] {
		t.Errorf("pi = %v, want %v", hy.Pi, want)
	}
	// Union of both recurrences: two (1,0) and two (0,1), transformed by
	// T = [[1,1],[1,0]] to (1,1) and (1,0).
	if len(hy.TDeps) != 4 {
		t.Errorf("TDeps carries %d vectors, want the 4-vector union", len(hy.TDeps))
	}
	for _, d := range hy.TDeps {
		if d[0] < 1 {
			t.Errorf("transformed dependence %v has non-positive time component", d)
		}
	}
	if hy.Window != 2 {
		t.Errorf("window = %d, want 2", hy.Window)
	}
	// The predecessor table must span the union: on the one plane
	// coordinate, offsets from both (1,*) transformed vectors.
	if len(hy.Pred) != 1 || len(hy.Pred[0]) != 1 || !hy.Pred[0][0].Has {
		t.Fatalf("Pred = %v, want one coordinate with a window-1 range", hy.Pred)
	}
	if pr := hy.Pred[0][0]; pr.Lo != 0 || pr.Hi != 1 {
		t.Errorf("Pred range = [%d,%d], want [0,1] (union of both equations' shifts)", pr.Lo, pr.Hi)
	}
	// The listing and the compact form surface the group.
	if s := p.String(); !strings.Contains(s, "kernels 2") {
		t.Errorf("listing missing kernel count:\n%s", s)
	}
	if c := p.Compact(); !strings.Contains(c, "WAVEFRONT[pi=(1,1)]") || !strings.Contains(c, ";") {
		t.Errorf("compact form missing multi-kernel wavefront: %q", c)
	}
}

// TestLowerMultiEquationIneligible pins the negative shapes: a body
// with a non-constant-offset group reference keeps its DO nest, and a
// two-loop body (a component the scheduler split) is not a group.
func TestLowerMultiEquationIneligible(t *testing.T) {
	const reflectSrc = `
Reflect: module (Seed: array[I,J] of real; N: int):
    [OutX: array [I,J] of real; OutY: array [I,J] of real];
type
    I,J = 1 .. N;
var
    X: array [1 .. N, 1 .. N] of real;
    Y: array [1 .. N, 1 .. N] of real;
define
    X[I,J] = if (I = 1) or (J = 1) then Seed[I,J]
             else (X[I-1,J] + Y[I,J-1]) / 2.0;
    Y[I,J] = if (I = 1) or (J = 1) then 0.5 * Seed[I,J]
             else (Y[I-1,J] + X[I,J-1] + X[I-1, N+1-J]) / 3.0;
    OutX[I,J] = X[I,J];
    OutY[I,J] = Y[I,J];
end Reflect;
`
	p := lower(t, reflectSrc, "Reflect", plan.Options{Hyperplane: true})
	if p.HasWavefront() {
		t.Errorf("non-constant-offset group was transformed:\n%s", p)
	}
	// Wavefront-ineligible is no longer sequential: the cascade falls
	// through to the PS-DSWP pipeline backend, which decouples the
	// recurrence nest from its downstream DOALL consumers.
	if !p.HasPipeline() {
		t.Errorf("wavefront-ineligible nest with DOALL consumers did not pipeline:\n%s", p)
	}
	if got, want := p.Compact(), "PIPELINE[I] (DO J (eq.2; eq.1) | DOALL J (eq.3) | DOALL J (eq.4))"; got != want {
		t.Errorf("compact pipeline plan = %q, want %q", got, want)
	}
	// With the cascade disabled the nest keeps its sequential DO chain.
	base := lower(t, reflectSrc, "Reflect", plan.Options{})
	if base.HasWavefront() || base.HasPipeline() {
		t.Errorf("base plan restructured:\n%s", base)
	}
	if got, want := base.Compact(), "DO I (DO J (eq.2; eq.1)); DOALL I×J (eq.3); DOALL I×J (eq.4)"; got != want {
		t.Errorf("compact base plan = %q, want %q", got, want)
	}
}
