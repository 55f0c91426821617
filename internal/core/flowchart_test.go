package core_test

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/depgraph"
)

// TestFlowchartString pins the multi-line Figure 6/7 rendering: one
// descriptor per line, DOALL/DO keywords, four-space indentation per
// nesting level, and node lines for the scheduled data items.
func TestFlowchartString(t *testing.T) {
	_, sched := compile(t, repro.Source("gauss_seidel"))
	got := sched.Flowchart.String()
	for _, want := range []string{
		"DOALL I (\n    DOALL J (\n        eq.1\n    )\n)",
		"DO K (\n    DO I (\n        DO J (\n            eq.3\n        )\n    )\n)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("flowchart missing block:\n%s\n\nfull rendering:\n%s", want, got)
		}
	}
	// Every line of the compact form appears in the long form too.
	if !strings.Contains(got, "eq.2") {
		t.Errorf("flowchart missing eq.2:\n%s", got)
	}
}

// TestFlowchartLoops pins the outermost-first loop enumeration.
func TestFlowchartLoops(t *testing.T) {
	_, sched := compile(t, repro.Source("gauss_seidel"))
	loops := sched.Flowchart.Loops()
	var names []string
	var iterative int
	for _, l := range loops {
		names = append(names, l.Subrange.Name)
		if !l.Parallel {
			iterative++
		}
	}
	// Figure 7: DOALL I (DOALL J) ; DO K (DO I (DO J)) ; DOALL I (DOALL J)
	want := []string{"I", "J", "K", "I", "J", "I", "J"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("loop order %v, want %v", names, want)
	}
	if iterative != 3 {
		t.Errorf("%d iterative loops, want the K/I/J recurrence nest (3)", iterative)
	}
	// Iterative loops carry the deleted §3.3 step-4 edges that formed
	// them; parallel loops never do.
	for _, l := range loops {
		if l.Parallel != (len(l.Deleted) == 0) {
			t.Errorf("loop %s: parallel=%v with %d deleted edges", l.Subrange.Name, l.Parallel, len(l.Deleted))
		}
	}
}

// TestFusedEquationCount pins the loop body sizes fusion leaves: every
// equation alone in its loop before, both co-resident in one body after.
func TestFusedEquationCount(t *testing.T) {
	src := `
Two: module (Xs: array[I] of real; N: int): [Ys: array [I] of real; Zs: array [I] of real];
type I = 0 .. N;
define
    Ys[I] = Xs[I] * 2.0;
    Zs[I] = Ys[I] + 1.0;
end Two;
`
	_, sched := compile(t, src)
	bodySizes := func(fc core.Flowchart) []int {
		var sizes []int
		for _, l := range fc.Loops() {
			sizes = append(sizes, len(l.Body.Equations()))
		}
		return sizes
	}
	if got := bodySizes(sched.Flowchart); len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Errorf("unfused loop body sizes %v, want [1 1]", got)
	}
	if got := bodySizes(core.Fuse(sched.Flowchart)); len(got) != 1 || got[0] != 2 {
		t.Errorf("fused loop body sizes %v, want [2]", got)
	}
}

// TestVirtualFor pins the per-symbol filter over the §3.4 window list.
func TestVirtualFor(t *testing.T) {
	m, sched := compile(t, repro.Source("relaxation"))
	sym := m.Lookup("A")
	if sym == nil {
		t.Fatal("no symbol A")
	}
	vs := sched.VirtualFor(sym)
	if len(vs) != 1 || vs[0].Dim != 0 || vs[0].Window != 2 {
		t.Fatalf("VirtualFor(A) = %+v, want the K dimension with window 2", vs)
	}
	out := m.Lookup("newA")
	if out == nil {
		t.Fatal("no symbol newA")
	}
	if vs := sched.VirtualFor(out); len(vs) != 0 {
		t.Errorf("VirtualFor(newA) = %+v, want none", vs)
	}
}

// TestUnschedulableErrorMessage pins the diagnostic format.
func TestUnschedulableErrorMessage(t *testing.T) {
	err := &core.UnschedulableError{
		Module: "Bad",
		Nodes:  []string{"eq.1", "X"},
		Reason: "cyclic at equal positions",
	}
	got := err.Error()
	for _, want := range []string{"module Bad", "{eq.1, X}", "cyclic at equal positions"} {
		if !strings.Contains(got, want) {
			t.Errorf("error %q missing %q", got, want)
		}
	}
}

// TestFlowchartEquationsOrder pins execution-order equation listing
// against the compact rendering.
func TestFlowchartEquationsOrder(t *testing.T) {
	_, sched := compile(t, repro.Source("relaxation"))
	var names []string
	for _, n := range sched.Flowchart.Equations() {
		if n.Kind != depgraph.EquationNode {
			t.Fatalf("non-equation node %s in Equations()", n.Name)
		}
		names = append(names, n.Name)
	}
	if strings.Join(names, ",") != "eq.1,eq.3,eq.2" {
		t.Errorf("equation order %v, want eq.1,eq.3,eq.2 (Figure 6)", names)
	}
}
