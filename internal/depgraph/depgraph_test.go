package depgraph_test

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/depgraph"
	"repro/internal/parser"
	"repro/internal/sem"
)

func build(t *testing.T, src, module string) *depgraph.Graph {
	t.Helper()
	prog, err := parser.ParseProgram("test.ps", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return depgraph.Build(cp.Module(module))
}

// TestRelaxationGraphStructure verifies the Figure 3 dependency graph:
// node inventory and the full edge set with labels.
func TestRelaxationGraphStructure(t *testing.T) {
	g := build(t, repro.Source("relaxation"), "Relaxation")
	if len(g.Nodes) != 8 {
		t.Errorf("got %d nodes, want 8 (4 data + 1 result + 1 local is 6... params InitialA, M, maxK + newA + A + 3 equations)", len(g.Nodes))
	}

	edges := g.EdgeStrings()
	want := []string{
		// Data dependencies of the equations.
		"InitialA -[I,J]-> eq.1",
		"eq.1 -[1,I,J]-> A",
		"A -[maxK,I,J]-> eq.2",
		"eq.2 -[I,J]-> newA",
		"A -[K-1,I,J]-> eq.3",
		"A -[K-1,I,J-1]-> eq.3",
		"A -[K-1,I-1,J]-> eq.3",
		"A -[K-1,I,J+1]-> eq.3",
		"A -[K-1,I+1,J]-> eq.3",
		"eq.3 -[K,I,J]-> A",
		// Subrange bound dependencies (paper: M → InitialA, A, newA;
		// maxK → A).
		"M -(bound)-> InitialA",
		"M -(bound)-> A",
		"M -(bound)-> newA",
		"maxK -(bound)-> A",
	}
	joined := strings.Join(edges, "\n")
	for _, w := range want {
		if !strings.Contains(joined, w) {
			t.Errorf("missing edge %q\nhave:\n%s", w, joined)
		}
	}
}

// TestEdgeLabels verifies the Figure 2 label classification on the
// Jacobi references.
func TestEdgeLabels(t *testing.T) {
	g := build(t, repro.Source("relaxation"), "Relaxation")
	a := g.NodeFor("A")
	eq3 := g.NodeFor("e:eq.3")
	eq2 := g.NodeFor("e:eq.2")

	var sawUpper, sawOffsets, sawFwd bool
	for _, e := range a.Out {
		if e.To == eq2 {
			l, ok := e.LabelAt(0)
			if !ok || l.Kind != depgraph.SubUpperBound {
				t.Errorf("A[maxK] label kind %v, want N (upper bound)", l.Kind)
			}
			sawUpper = true
		}
		if e.To == eq3 {
			l0, _ := e.LabelAt(0)
			if l0.Kind != depgraph.SubOffsetBack || l0.Offset != 1 || l0.Var.Name != "K" {
				t.Errorf("K-dimension label %v (offset %d)", l0.Kind, l0.Offset)
			}
			sawOffsets = true
			l1, _ := e.LabelAt(1)
			if l1.Kind == depgraph.SubOffsetFwd {
				if l1.Offset != -1 {
					t.Errorf("I+1 offset %d, want -1", l1.Offset)
				}
				sawFwd = true
			}
		}
	}
	if !sawUpper || !sawOffsets || !sawFwd {
		t.Errorf("label coverage: upper=%v offsets=%v fwd=%v", sawUpper, sawOffsets, sawFwd)
	}
}

// TestLHSEdge verifies the equation→variable edge and its labels.
func TestLHSEdge(t *testing.T) {
	g := build(t, repro.Source("relaxation"), "Relaxation")
	eq1 := g.NodeFor("e:eq.1")
	var lhs *depgraph.Edge
	for _, e := range eq1.Out {
		if e.IsLHS {
			lhs = e
		}
	}
	if lhs == nil {
		t.Fatal("eq.1 has no LHS edge")
	}
	if lhs.To.Name != "A" {
		t.Errorf("LHS edge targets %s", lhs.To.Name)
	}
	l0, _ := lhs.LabelAt(0)
	if l0.Kind != depgraph.SubConst {
		t.Errorf("A[1] label kind %v, want const", l0.Kind)
	}
	l1, _ := lhs.LabelAt(1)
	if l1.Kind != depgraph.SubIdentity || l1.Var.Name != "I" {
		t.Errorf("implicit label %v var %v", l1.Kind, l1.Var)
	}
}

// TestScalarRefEdges verifies data edges from scalars used in
// expressions and subscripts (M in the boundary conditions, maxK in
// A[maxK]).
func TestScalarRefEdges(t *testing.T) {
	g := build(t, repro.Source("relaxation"), "Relaxation")
	joined := strings.Join(g.EdgeStrings(), "\n")
	if !strings.Contains(joined, "M --> eq.3") {
		t.Error("missing data edge M -> eq.3 (boundary conditions reference M)")
	}
	if !strings.Contains(joined, "maxK --> eq.2") {
		t.Error("missing data edge maxK -> eq.2 (subscript references maxK)")
	}
}

// TestDOTOutput sanity-checks the Graphviz export.
func TestDOTOutput(t *testing.T) {
	g := build(t, repro.Source("relaxation"), "Relaxation")
	dot := g.DOT()
	for _, w := range []string{
		"digraph \"Relaxation\"",
		"shape=box",     // equation nodes
		"shape=ellipse", // data nodes
		"style=dashed",  // bound edges
		"label=\"[K-1,I,J]\"",
	} {
		if !strings.Contains(dot, w) {
			t.Errorf("DOT output missing %q", w)
		}
	}
}

// TestWholeCallEdges verifies call-argument references.
func TestWholeCallEdges(t *testing.T) {
	g := build(t, repro.Source("pipeline"), "Pipeline")
	joined := strings.Join(g.EdgeStrings(), "\n")
	// Xs feeds the first call, Mid the second; Mid is produced by eq.1.
	for _, w := range []string{"Xs -", "Mid -", "-> Mid", "-> Zs"} {
		if !strings.Contains(joined, w) {
			t.Errorf("missing %q in pipeline edges:\n%s", w, joined)
		}
	}
}
