package ps_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro"
	"repro/ps"
)

// newEngine returns an engine closed when the test ends.
func newEngine(tb testing.TB) *ps.Engine {
	eng := ps.NewEngine()
	tb.Cleanup(eng.Close)
	return eng
}

// runOnce prepares module with opts and runs it once.
func runOnce(prog *ps.Program, module string, args []any, opts ...ps.RunOption) ([]any, error) {
	r, err := prog.Prepare(module, opts...)
	if err != nil {
		return nil, err
	}
	out, _, err := r.Run(context.Background(), args)
	return out, err
}

// TestPipelineEndToEnd exercises the public API: compile, inspect,
// execute, transform.
func TestPipelineEndToEnd(t *testing.T) {
	prog, err := newEngine(t).Compile("relax.ps", repro.Source("relaxation"))
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Module("Relaxation")
	if m == nil {
		t.Fatal("module lookup failed")
	}
	if m.Name() != "Relaxation" {
		t.Errorf("Name = %s", m.Name())
	}
	if got := m.FlowchartCompact(); !strings.Contains(got, "DO K (DOALL I (DOALL J (eq.3)))") {
		t.Errorf("flowchart %q", got)
	}
	if len(m.Components()) != 7 {
		t.Errorf("components: %v", m.Components())
	}
	vd := m.VirtualDims()
	if len(vd) != 1 || vd[0].Array != "A" || vd[0].Window != 2 || vd[0].Dim != 1 {
		t.Errorf("virtual dims %+v", vd)
	}
	if !strings.Contains(m.GraphListing(), "A -[K-1,I,J]-> eq.3") {
		t.Error("graph listing missing labeled edge")
	}
	if !strings.Contains(m.GraphDOT(), "digraph") {
		t.Error("DOT output broken")
	}
	c, err := m.GenerateC(ps.CGenOptions{})
	if err != nil || !strings.Contains(c, "Relaxation_result") {
		t.Errorf("GenerateC: %v", err)
	}
	if !strings.Contains(m.Source(), "A[K,I,J]") {
		t.Error("Source output broken")
	}

	// Execute.
	const mm = 8
	in := ps.NewRealArray(ps.Axis{Lo: 0, Hi: mm + 1}, ps.Axis{Lo: 0, Hi: mm + 1})
	for i := int64(1); i <= mm; i++ {
		for j := int64(1); j <= mm; j++ {
			in.SetF([]int64{i, j}, 1.0)
		}
	}
	out, err := runOnce(prog, "Relaxation", []any{in, mm, 5}, ps.Workers(2), ps.Strict())
	if err != nil {
		t.Fatal(err)
	}
	grid := out[0].(*ps.Array)
	if grid.Rank() != 2 {
		t.Errorf("result rank %d", grid.Rank())
	}
}

// TestHyperplaneAPI exercises the §4 entry point.
func TestHyperplaneAPI(t *testing.T) {
	eng := newEngine(t)
	prog, err := eng.Compile("gs.ps", repro.Source("gauss_seidel"))
	if err != nil {
		t.Fatal(err)
	}
	hp, err := prog.Module("Relaxation").Hyperplane("eq.3")
	if err != nil {
		t.Fatal(err)
	}
	if len(hp.TimeVector) != 3 || hp.TimeVector[0] != 2 {
		t.Errorf("time vector %v", hp.TimeVector)
	}
	if hp.Window != 3 {
		t.Errorf("window %d", hp.Window)
	}
	if hp.TransformedModule != "RelaxationH" {
		t.Errorf("transformed module %s", hp.TransformedModule)
	}
	if _, err := eng.Compile("gsh.ps", hp.TransformedSource); err != nil {
		t.Errorf("transformed source does not compile: %v", err)
	}
	if _, err := prog.Module("Relaxation").Hyperplane("eq.9"); err == nil {
		t.Error("missing equation accepted")
	}
}

// TestJSONRoundTrip exercises the psrun conversion layer.
func TestJSONRoundTrip(t *testing.T) {
	prog, err := newEngine(t).Compile("smooth.ps", repro.Source("smooth"))
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]json.RawMessage{
		"Xs": json.RawMessage(`[0, 1, 4, 9, 16, 25]`),
		"N":  json.RawMessage(`4`),
	}
	args, err := ps.ArgsFromJSON(prog, "Smooth", inputs)
	if err != nil {
		t.Fatal(err)
	}
	results, err := runOnce(prog, "Smooth", args, ps.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ps.ResultsToJSON(prog, "Smooth", results)
	if err != nil {
		t.Fatal(err)
	}
	// A rank-1 real result is one typed row viewing the result storage.
	ys, ok := out["Ys"].([]float64)
	if !ok || len(ys) != 6 {
		t.Fatalf("Ys = %#v", out["Ys"])
	}
	if &ys[0] != &results[0].(*ps.Array).F[0] {
		t.Error("Ys is a copy, not a view of the result")
	}
	if ys[0] != 0 || ys[5] != 25 {
		t.Error("boundary values wrong")
	}
	if got := ys[1]; got != (0.0+1+4)/3 {
		t.Errorf("Ys[1] = %v", got)
	}

	// Error paths.
	if _, err := ps.ArgsFromJSON(prog, "Smooth", map[string]json.RawMessage{"N": json.RawMessage(`4`)}); err == nil {
		t.Error("missing array input accepted")
	}
	bad := map[string]json.RawMessage{
		"Xs": json.RawMessage(`[0, 1]`), // wrong extent for N=4
		"N":  json.RawMessage(`4`),
	}
	if _, err := ps.ArgsFromJSON(prog, "Smooth", bad); err == nil {
		t.Error("wrong-extent array accepted")
	}
}

// TestModulesListing covers multi-module programs.
func TestModulesListing(t *testing.T) {
	prog, err := newEngine(t).Compile("pipe.ps", repro.Source("pipeline"))
	if err != nil {
		t.Fatal(err)
	}
	mods := prog.Modules()
	if len(mods) != 2 || mods[0] != "Smooth" || mods[1] != "Pipeline" {
		t.Errorf("Modules = %v", mods)
	}
	if prog.Module("smooth") == nil {
		t.Error("case-insensitive module lookup failed")
	}
	if prog.Module("nosuch") != nil {
		t.Error("phantom module found")
	}
}

// TestCompileErrors surfaces front-end diagnostics through the API.
func TestCompileErrors(t *testing.T) {
	eng := newEngine(t)
	if _, err := eng.Compile("bad.ps", "Bad: module"); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := eng.Compile("bad.ps",
		"Bad: module (x: int): [y: int]; define y = nosuch; end Bad;"); err == nil {
		t.Error("check error not surfaced")
	}
	// Unschedulable programs fail at compile time.
	src := `
Bad: module (N: int): [R: array [I] of real];
type I = 0 .. N;
var B: array [0 .. N] of real;
define
    B[I] = if (I = 0) or (I = N) then 1.0 else (B[I-1] + B[I+1]) / 2.0;
    R[I] = B[I];
end Bad;`
	if _, err := eng.Compile("bad.ps", src); err == nil {
		t.Error("unschedulable program accepted")
	} else if !strings.Contains(err.Error(), "cannot schedule") {
		t.Errorf("unexpected error %v", err)
	}
}
