package ps_test

import (
	"strings"
	"testing"

	"repro"
	"repro/ps"
)

// TestModulePlan checks the public plan surface: the listing exposes the
// collapsed DOALL structure, slots and kernel indices of the lowered IR.
func TestModulePlan(t *testing.T) {
	prog, err := newEngine(t).Compile("relax.ps", repro.Source("relaxation"))
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Module("Relaxation")
	listing := m.Plan()
	for _, want := range []string{
		"plan Relaxation",
		"doall I, J collapse(2) leaf",
		"do K",
		"eq.3 -> A",
		"[kernel",
		"virtual A dim 1 window 2 (K)",
	} {
		if !strings.Contains(listing, want) {
			t.Errorf("Plan() missing %q:\n%s", want, listing)
		}
	}
	if got, want := m.PlanCompact(), "DOALL I×J (eq.1); DO K (DOALL I×J (eq.3)); DOALL I×J (eq.2)"; got != want {
		t.Errorf("PlanCompact() = %q, want %q", got, want)
	}
	// Nothing in relaxation fuses or wavefronts: the sequential plan is
	// the same listing.
	if off := m.PlanWith(ps.PlanOptions{Sequential: true}); off != listing {
		t.Errorf("hyperplane-off plan differs from the default:\n%s", off)
	}
}

// TestRunnerExplain checks Explain reflects the runner's options: the
// execution mode header and the plan variant actually executed.
func TestRunnerExplain(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(3))
	defer eng.Close()
	prog, err := eng.Compile("relax.ps", repro.Source("relaxation"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Relaxation", grain(64))
	if err != nil {
		t.Fatal(err)
	}
	out := run.Explain()
	for _, want := range []string{"runner Relaxation: 3 workers, grain 64, cascade plan", "do K"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain() missing %q:\n%s", want, out)
		}
	}
	seq, err := prog.Prepare("Relaxation", ps.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	out = seq.Explain()
	for _, want := range []string{"runner Relaxation: sequential, base plan", "plan Relaxation"} {
		if !strings.Contains(out, want) {
			t.Errorf("sequential Explain() missing %q:\n%s", want, out)
		}
	}

	// A runner with a DOALL or wavefront step states the one dispatch rule
	// with its threshold for this worker count and grain; sequential
	// runners say nothing about dispatch.
	gs, err := eng.Compile("gs.ps", repro.Source("gauss_seidel"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		prog *ps.Program
		opts []ps.RunOption
		want string
	}{
		{gs, nil, "parallel dispatch: tiles when a step's average plane holds >= 96 points (32 x 3 workers); a DOALL is one plane, a wavefront one per anti-diagonal of its two tiled coordinates\n"},
		{gs, []ps.RunOption{grain(8)}, "parallel dispatch: tiles when a step's average plane holds >= 24 points (8 x 3 workers); a DOALL is one plane, a wavefront one per anti-diagonal of its two tiled coordinates\n"},
		{gs, []ps.RunOption{ps.Workers(1)}, "parallel dispatch: inline (one worker)\n"},
		{prog, []ps.RunOption{grain(64)}, "parallel dispatch: tiles when a step's average plane holds >= 192 points (64 x 3 workers); a DOALL is one plane\n"},
	} {
		r, err := tc.prog.Prepare("Relaxation", tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if out := r.Explain(); strings.Count(out, "dispatch") != 1 || !strings.Contains(out, tc.want) {
			t.Errorf("Explain() does not have exactly the dispatch line %q:\n%s", tc.want, out)
		}
	}
	if out := seq.Explain(); strings.Contains(out, "dispatch") {
		t.Errorf("Explain() of a sequential runner:\n%s", out)
	}
}

// copyArms copies X whole (eq.1), in two arms of three (eq.2), in one
// arm beside a carried one (eq.3), and reflected (eq.4, no copy: its
// read walks the row backwards).
const copyArms = `
Copies: module (X: array[I,J] of real; N: int):
    [A: array[I,J] of real; B: array[I,J] of real; C: array[I,J] of real; D: array[I,J] of real];
type
    I, J = 1 .. N;
define
    (*eq.1*) A[I,J] = X[I,J];
    (*eq.2*) B[I,J] = if J = 1 then X[I,J] elsif J = 2 then 0.0 else X[I,J];
    (*eq.3*) C[I,J] = if J = 1 then X[I,J] else C[I,J-1] + 1.0;
    (*eq.4*) D[I,J] = X[I, N+1-J];
end Copies;
`

// TestExplainCopySpan pins how Explain marks the arms that run as copy
// spans, with and without guards, sequentially and on workers.
func TestExplainCopySpan(t *testing.T) {
	prog, err := newEngine(t).Compile("copies.ps", copyArms)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]ps.RunOption{{ps.Sequential()}, {ps.Workers(2)}} {
		run, err := prog.Prepare("Copies", opts...)
		if err != nil {
			t.Fatal(err)
		}
		out := run.Explain()
		for _, want := range []string{
			"kernel eq.1 (A): specialized, copy span\n",
			"kernel eq.2 (B): specialized, split on 2 guards, copy span on arm 1, 3\n",
			"kernel eq.3 (C): specialized, split on 1 guard, copy span on arm 1\n",
			"kernel eq.4 (D): specialized\n",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("Explain() missing %q:\n%s", want, out)
			}
		}
	}
}
