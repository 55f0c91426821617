package ps_test

import (
	"strings"
	"testing"

	"repro/internal/psrc"
	"repro/ps"
)

// TestModulePlan checks the public plan surface: the listing exposes the
// collapsed DOALL structure, slots and kernel indices of the lowered IR.
func TestModulePlan(t *testing.T) {
	prog, err := ps.CompileProgram("relax.ps", psrc.Relaxation)
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
	// The fused variant is lowered separately and marked as such.
	if !strings.Contains(m.PlanFused(), "fused") {
		t.Errorf("PlanFused() not marked fused:\n%s", m.PlanFused())
	}
}

// TestRunnerExplain checks Explain reflects the runner's options: the
// execution mode header and the plan variant actually executed.
func TestRunnerExplain(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(3))
	defer eng.Close()
	prog, err := eng.Compile("relax.ps", psrc.Relaxation)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Relaxation", ps.Grain(64))
	if err != nil {
		t.Fatal(err)
	}
	out := run.Explain()
	for _, want := range []string{"runner Relaxation: 3 workers, grain 64, base plan", "do K"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain() missing %q:\n%s", want, out)
		}
	}
	fused, err := prog.Prepare("Relaxation", ps.Sequential(), ps.Fused())
	if err != nil {
		t.Fatal(err)
	}
	out = fused.Explain()
	for _, want := range []string{"sequential", "fused plan", "plan Relaxation"} {
		if !strings.Contains(out, want) {
			t.Errorf("fused Explain() missing %q:\n%s", want, out)
		}
	}

	// A wavefront runner states the dispatch rule with its threshold for
	// this worker count and grain; plans without a wavefront step and
	// sequential runners say nothing about dispatch.
	gs, err := eng.Compile("gs.ps", psrc.RelaxationGS)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		opts []ps.RunOption
		want string
	}{
		{nil, "wavefront dispatch: tiles when the average plane holds >= 96 points (32 x 3 workers), inline sweep otherwise\n"},
		{[]ps.RunOption{ps.Grain(8)}, "wavefront dispatch: tiles when the average plane holds >= 24 points (8 x 3 workers), inline sweep otherwise\n"},
		{[]ps.RunOption{ps.Workers(1)}, "wavefront dispatch: inline sweep (one worker)\n"},
	} {
		r, err := gs.Prepare("Relaxation", tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if out := r.Explain(); !strings.Contains(out, tc.want) {
			t.Errorf("Explain() missing %q:\n%s", tc.want, out)
		}
	}
	for _, r := range []*ps.Runner{run, fused} {
		if out := r.Explain(); strings.Contains(out, "wavefront dispatch") {
			t.Errorf("Explain() of a runner with no wavefront step to dispatch:\n%s", out)
		}
	}
}
