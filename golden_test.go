// Golden-file tests for plan-IR rendering: the listings of Runner.Explain,
// Module.Plan/PlanCompact and `psc -dump plan` are compared byte for byte
// against testdata/golden/*.txt, so any regression in the lowered loop
// programs — step order, collapse decisions, wavefront eligibility, the
// chosen π and window — shows up as a reviewable diff. Regenerate with
//
//	go test -run Golden -update
package repro

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/psrc"
	"repro/ps"
)

var update = flag.Bool("update", false, "rewrite testdata/golden files with the current output")

// checkGolden compares got against testdata/golden/<name>, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with `go test -run Golden -update`): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s differs from golden file (regenerate with `go test -run Golden -update` if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// goldenModule loads one corpus module for rendering.
func goldenModule(t *testing.T, src, module string) *ps.Module {
	t.Helper()
	prog, err := ps.CompileProgram(module+".ps", src)
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Module(module)
	if m == nil {
		t.Fatalf("no module %s", module)
	}
	return m
}

// TestGoldenPlanListings pins the indented plan listings of the
// representative modules: the Jacobi relaxation (DOALL planes inside DO
// K), the Gauss–Seidel revision in both hyperplane modes (wavefront step
// vs the untransformed DO nest), and the new dependence-carrying corpus
// programs.
func TestGoldenPlanListings(t *testing.T) {
	relax := goldenModule(t, psrc.Relaxation, "Relaxation")
	checkGolden(t, "relaxation_plan.txt", relax.Plan())

	gsSrc := mustRead(t, "testdata/gauss_seidel.ps")
	gs := goldenModule(t, gsSrc, "Relaxation")
	checkGolden(t, "gauss_seidel_plan.txt", gs.Plan())
	checkGolden(t, "gauss_seidel_plan_hyperoff.txt",
		gs.PlanWith(ps.PlanOptions{Hyperplane: ps.HyperplaneOff}))

	skew := goldenModule(t, mustRead(t, "testdata/skew_stencil.ps"), "SkewStencil")
	checkGolden(t, "skew_stencil_plan.txt", skew.Plan())

	diag := goldenModule(t, mustRead(t, "testdata/diag_chain.ps"), "DiagChain")
	checkGolden(t, "diag_chain_plan.txt", diag.Plan())

	// Multi-equation groups: the coupled component's single two-kernel
	// wavefront step, and the fused pair whose merged body collapses
	// into one wavefront only in the fused variant.
	coupled := goldenModule(t, mustRead(t, "testdata/coupled.ps"), "Coupled")
	checkGolden(t, "coupled_plan.txt", coupled.Plan())

	fp := goldenModule(t, mustRead(t, "testdata/fuse_pair.ps"), "FusePair")
	checkGolden(t, "fuse_pair_plan_fused.txt", fp.PlanWith(ps.PlanOptions{Fused: true}))

	// The DP-wavefront corpus program: anti-diagonal time vector with
	// an integer-sequence comparison feeding the recurrence.
	sw := goldenModule(t, mustRead(t, "testdata/smith_waterman.ps"), "SmithWaterman")
	checkGolden(t, "smith_waterman_plan.txt", sw.Plan())

	// The 3-D wavefront: the time vector pi = (1,1,1) spans the whole
	// cube nest.
	h3 := goldenModule(t, mustRead(t, "testdata/heat3d.ps"), "Heat3D")
	checkGolden(t, "heat3d_plan.txt", h3.Plan())

	// Region-partitioned DP: boundary-row/column DOALL steps scheduled
	// ahead of the interior wavefront over the 1 .. N subranges.
	ed := goldenModule(t, mustRead(t, "testdata/edit_distance.ps"), "EditDistance")
	checkGolden(t, "edit_distance_plan.txt", ed.Plan())
}

// TestGoldenPlanCompact pins the one-line Figure 6-style plan of every
// corpus program in one file, auto and hyperplane-off variants side by
// side — the quickest visual index of what the compiler decided.
func TestGoldenPlanCompact(t *testing.T) {
	var sb strings.Builder
	for _, tp := range variantPrograms(t) {
		prog, err := ps.CompileProgram(tp.name+".ps", tp.src)
		if err != nil {
			t.Fatalf("%s: %v", tp.name, err)
		}
		m := prog.Module(tp.module)
		fmt.Fprintf(&sb, "%s auto: %s\n", tp.name, m.PlanCompact())
		if off := m.PlanCompactWith(ps.PlanOptions{Hyperplane: ps.HyperplaneOff}); off != m.PlanCompact() {
			fmt.Fprintf(&sb, "%s off:  %s\n", tp.name, off)
		}
	}
	checkGolden(t, "plan_compact.txt", sb.String())
}

// TestGoldenExplain pins Runner.Explain — the execution-mode header plus
// the exact plan a prepared runner executes — for a wavefront module in
// both modes and for a sequential runner (where auto-hyperplane is
// intentionally inert).
func TestGoldenExplain(t *testing.T) {
	prog, err := ps.CompileProgram("gauss_seidel.ps", mustRead(t, "testdata/gauss_seidel.ps"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file string
		opts []ps.RunOption
	}{
		{"gauss_seidel_explain_par2.txt", []ps.RunOption{ps.Workers(2)}},
		{"gauss_seidel_explain_par2_hyperoff.txt", []ps.RunOption{ps.Workers(2), ps.WithHyperplane(ps.HyperplaneOff)}},
		{"gauss_seidel_explain_seq.txt", []ps.RunOption{ps.Sequential()}},
	} {
		run, err := prog.Prepare("Relaxation", tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tc.file, run.Explain())
	}

	// The multi-equation wavefront surface: Explain must show the
	// kernels sharing one π, indented under the wavefront step.
	coupled, err := ps.CompileProgram("coupled.ps", mustRead(t, "testdata/coupled.ps"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := coupled.Prepare("Coupled", ps.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "coupled_explain_par2.txt", run.Explain())

	// A two-equation sequential body: its specialized kernels are reached
	// one point at a time, and Explain must say so.
	reflectProg, err := ps.CompileProgram("reflect.ps", mustRead(t, "testdata/reflect.ps"))
	if err != nil {
		t.Fatal(err)
	}
	run, err = reflectProg.Prepare("Reflect", ps.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "reflect_explain_seq.txt", run.Explain())
}

// TestGoldenPscPlan drives `psc -dump plan` the way a user would and
// checks the CLI emits exactly the golden plan listing (the same
// artifact Module.Plan renders), in both hyperplane modes.
func TestGoldenPscPlan(t *testing.T) {
	out, errOut, err := runGo(t, "", "./cmd/psc", "-dump", "plan", "testdata/gauss_seidel.ps")
	if err != nil {
		t.Fatalf("psc: %v\n%s", err, errOut)
	}
	checkGolden(t, "gauss_seidel_plan.txt", out)
	out, errOut, err = runGo(t, "", "./cmd/psc", "-dump", "plan", "-hyperplane", "off", "testdata/gauss_seidel.ps")
	if err != nil {
		t.Fatalf("psc -hyperplane off: %v\n%s", err, errOut)
	}
	checkGolden(t, "gauss_seidel_plan_hyperoff.txt", out)
}
