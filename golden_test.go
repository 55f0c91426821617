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
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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
	prog, err := newEngine(t).Compile(module+".ps", src)
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
// K), the Gauss–Seidel revision in both plans (the parallel wavefront
// step vs the untransformed DO nest Sequential runs), and the new
// dependence-carrying corpus
// programs.
func TestGoldenPlanListings(t *testing.T) {
	relax := goldenModule(t, Source("relaxation"), "Relaxation")
	checkGolden(t, "relaxation_plan.txt", relax.Plan())

	gs := goldenModule(t, Source("gauss_seidel"), "Relaxation")
	checkGolden(t, "gauss_seidel_plan.txt", gs.Plan())
	checkGolden(t, "gauss_seidel_plan_hyperoff.txt",
		gs.PlanWith(ps.PlanOptions{Sequential: true}))

	skew := goldenModule(t, Source("skew_stencil"), "SkewStencil")
	checkGolden(t, "skew_stencil_plan.txt", skew.Plan())

	diag := goldenModule(t, Source("diag_chain"), "DiagChain")
	checkGolden(t, "diag_chain_plan.txt", diag.Plan())

	// Multi-equation groups: the coupled component's single two-kernel
	// wavefront step, and the pair of recurrence nests the cascade fuses
	// because the merged nest collapses into one wavefront.
	coupled := goldenModule(t, Source("coupled"), "Coupled")
	checkGolden(t, "coupled_plan.txt", coupled.Plan())

	fp := goldenModule(t, Source("fuse_pair"), "FusePair")
	checkGolden(t, "fuse_pair_plan_fused.txt", fp.Plan())

	// The DP-wavefront corpus program: anti-diagonal time vector with
	// an integer-sequence comparison feeding the recurrence.
	sw := goldenModule(t, Source("smith_waterman"), "SmithWaterman")
	checkGolden(t, "smith_waterman_plan.txt", sw.Plan())

	// The 3-D wavefront: the time vector pi = (1,1,1) spans the whole
	// cube nest.
	h3 := goldenModule(t, Source("heat3d"), "Heat3D")
	checkGolden(t, "heat3d_plan.txt", h3.Plan())

	// Region-partitioned DP: boundary-row/column DOALL steps scheduled
	// ahead of the interior wavefront over the 1 .. N subranges.
	ed := goldenModule(t, Source("edit_distance"), "EditDistance")
	checkGolden(t, "edit_distance_plan.txt", ed.Plan())
}

// TestGoldenPlanCompact pins the one-line Figure 6-style plan of every
// corpus program in one file, the parallel ("auto") and sequential
// ("off") plans side by side — the quickest visual index of what the
// compiler decided.
func TestGoldenPlanCompact(t *testing.T) {
	var sb strings.Builder
	eng := newEngine(t)
	for _, tp := range variantPrograms(t) {
		prog, err := eng.Compile(tp.name+".ps", tp.src)
		if err != nil {
			t.Fatalf("%s: %v", tp.name, err)
		}
		m := prog.Module(tp.module)
		fmt.Fprintf(&sb, "%s auto: %s\n", tp.name, m.PlanCompact())
		if off := m.PlanCompactWith(ps.PlanOptions{Sequential: true}); off != m.PlanCompact() {
			fmt.Fprintf(&sb, "%s off:  %s\n", tp.name, off)
		}
	}
	checkGolden(t, "plan_compact.txt", sb.String())
}

// TestGoldenExplain pins Runner.Explain — the execution-mode header plus
// the exact plan a prepared runner executes — for a wavefront module on
// two workers and on a sequential runner (which executes the schedule
// as emitted).
func TestGoldenExplain(t *testing.T) {
	eng := newEngine(t)
	prog, err := eng.Compile("gauss_seidel.ps", Source("gauss_seidel"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file string
		opts []ps.RunOption
	}{
		{"gauss_seidel_explain_par2.txt", []ps.RunOption{ps.Workers(2)}},
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
	coupled, err := eng.Compile("coupled.ps", Source("coupled"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := coupled.Prepare("Coupled", ps.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "coupled_explain_par2.txt", run.Explain())

	// A two-equation sequential body run as one jammed span, then two
	// copy-outs Explain must mark as copy spans.
	reflectProg, err := eng.Compile("reflect.ps", Source("reflect"))
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
// artifact Module.Plan renders), for the parallel plan and under -seq.
func TestGoldenPscPlan(t *testing.T) {
	out, errOut, err := runGo(t, "", "./cmd/psc", "-dump", "plan", "testdata/gauss_seidel.ps")
	if err != nil {
		t.Fatalf("psc: %v\n%s", err, errOut)
	}
	checkGolden(t, "gauss_seidel_plan.txt", out)
	out, errOut, err = runGo(t, "", "./cmd/psc", "-dump", "plan", "-seq", "testdata/gauss_seidel.ps")
	if err != nil {
		t.Fatalf("psc -seq: %v\n%s", err, errOut)
	}
	checkGolden(t, "gauss_seidel_plan_hyperoff.txt", out)
}

// TestGoldenPsrepro pins every artifact psrepro regenerates — Figure 1,
// 3, 5, 6 and 7, §3.4 and §4 — byte for byte, one golden per -only id.
func TestGoldenPsrepro(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "psrepro")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/psrepro").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, id := range []string{"fig1", "fig3", "fig5", "fig6", "fig7", "sec3.4", "sec4"} {
		out, err := exec.Command(bin, "-only", id).Output()
		if err != nil {
			t.Fatalf("psrepro -only %s: %v", id, err)
		}
		checkGolden(t, "psrepro_"+id+".txt", string(out))
	}
}
