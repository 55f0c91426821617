// Command-level integration tests: drive psc and psrun the way a user
// would, against the testdata sources.
package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func runGo(t *testing.T, stdin string, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	return out.String(), errb.String(), err
}

// TestPscFlowchart drives psc -dump flowchart on the Figure 1 source.
func TestPscFlowchart(t *testing.T) {
	out, errOut, err := runGo(t, "", "./cmd/psc", "-dump", "flowchart", "testdata/relaxation.ps")
	if err != nil {
		t.Fatalf("psc: %v\n%s", err, errOut)
	}
	for _, want := range []string{"DOALL I (", "DO K (", "eq.3"} {
		if !strings.Contains(out, want) {
			t.Errorf("flowchart output missing %q:\n%s", want, out)
		}
	}
}

// TestPscC drives C generation from the CLI.
func TestPscC(t *testing.T) {
	out, errOut, err := runGo(t, "", "./cmd/psc", "-dump", "c", "-openmp", "testdata/relaxation.ps")
	if err != nil {
		t.Fatalf("psc: %v\n%s", err, errOut)
	}
	for _, want := range []string{"Relaxation_result", "#pragma omp parallel for", "/* DO K */"} {
		if !strings.Contains(out, want) {
			t.Errorf("C output missing %q", want)
		}
	}
	// -schedule doacross is psc's alone: the C form of a wavefront nest.
	out, errOut, err = runGo(t, "", "./cmd/psc", "-dump", "c", "-openmp", "-schedule", "doacross", "testdata/gauss_seidel.ps")
	if err != nil {
		t.Fatalf("psc -schedule doacross: %v\n%s", err, errOut)
	}
	if !strings.Contains(out, "#pragma omp for ordered(3) schedule(static, 1)") {
		t.Errorf("doacross C output has no ordered(3) nest:\n%s", out)
	}
}

// TestPscTransform drives the §4 rewrite from the CLI.
func TestPscTransform(t *testing.T) {
	out, errOut, err := runGo(t, "", "./cmd/psc", "-transform", "eq.3", "testdata/gauss_seidel.ps")
	if err != nil {
		t.Fatalf("psc: %v\n%s", err, errOut)
	}
	for _, want := range []string{"time vector [2 1 1]", "RelaxationH", "At[Kt - 2,K - 1,I]"} {
		if !strings.Contains(out, want) {
			t.Errorf("transform output missing %q:\n%s", want, out)
		}
	}
}

// TestPsrunJSON drives execution with JSON inputs.
func TestPsrunJSON(t *testing.T) {
	out, errOut, err := runGo(t, "",
		"./cmd/psrun", "-in", "testdata/smooth_inputs.json", "testdata/smooth.ps")
	if err != nil {
		t.Fatalf("psrun: %v\n%s", err, errOut)
	}
	var result map[string][]float64
	if jerr := json.Unmarshal([]byte(out), &result); jerr != nil {
		t.Fatalf("output is not JSON: %v\n%s", jerr, out)
	}
	ys := result["Ys"]
	if len(ys) != 8 {
		t.Fatalf("Ys has %d elements: %v", len(ys), ys)
	}
	if ys[0] != 0 || ys[7] != 49 {
		t.Errorf("boundary not carried: %v", ys)
	}
	if ys[1] != (0.0+1+4)/3 {
		t.Errorf("Ys[1] = %v", ys[1])
	}
}

// TestPsrunJSONGolden pins psrun's indented stdout byte for byte for a
// module with every JSON-convertible type: the non-finite spellings,
// −0, exponent forms, int64 extremes and bools. Regenerate with
//
//	go test -run TestPsrunJSONGolden -update
func TestPsrunJSONGolden(t *testing.T) {
	out, errOut, err := runGo(t, "",
		"./cmd/psrun", "-in", "testdata/json_types.inputs.json", "testdata/json_types.ps")
	if err != nil {
		t.Fatalf("psrun: %v\n%s", err, errOut)
	}
	checkGolden(t, "json_types_psrun.txt", out)
}

// TestPscPlan drives psc -dump plan: the lowered loop program listing.
func TestPscPlan(t *testing.T) {
	out, errOut, err := runGo(t, "", "./cmd/psc", "-dump", "plan", "testdata/relaxation.ps")
	if err != nil {
		t.Fatalf("psc: %v\n%s", err, errOut)
	}
	for _, want := range []string{"plan Relaxation", "doall I, J collapse(2) leaf", "do K", "[kernel"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}
}

// TestPsrunExplain drives psrun -explain: prints the plan the selected
// options would execute without running the module.
func TestPsrunExplain(t *testing.T) {
	out, errOut, err := runGo(t, "", "./cmd/psrun", "-explain", "-fused", "-grain", "32", "testdata/relaxation.ps")
	if err != nil {
		t.Fatalf("psrun -explain: %v\n%s", err, errOut)
	}
	for _, want := range []string{"grain 32, fused plan", "plan Relaxation", "do K"} {
		if !strings.Contains(out, want) {
			t.Errorf("-explain output missing %q:\n%s", want, out)
		}
	}
}

// TestPsrunExitCodes builds psrun and checks the documented exit status
// split: 2 for usage errors, 1 for program diagnostics (with the typed
// fields rendered).
func TestPsrunExitCodes(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "psrun")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/psrun").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	exitCode := func(args ...string) (int, string) {
		var errb bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stderr = &errb
		err := cmd.Run()
		if err == nil {
			return 0, errb.String()
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("run: %v", err)
		}
		return ee.ExitCode(), errb.String()
	}
	// Usage: missing file → 2.
	if code, _ := exitCode("testdata/does_not_exist.ps"); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	// Usage: unknown module → 2.
	if code, _ := exitCode("-module", "Nope", "testdata/relaxation.ps"); code != 2 {
		t.Errorf("unknown module: exit %d, want 2", code)
	}
	// Usage: barrier and doacross named executors, and nothing selects
	// one any more → 2.
	for _, v := range []string{"barrier", "doacross"} {
		if code, stderr := exitCode("-schedule", v, "testdata/relaxation.ps"); code != 2 || !strings.Contains(stderr, "invalid schedule") {
			t.Errorf("-schedule %s: exit %d, want 2 and an invalid-schedule message:\n%s", v, code, stderr)
		}
	}
	// Program diagnostic: missing inputs → 1, with typed fields.
	code, stderr := exitCode("testdata/relaxation.ps")
	if code != 1 {
		t.Errorf("missing inputs: exit %d, want 1", code)
	}
	for _, want := range []string{"phase:", "module:   Relaxation"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, stderr)
		}
	}
}

// TestPsreproOneArtifact drives the figure reproducer.
func TestPsreproOneArtifact(t *testing.T) {
	out, errOut, err := runGo(t, "", "./cmd/psrepro", "-only", "fig5")
	if err != nil {
		t.Fatalf("psrepro: %v\n%s", err, errOut)
	}
	for _, want := range []string{"A, eq.3", "DO K (DOALL I (DOALL J (eq.3)))"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5 output missing %q:\n%s", want, out)
		}
	}
}
