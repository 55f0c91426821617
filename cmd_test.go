// Command-level integration tests: drive psc and psrun the way a user
// would, against the testdata sources.
package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
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
	// A wavefront nest has one C form: a sequential loop over the
	// anti-diagonals of a tile grid, each diagonal's tiles a parallel loop.
	out, errOut, err = runGo(t, "", "./cmd/psc", "-dump", "c", "-openmp", "testdata/gauss_seidel.ps")
	if err != nil {
		t.Fatalf("psc: %v\n%s", err, errOut)
	}
	for _, want := range []string{"/* WAVEFRONT K, I, J", "for (long wf_d = 0;", "#pragma omp parallel for\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("wavefront C output missing %q:\n%s", want, out)
		}
	}
	if _, errOut, err = runGo(t, "", "./cmd/psc", "-dump", "c", "-schedule", "doacross", "testdata/gauss_seidel.ps"); err == nil || !strings.Contains(errOut, "flag provided but not defined: -schedule") {
		t.Errorf("psc -schedule: err %v, want an undefined-flag error:\n%s", err, errOut)
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
	out, errOut, err := runGo(t, "", "./cmd/psrun", "-explain", "testdata/relaxation.ps")
	if err != nil {
		t.Fatalf("psrun -explain: %v\n%s", err, errOut)
	}
	for _, want := range []string{"cascade plan", "plan Relaxation", "do K"} {
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
	// Usage: psrun has no -schedule flag (nothing selects an executor or
	// a cascade order) → 2.
	for _, v := range []string{"barrier", "doacross"} {
		if code, stderr := exitCode("-schedule", v, "testdata/relaxation.ps"); code != 2 || !strings.Contains(stderr, "flag provided but not defined: -schedule") {
			t.Errorf("-schedule %s: exit %d, want 2 and an undefined-flag message:\n%s", v, code, stderr)
		}
	}
	// Usage: fusion and the §4 restructuring are cascade decisions, and
	// the dispatch grain a fixed rule, not flags → 2.
	for _, args := range [][]string{{"-fused"}, {"-hyperplane", "off"}, {"-grain", "32"}} {
		if code, stderr := exitCode(append(args, "testdata/relaxation.ps")...); code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+args[0]) {
			t.Errorf("%s: exit %d, want 2 and an undefined-flag message:\n%s", args[0], code, stderr)
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
	// Input diagnostics → 1: a null scalar (not read as 0, which would
	// fit this Xs) and an undeclared input name.
	for _, in := range []string{`{"Xs": [0, 1], "N": null}`, `{"Xs": [0, 1, 2], "N": 1, "Bogus": 1}`} {
		file := filepath.Join(t.TempDir(), "in.json")
		if err := os.WriteFile(file, []byte(in), 0o644); err != nil {
			t.Fatal(err)
		}
		if code, stderr := exitCode("-in", file, "testdata/smooth.ps"); code != 1 {
			t.Errorf("inputs %s: exit %d, want 1:\n%s", in, code, stderr)
		}
	}
}
