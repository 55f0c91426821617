package psgen

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/cgen"
	"repro/internal/plan"
	"repro/internal/sem"
	"repro/internal/value"
)

// ccCheck compiles the cgen output for the spec with each flag set,
// runs it on the same inputs, and compares every printed element
// bitwise against the interpreter's sequential reference.
func ccCheck(ctx context.Context, out *Outcome, sp *Spec, fe *frontendResult, pl *plan.Program, ref []any, o Options) {
	// A generated program is one module: it has no callee to plan.
	cSrc, err := cgen.Generate(fe.mod, func(m *sem.Module) *plan.Program {
		if m != fe.mod {
			return nil
		}
		return pl
	}, cgen.Options{OpenMP: o.OpenMP})
	if err != nil {
		out.addf("cc", "cgen", "%v", err)
		return
	}
	mainSrc, err := sp.CMain()
	if err != nil {
		out.addf("cc", "cgen", "%v", err)
		return
	}
	want, err := flattenReal(ref)
	if err != nil {
		out.addf("cc", "cgen", "reference: %v", err)
		return
	}

	dir, err := os.MkdirTemp("", "psgen-cc")
	if err != nil {
		out.addf("cc", "cgen", "tempdir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	cPath := filepath.Join(dir, "gen.c")
	if err := os.WriteFile(cPath, []byte(cSrc+mainSrc), 0o644); err != nil {
		out.addf("cc", "cgen", "write: %v", err)
		return
	}

	flagSets := [][]string{{"-O2"}}
	if o.OpenMP {
		flagSets = append(flagSets, []string{"-O2", "-fopenmp"})
	}
	for _, flags := range flagSets {
		name := "cc " + strings.Join(flags, " ")
		bin := filepath.Join(dir, "gen-"+strings.ReplaceAll(strings.Join(flags, ""), "-", ""))
		args := append(append([]string{}, flags...), "-o", bin, cPath, "-lm")
		if msg, err := exec.CommandContext(ctx, o.CC, args...).CombinedOutput(); err != nil {
			// A missing -fopenmp runtime is an environment gap, not a
			// divergence; a failure on the base flags is a real cgen bug.
			if len(flags) > 1 {
				continue
			}
			out.addf("cc", name, "compile failed: %v\n%s", err, msg)
			continue
		}
		raw, err := exec.CommandContext(ctx, bin).Output()
		if err != nil {
			out.addf("cc", name, "run failed: %v", err)
			continue
		}
		got, err := parseReals(raw)
		if err != nil {
			out.addf("cc", name, "output: %v", err)
			continue
		}
		if len(got) != len(want) {
			out.addf("cc", name, "printed %d elements, interpreter produced %d", len(got), len(want))
			continue
		}
		for i := range want {
			if !bitsEqual(want[i], got[i]) {
				out.addf("cc", name, "element %d: interpreter %v (%#x) != C %v (%#x)",
					i, want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
				break
			}
		}
	}
}

// CMain emits the C driver for the generated module: inputs as static
// arrays initialized from the spec's deterministic values (printed
// %.17g, which round-trips float64 exactly), a call, and one canonical
// line per result element ("NaN" for any NaN, %.17g otherwise, so the
// comparison is spelling-independent).
func (sp *Spec) CMain() (string, error) {
	args := sp.Inputs()
	var b strings.Builder
	b.WriteString("\n#include <stdio.h>\n#include <math.h>\n")
	b.WriteString("static void ps_print(double v) { if (isnan(v)) printf(\"NaN\\n\"); else printf(\"%.17g\\n\", v); }\n")
	b.WriteString("int main(void) {\n")

	callArgs := make([]string, 0, len(args))
	for i, name := range sp.ParamNames() {
		arr, ok := args[i].(*value.Array)
		if !ok {
			return "", fmt.Errorf("param %s: expected an array input", name)
		}
		if arr.F != nil {
			fmt.Fprintf(&b, "    static const double %s_data[] = {", name)
			writeCSV(&b, len(arr.F), func(k int) string {
				return formatC(arr.F[k])
			})
		} else {
			fmt.Fprintf(&b, "    static const long %s_data[] = {", name)
			writeCSV(&b, len(arr.I), func(k int) string {
				return strconv.FormatInt(arr.I[k], 10) + "L"
			})
		}
		b.WriteString("};\n")
		callArgs = append(callArgs, name+"_data")
	}

	fmt.Fprintf(&b, "    %s_result r = %s(%s);\n", ModuleName, ModuleName, strings.Join(callArgs, ", "))
	for _, res := range sp.ResultNames() {
		fmt.Fprintf(&b, "    for (long i = 0; i < %dL; i++) ps_print(r.%s[i]);\n", sp.Box(), res)
	}
	b.WriteString("    return 0;\n}\n")
	return b.String(), nil
}

// ResultNames lists the generated module's result names in
// declaration order (every result spans the full nest).
func (sp *Spec) ResultNames() []string {
	names := []string{"Out"}
	if sp.Sibling {
		names = append(names, "Out2")
	}
	if sp.Class == ClassPipeline && sp.Consumers > 1 {
		names = append(names, "Out3")
	}
	return names
}

func writeCSV(b *strings.Builder, n int, elem func(int) string) {
	for k := 0; k < n; k++ {
		if k > 0 {
			b.WriteString(", ")
		}
		if k%8 == 0 && k > 0 {
			b.WriteString("\n        ")
		}
		b.WriteString(elem(k))
	}
}

// formatC renders a float64 as a C double literal that parses back to
// the same bits.
func formatC(v float64) string {
	s := strconv.FormatFloat(v, 'g', 17, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// flattenReal flattens real result arrays in declaration order,
// row-major — the order the C driver prints.
func flattenReal(results []any) ([]float64, error) {
	var flat []float64
	for i, r := range results {
		arr, ok := r.(*value.Array)
		if !ok || arr.F == nil {
			return nil, fmt.Errorf("result %d is not a real array", i)
		}
		eachIndex(arr.Axes, func(idx []int64) {
			flat = append(flat, arr.GetF(idx))
		})
	}
	return flat, nil
}

// parseReals parses the driver's one-value-per-line output.
func parseReals(raw []byte) ([]float64, error) {
	var vals []float64
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "NaN" || line == "-NaN" {
			vals = append(vals, math.NaN())
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %v", line, err)
		}
		vals = append(vals, v)
	}
	return vals, sc.Err()
}
