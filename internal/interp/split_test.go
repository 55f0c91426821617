package interp_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/psrc"
	"repro/internal/types"
	"repro/internal/value"
)

// splitModule wraps one right-hand side for X[I,J] (eq.1) in a module
// whose every shape shares a signature: a seed grid over 0 .. N+1 and
// an integer scalar B for span-invariant guard terms.
func splitModule(body string) string {
	return fmt.Sprintf(`
S: module (Seed: array[I,J] of real; N: int; B: int): [Out: array[I,J] of real];
type
    I, J = 0 .. N+1;
var
    X: array [0 .. N+1, 0 .. N+1] of real;
define
    (*eq.1*) X[I,J] = %s;
    (*eq.2*) Out[I,J] = X[I,J];
end S;
`, body)
}

// splitArgs builds the seed grid and scalars of splitModule.
func splitArgs(n, b int64) []any {
	seed := value.NewArray(types.RealKind, []value.Axis{{Lo: 0, Hi: n + 1}, {Lo: 0, Hi: n + 1}})
	for i := range seed.F {
		seed.F[i] = float64((i*29+7)%17)/8 - 0.875
	}
	return []any{seed, n, b}
}

// TestSplitGuardShapes runs bodies whose guards the splitter cuts —
// every comparison operator with not/and/or, elsif chains, symbolic and
// scaled terms, guards on coordinates a skewed wavefront row moves
// together, cuts that fall outside the span, constant guards, an inner
// if — and two it must refuse (a real-valued guard, and sides that
// overflow int64 along the span), under sequential leaf spans, DOALL
// rows, inline plane sweeps and tiles. Every row must match the
// generic sequential run bit for bit; a wrongly placed cut either picks
// the wrong arm (a different value) or runs an arm outside its
// certificate (an out-of-range read).
func TestSplitGuardShapes(t *testing.T) {
	const n = 11
	for _, tc := range []struct {
		name, src, module string
		args              []any
		// guards is the number of comparisons eq.1's spans split on.
		guards int
		// full marks shapes whose every instance runs specialized under
		// Sequential: no piece leaves its arm's certificate.
		full bool
	}{
		{"Relations", splitModule(`if (I < 1) or (J <= 0) or (I > N) or (J >= N+1) then Seed[I,J]
             elsif I = J then 0.5 * X[I-1,J-1] + Seed[I,J]
             elsif (I <> J+3) and not (J = 4) then (X[I-1,J] + X[I,J-1]) / 2.0 + Seed[I+1,J]
             else X[I-1,J+1] - Seed[I,J]`), "S", splitArgs(n, 0), 7, true},
		{"ScaledAndSymbolic", splitModule(`if (2*I <= B+1) or (3*J < B-1) or (J + B >= 2*N + 3) then Seed[I,J]
             else (X[I-1,J] + X[I,J-1]) / 2.0 - Seed[I,J]`), "S", splitArgs(n, 2), 3, true},
		{"CutsOutsideSpan", splitModule(`if (I > N+7) or (J < -2) then Seed[I+20,J]
             elsif J >= -5 then 2.0 * Seed[I,J]
             else Seed[I-50,J]`), "S", splitArgs(n, 0), 3, true},
		{"Constants", splitModule(`if false then Seed[I+100,J] elsif true then 3.0 * Seed[I,J] else Seed[I-100,J]`),
			"S", splitArgs(n, 0), 0, true},
		{"InnerIf", splitModule(`if (I = 0) or (J = 0) then Seed[I,J]
             else (if I = J then X[I-1,J-1] else X[I-1,J] + X[I,J-1]) * 0.5 + float(I - J)`),
			"S", splitArgs(n, 0), 2, true},
		{"RealGuard", splitModule(`if (float(I) = 0.0) or (float(J) = 0.0) then Seed[I,J]
             else (X[I-1,J] + X[I,J-1]) / 2.0`), "S", splitArgs(n, 0), 0, false},
		{"Int64Wrap", splitModule(`if (J * 4611686018427387904 > 0) or (I = 0) or (J + B < 0) then Seed[I,J]
             else X[I-1,J] + Seed[I,J]`), "S", splitArgs(n, math.MaxInt64-5), 3, false},
		{"CoupledGrid", psrc.CoupledGrid, "CoupledGrid", []any{grid(n), int64(n), int64(3)}, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ip := compileSrc(t, tc.src)
			for _, ks := range ip.Kernels(tc.module, plan.Options{Hyperplane: true}) {
				if ks.Eq == "eq.1" && (!ks.Specialized || ks.Guards != tc.guards) {
					t.Errorf("eq.1: specialized=%v (%s), splits on %d guards, want %d", ks.Specialized, ks.Reason, ks.Guards, tc.guards)
				}
			}
			want, err := ip.Run(tc.module, tc.args, interp.Options{Sequential: true, NoSpecialize: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range []struct {
				name string
				opts interp.Options
				spec bool
			}{
				{"Seq", interp.Options{Sequential: true}, true},
				{"Par2", interp.Options{Workers: 2}, true},
				{"Par2Grain1", interp.Options{Workers: 2, Grain: 1}, true},
				{"NoSpecialize", interp.Options{Workers: 2, NoSpecialize: true}, false},
				{"Strict", interp.Options{Workers: 2, Strict: true}, false},
			} {
				var st interp.Stats
				opts := row.opts
				opts.Stats = &st
				got, err := ip.Run(tc.module, tc.args, opts)
				if err != nil {
					t.Fatalf("%s: %v", row.name, err)
				}
				if !sameBits(got, want) {
					t.Errorf("%s diverges from the generic sequential run", row.name)
				}
				spec, eqs := st.Specialized.Load(), st.EqInstances.Load()
				if (spec > 0) != row.spec || spec > eqs {
					t.Errorf("%s: Specialized = %d of %d instances, want positive: %v", row.name, spec, eqs, row.spec)
				}
				if row.name == "Seq" && tc.full && spec != eqs {
					t.Errorf("Seq: Specialized = %d, want every one of %d instances", spec, eqs)
				}
			}
		})
	}
}

// TestSplitCorpusFullySpecialized pins the point of splitting on the
// corpus shapes: under Sequential every instance of the boundary-guarded
// stencils — boundary rows and row ends included — runs specialized.
func TestSplitCorpusFullySpecialized(t *testing.T) {
	const n = 9
	cube := value.NewArray(types.RealKind, []value.Axis{{Lo: 0, Hi: n}, {Lo: 0, Hi: n}, {Lo: 0, Hi: n}})
	for i := range cube.F {
		cube.F[i] = float64((i*13+3)%11) / 4
	}
	for _, tc := range []struct {
		name, src, module string
		args              []any
	}{
		{"RelaxationGS", psrc.RelaxationGS, "Relaxation", []any{grid(n), int64(n), int64(5)}},
		{"Heat3D", psrc.Heat3D, "Heat3D", []any{cube, int64(n)}},
		{"Mutual", psrc.Mutual, "Mutual", []any{grid(n), int64(n)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ip := compileSrc(t, tc.src)
			var st interp.Stats
			if _, err := ip.Run(tc.module, tc.args, interp.Options{Sequential: true, Stats: &st}); err != nil {
				t.Fatal(err)
			}
			if spec, eqs := st.Specialized.Load(), st.EqInstances.Load(); eqs == 0 || spec != eqs {
				t.Errorf("Specialized = %d, want EqInstances = %d", spec, eqs)
			}
		})
	}
}
