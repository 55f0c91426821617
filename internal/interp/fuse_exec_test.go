package interp_test

import (
	"testing"

	"repro"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/value"
)

// TestFusedExecutionEquals verifies that the default parallel plan, where
// the cascade's §5 step fuses nests, produces exactly the results of the
// unfused schedule sequential runs execute, across the bundled workloads.
func TestFusedExecutionEquals(t *testing.T) {
	cases := []struct {
		name, src, module string
		args              func() []any
		// fused is the cascade plan's compact form when it merges nests.
		fused string
	}{
		{"Jacobi", repro.Source("relaxation"), "Relaxation", func() []any {
			return []any{grid(9), int64(9), int64(5)}
		}, ""},
		{"GaussSeidel", repro.Source("gauss_seidel"), "Relaxation", func() []any {
			return []any{grid(9), int64(9), int64(5)}
		}, ""},
		{"Prefix", repro.Source("prefix"), "Prefix", func() []any {
			xs := value.NewArray(types.RealKind, []value.Axis{{Lo: 1, Hi: 12}})
			for i := int64(1); i <= 12; i++ {
				xs.SetF([]int64{i}, float64(i%5))
			}
			return []any{xs, int64(12)}
		}, ""},
		{"TwoPass", `
Two: module (Xs: array[I] of real; N: int): [Ys: array [I] of real; Zs: array [I] of real];
type I = 0 .. N;
define
    Ys[I] = Xs[I] * 2.0;
    Zs[I] = Ys[I] + 1.0;
end Two;
`, "Two", func() []any {
			xs := value.NewArray(types.RealKind, []value.Axis{{Lo: 0, Hi: 20}})
			for i := int64(0); i <= 20; i++ {
				xs.SetF([]int64{i}, float64(i))
			}
			return []any{xs, int64(20)}
		}, "DOALL I (eq.1; eq.2)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ip := compileSrc(t, tc.src)
			if tc.fused != "" {
				if got := ip.Plan(tc.module, plan.Options{Hyperplane: true}).Compact(); got != tc.fused {
					t.Errorf("cascade plan %q, want %q", got, tc.fused)
				}
			}
			plain, err := ip.Run(tc.module, tc.args(), interp.Options{Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			fused, err := ip.Run(tc.module, tc.args(), interp.Options{Pool: pool(t, 2)})
			if err != nil {
				t.Fatal(err)
			}
			for i := range plain {
				pa, isArr := plain[i].(*value.Array)
				if !isArr {
					if plain[i] != fused[i] {
						t.Errorf("result %d: %v vs %v", i, plain[i], fused[i])
					}
					continue
				}
				if !pa.Equal(fused[i].(*value.Array)) {
					t.Errorf("result %d differs under fusion", i)
				}
			}
		})
	}
}
