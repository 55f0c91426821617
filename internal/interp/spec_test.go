package interp_test

import (
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/psrc"
	"repro/internal/types"
	"repro/internal/value"
)

// reflectedRead is a recurrence whose group reference reads a
// reflected column: the subscript N + 1 - J has coefficient -1, so the
// specializer must keep the generic checked kernel for it.
const reflectedRead = `
Mirror: module (Seed: array[I,J] of real; N: int): [Out: array[I,J] of real];
type
    I, J = 1 .. N;
var
    X: array [1 .. N, 1 .. N] of real;
define
    (*eq.1*) X[I,J] = if I = 1 then Seed[I,J]
             else X[I-1, N+1-J] + Seed[I,J];
    (*eq.2*) Out[I,J] = X[I,J];
end Mirror;
`

// TestKernelEligibility pins which corpus equations compile to a
// specialized kernel, how many guard comparisons their spans split on,
// and why the negatives stay generic. The positive set is deliberately
// broad — every wavefront corpus equation must specialize, and so do
// degenerate single-point spans like Prefix's P[1] — while the pinned
// negatives cover the bail-outs: module calls and non-unit-stride
// subscripts.
func TestKernelEligibility(t *testing.T) {
	cases := []struct {
		name, src, module string
		want              map[string]bool // equation label -> specialized
		guards            map[string]int  // equation label -> split comparisons (absent: 0)
		reasons           map[string]string
	}{
		{"RelaxationGS", psrc.RelaxationGS, "Relaxation",
			map[string]bool{"eq.1": true, "eq.2": true, "eq.3": true}, map[string]int{"eq.3": 4}, nil},
		{"Wavefront2D", psrc.Wavefront2D, "Wavefront2D",
			map[string]bool{"eq.1": true, "eq.2": true}, map[string]int{"eq.1": 2}, nil},
		{"Heat1D", psrc.Heat1D, "Heat1D",
			map[string]bool{"eq.1": true, "eq.2": true, "eq.3": true}, map[string]int{"eq.3": 2}, nil},
		{"CoupledGrid", psrc.CoupledGrid, "CoupledGrid",
			map[string]bool{"eq.1": true, "eq.2": true, "eq.3": true}, map[string]int{"eq.1": 2, "eq.2": 2}, nil},
		{"Prefix", psrc.Prefix, "Prefix",
			map[string]bool{"eq.1": true, "eq.2": true, "eq.3": true}, nil, nil},
		{"Pipeline", psrc.Pipeline, "Pipeline",
			map[string]bool{"eq.1": false, "eq.2": false}, nil,
			map[string]string{"eq.1": "module call"}},
		{"Mirror", reflectedRead, "Mirror",
			map[string]bool{"eq.1": false, "eq.2": true}, nil,
			map[string]string{"eq.1": "subscript N + 1 - J is not unit-stride"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ip := compileSrc(t, tc.src)
			got := map[string]bool{}
			guards := map[string]int{}
			reasons := map[string]string{}
			for _, ks := range ip.Kernels(tc.module, plan.Options{Hyperplane: true}) {
				got[ks.Eq] = ks.Specialized
				guards[ks.Eq] = ks.Guards
				reasons[ks.Eq] = ks.Reason
			}
			for eq, want := range tc.want {
				if got[eq] != want {
					t.Errorf("%s specialized=%v (reason %q), want %v", eq, got[eq], reasons[eq], want)
				}
				if guards[eq] != tc.guards[eq] {
					t.Errorf("%s splits on %d guards, want %d", eq, guards[eq], tc.guards[eq])
				}
			}
			for eq, want := range tc.reasons {
				if reasons[eq] != want {
					t.Errorf("%s reason = %q, want %q", eq, reasons[eq], want)
				}
			}
		})
	}
}

// TestSpanDispatchParity runs the wavefront corpus programs with the
// specialized kernels enabled and disabled across every executor path —
// sequential leaf spans, inline plane sweeps, tiles (the Grain1 rows) —
// and demands bitwise-identical results, plus honest Specialized counters:
// positive by default, zero under NoSpecialize and Strict (the
// certified fast path must never claim checked points).
func TestSpanDispatchParity(t *testing.T) {
	ip := compileSrc(t, psrc.RelaxationGS)
	const m, maxK = 11, 6
	want := runGS(t, ip, m, maxK, interp.Options{Sequential: true, NoSpecialize: true, NoArena: true})
	for _, tc := range []struct {
		name        string
		opts        interp.Options
		specialized bool
		tiles       bool
	}{
		{"Seq", interp.Options{Sequential: true}, true, false},
		{"SeqNoArena", interp.Options{Sequential: true, NoArena: true}, true, false},
		{"SeqNoSpec", interp.Options{Sequential: true, NoSpecialize: true}, false, false},
		{"Par2", interp.Options{Workers: 2}, true, false},
		{"Par4NoSpec", interp.Options{Workers: 4, NoSpecialize: true}, false, false},
		{"Par4", interp.Options{Workers: 4}, true, false},
		{"Par2Grain1", interp.Options{Workers: 2, Grain: 1}, true, true},
		{"Par4Grain1NoSpec", interp.Options{Workers: 4, Grain: 1, NoSpecialize: true}, false, true},
		{"StrictSeq", interp.Options{Sequential: true, Strict: true}, false, false},
		{"StrictPar2", interp.Options{Workers: 2, Strict: true}, false, false},
		{"StrictPar2Grain1", interp.Options{Workers: 2, Grain: 1, Strict: true}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var st interp.Stats
			opts := tc.opts
			opts.Stats = &st
			got := runGS(t, ip, m, maxK, opts)
			if !got.Equal(want) {
				t.Error("result diverges from the generic sequential reference")
			}
			spec := st.Specialized.Load()
			if tc.specialized && spec == 0 {
				t.Error("specialized kernels did not execute")
			}
			if !tc.specialized && spec != 0 {
				t.Errorf("Specialized = %d on a generic-only run", spec)
			}
			if tiles := st.Doacross.Tiles.Load(); (tiles > 0) != tc.tiles {
				t.Errorf("Doacross.Tiles = %d, want tiled = %v", tiles, tc.tiles)
			}
			if eq := st.EqInstances.Load(); spec > eq {
				t.Errorf("Specialized (%d) exceeds EqInstances (%d)", spec, eq)
			}
		})
	}
}

// opTable exercises every operator and builtin of the specializable
// fragment over real and integer-backed (int, char, enum) arrays, so
// the one expression lowering is checked in both addressing modes.
const opTable = `
Ops: module (Xs: array [I] of real; Ys: array [I] of real; Hs: array [I] of real;
             Ps: array [I] of int; Qs: array [I] of int; Cs: array [I] of char;
             N: int; s: real; shift: int; flag: bool):
    [RA: array [I] of real; RB: array [I] of real; RC: array [I] of real;
     RD: array [I] of real; RE: array [I] of real; RF: array [I] of real;
     RG: array [I] of real; RH: array [I] of real;
     IA: array [I] of int; IB: array [I] of int; IC: array [I] of int;
     ID: array [I] of int; IE: array [I] of int; IG: array [I] of int];
type
    I = 1 .. N;
    Color = (green, yellow, red);
var
    Hue: array [1 .. N] of Color;
define
    Hue[I] = if Ps[I] mod 3 = 0 then red elsif Ps[I] mod 3 = 1 then green else yellow;
    RA[I] = Xs[I] + Ys[I] * s - Xs[I] / Ys[I];
    RB[I] = -Xs[I] - (-(Ys[I] * 0.0));
    RC[I] = sqrt(abs(Xs[I])) + sin(Xs[I]) * cos(Ys[I]) + exp(min(Xs[I], 3.0))
            + ln(abs(Ys[I]) + 1.0) + pow(abs(Xs[I]), 0.5);
    RD[I] = min(Xs[I], Ys[I]);
    RE[I] = max(Xs[I], Ys[I]);
    RF[I] = float(Ps[I]) + Qs[I] + float(I) + Hs[I] * shift;
    RG[I] = if Xs[I] < Ys[I] then 1.0
            elsif Xs[I] = Ys[I] then (if Xs[I] <= 0.0 then 2.0 else 2.5)
            elsif Xs[I] > Ys[I] then (if Xs[I] >= 1.0 then 3.0 elsif Ys[I] <> 0.0 then 3.25 else 3.5)
            else 4.0;
    RH[I] = if ((Xs[I] <> Ys[I]) = flag) and not ((Ps[I] < Qs[I]) <> flag) then 1.0
            elsif (Xs[I] > 0.0) or flag then 2.0 else 3.0;
    IA[I] = Ps[I] + Qs[I] * 2 - Ps[I] div Qs[I] + Ps[I] mod Qs[I] + shift;
    IB[I] = abs(Ps[I]) + min(Ps[I], Qs[I]) - max(Ps[I], Qs[I]) + (-Ps[I]);
    IC[I] = trunc(Hs[I]) * 100 + round(Hs[I]);
    ID[I] = ord(Cs[I]) + (if (Cs[I] >= 'a') and (Cs[I] <= 'z') then 1 elsif Cs[I] = 'Q' then 2 else 0);
    IE[I] = if Hue[I] = red then 1 elsif Hue[I] < yellow then 2 elsif Hue[I] <> yellow then 3 else 4;
    IG[I] = if Ps[I] <= Qs[I] then (if Ps[I] = Qs[I] then 0 else -1)
            elsif Ps[I] >= 2 * Qs[I] then 2 else 1;
end Ops;
`

// TestOperatorTableParity runs opTable — NaN, ±Inf and −0.0 operands,
// negative div/mod, min/max with NaN, trunc/round at .5, char, enum and
// bool comparisons, nested if/elsif — through the direct kernels
// (default), the checked kernels (NoSpecialize) and strict mode,
// sequentially and on two workers, and demands bitwise-equal outputs.
// Every equation must specialize, and Specialized must be positive in
// the default rows only.
func TestOperatorTableParity(t *testing.T) {
	ip := compileSrc(t, opTable)
	for _, ks := range ip.Kernels("Ops", plan.Options{}) {
		if !ks.Specialized {
			t.Errorf("%s (%s) left the specializable fragment: %s", ks.Eq, ks.Target, ks.Reason)
		}
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	xs := []float64{nan, negZero, 0, 1.5, -2.5, inf, -inf, 3, nan, negZero, 1e300, -7.25}
	ys := []float64{1, 0, negZero, nan, -2.5, 2, -inf, negZero, nan, negZero, 1e300, 0.5}
	hs := []float64{-2.5, -1.5, -0.5, 0.5, 1.5, 2.5, negZero, 0.49999999999999994, -3.7, 3.7, 1e15 + 0.5, -1e15 - 0.5}
	ps := []int64{-7, 7, -7, 7, 0, -1, 9, -9, 6, -6, 1 << 40, -(1 << 40)}
	qs := []int64{2, -2, -2, 2, 5, 1, -3, 3, 6, -6, 3, 7}
	cs := []int64{'a', 'z', 'Q', 'A', '{', '`', 'm', ' ', 'q', 'Z', '0', '~'}
	n := int64(len(xs))
	reals := func(v []float64) *value.Array {
		a := value.NewArray(types.RealKind, []value.Axis{{Lo: 1, Hi: n}})
		copy(a.F, v)
		return a
	}
	ints := func(kind types.Kind, v []int64) *value.Array {
		a := value.NewArray(kind, []value.Axis{{Lo: 1, Hi: n}})
		copy(a.I, v)
		return a
	}
	args := []any{reals(xs), reals(ys), reals(hs), ints(types.IntKind, ps), ints(types.IntKind, qs),
		ints(types.CharKind, cs), n, 0.75, int64(-3), true}

	var want []any
	for _, tc := range []struct {
		name        string
		opts        interp.Options
		specialized bool
	}{
		{"Seq", interp.Options{Sequential: true}, true},
		{"Par2", interp.Options{Workers: 2}, true},
		{"SeqNoSpec", interp.Options{Sequential: true, NoSpecialize: true}, false},
		{"Par2NoSpec", interp.Options{Workers: 2, NoSpecialize: true}, false},
		{"SeqStrict", interp.Options{Sequential: true, Strict: true}, false},
		{"Par2Strict", interp.Options{Workers: 2, Strict: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var st interp.Stats
			opts := tc.opts
			opts.Stats = &st
			got, err := ip.Run("Ops", args, opts)
			if err != nil {
				t.Fatal(err)
			}
			if spec := st.Specialized.Load(); (spec > 0) != tc.specialized {
				t.Errorf("Specialized = %d, want positive: %v", spec, tc.specialized)
			}
			if want == nil {
				want = got
				return
			}
			for r, res := range got {
				g, w := res.(*value.Array), want[r].(*value.Array)
				for i := range w.F {
					if math.Float64bits(g.F[i]) != math.Float64bits(w.F[i]) {
						t.Errorf("result %d [%d] = %v (%#x), want %v (%#x)", r, i+1,
							g.F[i], math.Float64bits(g.F[i]), w.F[i], math.Float64bits(w.F[i]))
					}
				}
				for i := range w.I {
					if g.I[i] != w.I[i] {
						t.Errorf("result %d [%d] = %d, want %d", r, i+1, g.I[i], w.I[i])
					}
				}
			}
		})
	}
	if want == nil {
		t.Fatal("no reference row ran")
	}
	// Spot-check the reference row itself against Go's own semantics, so
	// the six rows cannot agree on a wrong answer for the corner cases.
	ia, ic, rd, re := want[8].(*value.Array).I, want[10].(*value.Array).I, want[3].(*value.Array).F, want[4].(*value.Array).F
	for i := range ps {
		if w := ps[i] + qs[i]*2 - ps[i]/qs[i] + ps[i]%qs[i] - 3; ia[i] != w {
			t.Errorf("IA[%d] = %d, want %d (truncated div/mod)", i+1, ia[i], w)
		}
		if w := int64(math.Trunc(hs[i]))*100 + int64(math.Round(hs[i])); ic[i] != w {
			t.Errorf("IC[%d] = %d, want %d (trunc/round of %v)", i+1, ic[i], w, hs[i])
		}
		if w := math.Min(xs[i], ys[i]); math.Float64bits(rd[i]) != math.Float64bits(w) {
			t.Errorf("RD[%d] = %v, want %v", i+1, rd[i], w)
		}
		if w := math.Max(xs[i], ys[i]); math.Float64bits(re[i]) != math.Float64bits(w) {
			t.Errorf("RE[%d] = %v, want %v", i+1, re[i], w)
		}
	}
}

// TestSpanParityRepeated re-runs one compiled program many times with
// the arena enabled, interleaving parallel and sequential activations:
// recycled backings must never leak one run's values into the next
// (the write-coverage zeroing decision is what is under test).
func TestSpanParityRepeated(t *testing.T) {
	ip := compileSrc(t, psrc.Wavefront2D)
	const n = 9
	ref, err := ip.Run("Wavefront2D", []any{grid(n), int64(n)}, interp.Options{Sequential: true, NoArena: true})
	if err != nil {
		t.Fatal(err)
	}
	want := ref[0].(*value.Array)
	for rep := 0; rep < 6; rep++ {
		opts := interp.Options{Sequential: rep%2 == 0}
		if !opts.Sequential {
			opts.Workers = 2 + rep%3
		}
		res, err := ip.Run("Wavefront2D", []any{grid(n), int64(n)}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := res[0].(*value.Array); !got.Equal(want) {
			t.Fatalf("rep %d diverges under arena reuse", rep)
		}
	}
}

// BenchmarkKernelDispatch measures the per-point cost of the generic
// checked closure tree against the specialized span kernel on the
// 3-point stencil (psrc.Smooth), the smallest body where addressing
// overhead dominates, and on the boundary-guarded 5-point relaxation
// (psrc.Relaxation), whose spans split on their four guard comparisons.
func BenchmarkKernelDispatch(b *testing.B) {
	smooth := compileSrc(b, psrc.Smooth)
	const n = 4096
	xs := value.NewArray(types.RealKind, []value.Axis{{Lo: 0, Hi: n + 1}})
	for i := int64(0); i <= n+1; i++ {
		xs.SetF([]int64{i}, float64((i*13+5)%23)/7.0)
	}
	relax := compileSrc(b, psrc.Relaxation)
	const m = 62
	for _, tc := range []struct {
		name   string
		ip     *interp.Program
		module string
		args   []any
		opts   interp.Options
	}{
		{"Specialized", smooth, "Smooth", []any{xs, int64(n)}, interp.Options{Sequential: true}},
		{"Generic", smooth, "Smooth", []any{xs, int64(n)}, interp.Options{Sequential: true, NoSpecialize: true}},
		{"GuardedSpecialized", relax, "Relaxation", []any{grid(m), int64(m), int64(3)}, interp.Options{Sequential: true}},
		{"GuardedGeneric", relax, "Relaxation", []any{grid(m), int64(m), int64(3)}, interp.Options{Sequential: true, NoSpecialize: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.ip.Run(tc.module, tc.args, tc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
