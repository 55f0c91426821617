package interp_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/psrc"
	"repro/internal/types"
	"repro/internal/value"
)

// secondOrder carries distances 1 and 2 along its only loop: the leaf DO
// I hands the whole range to one span, whose first two points fall back
// to the checked kernel (X[I-2] leaves the array there).
const secondOrder = `
Fib: module (Seed: array[I] of real; N: int): [X: array[I] of real];
type
    I = 0 .. N;
define
    (*eq.1*) X[I] = if I < 2 then Seed[I] else X[I-1] + 0.5 * X[I-2] - Seed[I];
end Fib;
`

// windowedSpan is the same recurrence on a local whose span axis is a
// §3.4 virtual window (only X[N] survives the loop): the offsets wrap
// mid-span, so the span must run the checked kernel throughout.
const windowedSpan = `
Win: module (Seed: array[I] of real; N: int): [Last: real];
type
    I = 0 .. N;
var
    X: array[I] of real;
define
    (*eq.1*) X[I] = if I < 2 then Seed[I] else X[I-1] + 0.5 * X[I-2] - Seed[I];
    (*eq.2*) Last = X[N];
end Win;
`

// outOfBounds reads Seed[I+K] along its recurrence: with K = 2 the last
// two points leave Seed, and the first of them must fail exactly as the
// point-wise loop fails there.
const outOfBounds = `
Oob: module (Seed: array[I] of real; N: int; K: int): [X: array[I] of real];
type
    I = 0 .. N;
define
    (*eq.1*) X[I] = if I = 0 then Seed[I] else X[I-1] * 0.5 + Seed[I+K];
end Oob;
`

// line builds a 1-D real array over 0..n with mixed-sign values.
func line(n int64) *value.Array {
	a := value.NewArray(types.RealKind, []value.Axis{{Lo: 0, Hi: n}})
	for i := range a.F {
		a.F[i] = float64((i*37+11)%23)/8 - 1.375
	}
	return a
}

// sameBits reports whether two result lists are bitwise identical.
func sameBits(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch x := a[i].(type) {
		case *value.Array:
			y, ok := b[i].(*value.Array)
			if !ok || len(x.F) != len(y.F) || !x.Equal(y) {
				return false
			}
			for k := range x.F {
				if math.Float64bits(x.F[k]) != math.Float64bits(y.F[k]) {
					return false
				}
			}
		case float64:
			y, ok := b[i].(float64)
			if !ok || math.Float64bits(x) != math.Float64bits(y) {
				return false
			}
		default:
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// TestSequentialLeafSpans runs recurrence nests whose innermost DO is a
// single equation under Sequential, Sequential+NoSpecialize and
// Sequential+Strict: the three must agree bit for bit — or fail with the
// same equation and error — and only the default row may count
// specialized instances.
func TestSequentialLeafSpans(t *testing.T) {
	const n = 40
	for _, tc := range []struct {
		name, src, module string
		args              []any
		// spec is whether the default row runs specialized instances.
		spec bool
		// window is the §3.4 window the sequential plan must keep on its
		// span axis (0: none expected).
		window int
		// fails marks a program every row must fail in eq.1.
		fails bool
	}{
		{"SecondOrder", secondOrder, "Fib", []any{line(n), int64(n)}, true, 0, false},
		{"GaussSeidel", psrc.RelaxationGS, "Relaxation", []any{grid(13), int64(13), int64(7)}, true, 0, false},
		{"WindowedSpanAxis", windowedSpan, "Win", []any{line(n), int64(n)}, false, 3, false},
		{"OutOfBounds", outOfBounds, "Oob", []any{line(n), int64(n), int64(2)}, true, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ip := compileSrc(t, tc.src)
			pl := ip.Plan(tc.module, plan.Options{})
			leaf := false
			for _, st := range pl.Steps {
				leaf = leaf || (st.Op == plan.OpDo && st.Leaf)
			}
			if !leaf {
				t.Fatalf("sequential plan has no leaf DO:\n%s", pl)
			}
			if tc.window > 0 && (len(pl.Virtual) != 1 || pl.Virtual[0].Window != tc.window) {
				t.Fatalf("sequential plan's windows = %v, want one of %d planes", pl.Virtual, tc.window)
			}
			var (
				want    []any
				wantErr string
			)
			for i, row := range []struct {
				name string
				opts interp.Options
				spec bool
			}{
				{"Seq", interp.Options{Sequential: true}, tc.spec},
				{"SeqNoSpec", interp.Options{Sequential: true, NoSpecialize: true}, false},
				{"SeqStrict", interp.Options{Sequential: true, Strict: true}, false},
			} {
				var st interp.Stats
				opts := row.opts
				opts.Stats = &st
				got, err := ip.Run(tc.module, tc.args, opts)
				if spec := st.Specialized.Load(); (spec > 0) != row.spec {
					t.Errorf("%s: Specialized = %d, want positive: %v", row.name, spec, row.spec)
				}
				if tc.fails {
					var re *interp.RunError
					if !errors.As(err, &re) || re.Equation != "eq.1" {
						t.Fatalf("%s: err = %v, want a RunError in eq.1", row.name, err)
					}
					// Strict reads go through value's own checked accessors,
					// which word the failure their way; the point-wise row
					// shares the span's checked kernel and its exact error.
					if i == 0 {
						wantErr = err.Error()
					} else if !row.opts.Strict && err.Error() != wantErr {
						t.Errorf("%s: err = %q, want %q", row.name, err, wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", row.name, err)
				}
				if i == 0 {
					want = got
				} else if !sameBits(got, want) {
					t.Errorf("%s diverges from the default Sequential run", row.name)
				}
			}
		})
	}
}

// TestSequentialLeafSpanCancel cancels a Gauss–Seidel nest far too long
// to finish: leaf spans poll once per row, the enclosing DOs once per
// iteration, so the run must stop promptly with context.Canceled.
func TestSequentialLeafSpanCancel(t *testing.T) {
	ip := compileSrc(t, psrc.RelaxationGS)
	const m = 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, err := ip.RunCtx(ctx, "Relaxation", []any{grid(m), int64(m), int64(1 << 40)}, interp.Options{Sequential: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v", d)
	}
}
