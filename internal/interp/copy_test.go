package interp_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/value"
)

// identityCopies copies a real and an int grid: each equation's value is
// a bare read of another array at the target's own point.
const identityCopies = `
Ident: module (X: array[I,J] of real; P: array[I,J] of int; N: int):
    [Out: array[I,J] of real; Oi: array[I,J] of int];
type
    I, J = 1 .. N;
define
    (*eq.1*) Out[I,J] = X[I,J];
    (*eq.2*) Oi[I,J] = P[I,J];
end Ident;
`

// shiftedSelf carries each row's first element along the row: arm 1
// copies S, arm 2 reads its own target one column back, which only a
// point-by-point walk propagates.
const shiftedSelf = `
Shift: module (S: array[I,J] of real; N: int): [Out: array[I,J] of real];
type
    I, J = 1 .. N;
var
    X: array [1 .. N, 1 .. N] of real;
define
    (*eq.1*) X[I,J] = if J = 1 then S[I,J] else X[I,J-1];
    (*eq.2*) Out[I,J] = X[I,J];
end Shift;
`

// reflectedCopy reads its source row backwards (slope −1 along J).
const reflectedCopy = `
Flip: module (X: array[I,J] of real; N: int): [Out: array[I,J] of real];
type
    I, J = 1 .. N;
define
    (*eq.1*) Out[I,J] = X[I, N+1-J];
end Flip;
`

// overrun reads D points ahead of its target: the certificate of its one
// span ends D points before the span does, so the copy of the certified
// points is followed by the checked fallback, which fails on the first
// read past S.
const overrun = `
Overrun: module (S: array[I] of real; N: int; D: int): [Out: array[I] of real];
type
    I = 1 .. N;
define
    (*eq.1*) Out[I] = S[I + D];
end Overrun;
`

// TestCopySpan runs equations whose value is a bare read — real and int
// identity copies, a copy out of a windowed array (newA = A[maxK]), a
// same-array shifted read and a reflected read (both of which must stay
// point-wise), and a copy whose certificate stops short of its span —
// through the jammed-span matrix (Sequential() with and without the
// direct kernels and strict, W ∈ {1, 2, 4} × Grain ∈ {0, 1}). Every row
// must match Sequential() on the checked kernels without the arena
// bitwise, with the same equation instances, or fail with the same
// error; Program.Kernels names exactly the arms that run as copies.
func TestCopySpan(t *testing.T) {
	const n = 12
	ints := value.NewArray(types.IntKind, []value.Axis{{Lo: 1, Hi: n}, {Lo: 1, Hi: n}})
	for i := range ints.I {
		ints.I[i] = int64(i*7%11) - 5
	}
	sq := realBox(value.Axis{Lo: 1, Hi: n}, value.Axis{Lo: 1, Hi: n})
	row := realBox(value.Axis{Lo: 1, Hi: n})
	for _, tc := range []struct {
		name, src, module string
		args              []any
		// copies maps an equation label to its copy arms under either plan.
		copies map[string][]int
		fails  bool
	}{
		{"RealAndIntIdentity", identityCopies, "Ident", []any{sq, ints, int64(n)},
			map[string][]int{"eq.1": {1}, "eq.2": {1}}, false},
		{"WindowedSource", repro.Source("relaxation"), "Relaxation", []any{grid(n), int64(n), int64(5)},
			map[string][]int{"eq.1": {1}, "eq.2": {1}}, false},
		{"SameArrayShift", shiftedSelf, "Shift", []any{sq, int64(n)},
			map[string][]int{"eq.1": {1}, "eq.2": {1}}, false},
		{"ReflectedSource", reflectedCopy, "Flip", []any{sq, int64(n)}, nil, false},
		{"CutByCertificate", overrun, "Overrun", []any{row, int64(n), int64(2)},
			map[string][]int{"eq.1": {1}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ip := compileSrc(t, tc.src)
			for _, opts := range []plan.Options{{}, {Hyperplane: true}} {
				for _, ks := range ip.Kernels(tc.module, opts) {
					if want := tc.copies[ks.Eq]; !slices.Equal(ks.CopyArms, want) {
						t.Errorf("%s (%s): copy arms %v, want %v", ks.Eq, ks.Target, ks.CopyArms, want)
					}
				}
			}
			var refStats interp.Stats
			want, refErr := ip.Run(tc.module, tc.args, interp.Options{Sequential: true, NoSpecialize: true, NoArena: true, Stats: &refStats})
			if (refErr != nil) != tc.fails {
				t.Fatalf("reference error %v, want failure: %v", refErr, tc.fails)
			}
			eqs := refStats.EqInstances.Load()
			for _, r := range jamRows(t) {
				var st interp.Stats
				opts := r.opts
				opts.Stats = &st
				got, err := ip.Run(tc.module, tc.args, opts)
				if tc.fails {
					// Strict mode words the same range error through value's
					// checked accessors.
					var re, want *interp.RunError
					if !errors.As(err, &re) || !errors.As(refErr, &want) || re.Equation != want.Equation ||
						!strings.HasSuffix(re.Err.Error(), want.Err.Error()) {
						t.Errorf("%s: error %v, want %v", r.name, err, refErr)
					}
				} else if err != nil {
					t.Fatalf("%s: %v", r.name, err)
				} else if !sameBits(got, want) {
					t.Errorf("%s diverges from the checked sequential reference", r.name)
				}
				// A failing DOALL run on tiles stops each tile at its own
				// point; only an inline one counts deterministically.
				if got := st.EqInstances.Load(); got != eqs && (!tc.fails || st.Chunks.Load() == 0) {
					t.Errorf("%s ran %d equation instances, the reference %d", r.name, got, eqs)
				}
			}
		})
	}
}

// rowScan carries a recurrence along each row of a grid, reading row
// I + D of Xs: the rows are independent, so A lowers to doall I around
// do J leaf, a DOALL whose body holds a loop, and P's copy to a
// collapsed leaf DOALL.
const rowScan = `
Scan: module (Xs: array[I,J] of real; N: int; D: int): [P: array[I,J] of real];
type
    I, J = 0 .. N;
var
    A: array [0 .. N, 0 .. N] of real;
define
    (*eq.1*) A[I,J] = if J = 0 then Xs[I+D,J] else 0.5 * A[I,J-1] + Xs[I+D,J];
    (*eq.2*) P[I,J] = A[I,J];
end Scan;
`

// wide reads row I of B from A at I·N + J + D: a D past N reads beyond
// A's (M + 1)·N points on every row, at a subscript that grows with the
// row.
const wide = `
Wide: module (A: array [1 .. (M + 1) * N] of real; M: int; N: int; D: int): [B: array [I,J] of real];
type
    I = 1 .. M;
    J = 1 .. N;
define
    B[I,J] = A[I * N + J + D] * 2.0;
end Wide;
`

// TestDoAllEarliestFailure runs DOALLs that fail at many points on
// tiles at W ∈ {2, 4}: the tiles fail in whatever order they are
// claimed, and each run must still report the earliest failing point's
// error, the one the inline sweep meets. Every argument has its
// declared shape; the reads run past it. Overrun's leaf DOALL reads past
// S from I = 57 on (subscript 257); rowScan's DOALL I, whose body is a
// loop, reads 36 rows ahead, past Xs's row 63 on every row from I = 28
// on (subscript 64), inside a tile that no worker claims first. wide's
// 2 × 400 DOALL, too short in I for 4W tiles, is also cut in J; it reads
// 700 points ahead in an A of 1 200, so row 1 fails from J = 101 on
// (subscript 1201) and row 2 at every point (subscript 1501 first).
func TestDoAllEarliestFailure(t *testing.T) {
	const n, d = 256, 200
	for _, tc := range []struct {
		src, module, want string
		args              []any
	}{
		{overrun, "Overrun", "subscript 257 ",
			[]any{realBox(value.Axis{Lo: 1, Hi: n}), int64(n), int64(d)}},
		{rowScan, "Scan", "subscript 64 ",
			[]any{realBox(value.Axis{Lo: 0, Hi: 63}, value.Axis{Lo: 0, Hi: 63}), int64(63), int64(36)}},
		{wide, "Wide", "subscript 1201 ",
			[]any{realBox(value.Axis{Lo: 1, Hi: 1200}), int64(2), int64(400), int64(700)}},
	} {
		ip := compileSrc(t, tc.src)
		_, refErr := ip.Run(tc.module, tc.args, interp.Options{Sequential: true})
		if refErr == nil || !strings.Contains(refErr.Error(), tc.want) {
			t.Fatalf("%s: reference error %v, want %q", tc.module, refErr, tc.want)
		}
		for _, w := range []int{2, 4} {
			for rep := 0; rep < 10; rep++ {
				var st interp.Stats
				_, err := ip.Run(tc.module, tc.args, interp.Options{Pool: pool(t, w), Grain: 1, Stats: &st})
				if st.Chunks.Load() == 0 {
					t.Fatalf("%s W=%d: the DOALL ran inline", tc.module, w)
				}
				if err == nil || err.Error() != refErr.Error() {
					t.Fatalf("%s W=%d run %d: error %v, want %v", tc.module, w, rep, err, refErr)
				}
			}
		}
	}
}
