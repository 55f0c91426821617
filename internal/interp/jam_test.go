package interp_test

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/value"
)

// edgeBody is a 1-D recurrence of two equations carried into each other,
// so its only DO runs one span of the body, the equations jammed point
// by point. Y's real-valued guard does not split, so its one arm holds
// the reads S[I-2] and S[I+2] of the branch never taken: they leave S on
// the first and last two points, which therefore fall back to the
// checked kernels. At p = N, X reads the Y that the same fallback segment
// stored at p = N − 1, so the segment must interleave the two checked
// kernels point by point.
const edgeBody = `
Edge: module (S: array[I] of real; N: int): [X: array[I] of real; Y: array[I] of real];
type
    I = 0 .. N;
define
    (*eq.1*) X[I] = if I = 0 then S[I] else Y[I-1] * 0.5 + S[I];
    (*eq.2*) Y[I] = if S[I] > 100.0 then S[I-2] + S[I+2] else X[I] - 0.25 * S[I];
end Edge;
`

// cutsBody splits its two jammed equations at different points: X at
// I = 1, Y at I = B, N − B and N − B + 1, so the body's pieces run arm
// tuples that change one equation at a time.
const cutsBody = `
Cuts: module (S: array[I] of real; N: int; B: int): [X: array[I] of real; Y: array[I] of real];
type
    I = 0 .. N;
define
    (*eq.1*) X[I] = if I = 0 then S[I] else Y[I-1] * 0.5 + S[I];
    (*eq.2*) Y[I] = if I < B then X[I] - S[I] elsif I = N - B then X[I] * 2.0 else X[I] + 0.25;
end Cuts;
`

// slopeBody reads row 1 of S at slopes −1 and −2 along its jammed DO I:
// X through S[1, C - I], Y through S[1, D - 2*I]. C and D place the reads
// on S's column edges or one past them; one past, the flat offset still
// lands inside S's backing (on row 0 or 2), so only an exact certificate
// makes the run fail the way the point-wise kernels fail.
const slopeBody = `
Slope: module (S: array[K, L] of real; N: int; C: int; D: int):
    [X: array[I] of real; Y: array[I] of real];
type
    I = 0 .. N;  K = 0 .. 2;  L = 0 .. 2*N;
define
    (*eq.1*) X[I] = if I = 0 then S[1, C - I] else Y[I-1] * 0.5 + S[1, C - I];
    (*eq.2*) Y[I] = S[1, D - 2*I] + X[I];
end Slope;
`

// jamRow is one row of the jammed-span matrix: its options and whether
// it may run specialized instances.
type jamRow struct {
	name string
	opts interp.Options
	spec bool
}

// jamRows is Sequential() with and without the direct kernels and
// strict, then W ∈ {1, 2, 4} × Grain ∈ {default, 1}, then two workers
// without the direct kernels and strict.
func jamRows(t testing.TB) []jamRow {
	rows := []jamRow{
		{"Seq", interp.Options{Sequential: true}, true},
		{"SeqNoSpec", interp.Options{Sequential: true, NoSpecialize: true}, false},
		{"SeqStrict", interp.Options{Sequential: true, Strict: true}, false},
	}
	for _, w := range []int{1, 2, 4} {
		for _, g := range []int64{0, 1} {
			rows = append(rows, jamRow{fmt.Sprintf("W%dGrain%d", w, g), interp.Options{Pool: pool(t, w), Grain: g}, true})
		}
	}
	return append(rows,
		jamRow{"W2NoSpec", interp.Options{Pool: pool(t, 2), Grain: 1, NoSpecialize: true}, false},
		jamRow{"W2Strict", interp.Options{Pool: pool(t, 2), Grain: 1, Strict: true}, false},
	)
}

// TestJammedSpanParity runs multi-equation bodies on jammed spans —
// reflect's sequential DO J (its X[I-1, N+1-J] read walks backwards),
// coupled's jammed wavefront rows and its sequential DO J, Mirror's
// reflected read, a body whose fallback segments must interleave its
// equations, one whose equations split at different points, and slopes
// −1 and −2 on both edges of an axis — and
// requires every row bitwise equal to Sequential() without the direct
// kernels and arena, with the same equation instances. Specialized
// counts are honest: every instance in the default rows of the corpus
// programs, exactly the certified ones in the edge body, none under
// NoSpecialize or Strict.
func TestJammedSpanParity(t *testing.T) {
	sq := func(lo, hi int64) *value.Array {
		return realBox(value.Axis{Lo: lo, Hi: hi}, value.Axis{Lo: lo, Hi: hi})
	}
	read := func(path string) string {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	const n = 40
	for _, tc := range []struct {
		name, src, module string
		args              []any
		// k is the most equations a body span of either plan holds (0:
		// none; Mirror reads its reflected row on DOALL rows).
		k int
		// generic is the number of instances the default rows run on the
		// checked kernels.
		generic int64
	}{
		{"Reflect", read("../../testdata/reflect.ps"), "Reflect", []any{sq(1, 48), int64(48)}, 2, 0},
		{"Coupled", read("../../testdata/coupled.ps"), "Coupled", []any{sq(1, 48), int64(48)}, 2, 0},
		{"Mirror", reflectedRead, "Mirror", []any{sq(1, 48), int64(48)}, 0, 0},
		{"EdgeFallback", edgeBody, "Edge", []any{realBox(value.Axis{Hi: n}), int64(n)}, 2, 8},
		{"SecondEquationCuts", cutsBody, "Cuts", []any{realBox(value.Axis{Hi: n}), int64(n), int64(7)}, 2, 0},
		{"SlopeEdges", slopeBody, "Slope", []any{slopeSeed(n), int64(n), int64(2 * n), int64(2 * n)}, 2, 0},
		{"SlopeLowEdge", slopeBody, "Slope", []any{slopeSeed(n), int64(n), int64(n), int64(2 * n)}, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ip := compileSrc(t, tc.src)
			k := 0
			for _, opts := range []plan.Options{{}, {Hyperplane: true}} {
				pl := ip.Plan(tc.module, opts)
				for i := range pl.Steps {
					if pl.BodySpan(i) {
						k = max(k, len(pl.BodyEqs(i)))
					}
				}
			}
			if k != tc.k {
				t.Fatalf("the largest body span holds %d equations, want %d", k, tc.k)
			}
			var refStats interp.Stats
			want, err := ip.Run(tc.module, tc.args, interp.Options{Sequential: true, NoSpecialize: true, NoArena: true, Stats: &refStats})
			if err != nil {
				t.Fatal(err)
			}
			eqs := refStats.EqInstances.Load()
			for _, row := range jamRows(t) {
				var st interp.Stats
				opts := row.opts
				opts.Stats = &st
				got, err := ip.Run(tc.module, tc.args, opts)
				if err != nil {
					t.Fatalf("%s: %v", row.name, err)
				}
				if !sameBits(got, want) {
					t.Errorf("%s diverges from the checked sequential reference", row.name)
				}
				if got := st.EqInstances.Load(); got != eqs {
					t.Errorf("%s ran %d equation instances, the reference %d", row.name, got, eqs)
				}
				spec, wantSpec := st.Specialized.Load(), int64(0)
				if row.spec {
					wantSpec = eqs - tc.generic
				}
				if spec != wantSpec {
					t.Errorf("%s: Specialized = %d, want %d of %d", row.name, spec, wantSpec, eqs)
				}
			}
		})
	}
}

// slopeSeed builds slopeBody's S over [0, 2] × [0, 2n].
func slopeSeed(n int64) *value.Array {
	return realBox(value.Axis{Hi: 2}, value.Axis{Hi: 2 * n})
}

// TestJammedSpanSlopeBounds moves slopeBody's reads one column past
// either edge of S, at slope −1 (C) and −2 (D), on the first or the last
// point of the span. Every row must fail in the equation that reads out
// of range — the second equation of the body when D is off — and the
// default and NoSpecialize rows with the same error: the certificate
// must stop exactly at the edge for the span to reach the checked kernel
// there.
func TestJammedSpanSlopeBounds(t *testing.T) {
	const n = 12
	ip := compileSrc(t, slopeBody)
	for _, tc := range []struct {
		name string
		c, d int64
		eq   string
	}{
		{"SlopeMinus1FirstPoint", 2*n + 1, 2 * n, "eq.1"},
		{"SlopeMinus1LastPoint", n - 1, 2 * n, "eq.1"},
		{"SlopeMinus2FirstPoint", 2 * n, 2*n + 1, "eq.2"},
		{"SlopeMinus2LastPoint", 2 * n, 2*n - 1, "eq.2"},
		{"SlopeMinus2SkipsPastEdge", 2 * n, 2*n + 2, "eq.2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := []any{slopeSeed(n), int64(n), tc.c, tc.d}
			var wantErr string
			for _, row := range jamRows(t) {
				_, err := ip.Run("Slope", args, row.opts)
				var re *interp.RunError
				if !errors.As(err, &re) || re.Equation != tc.eq {
					t.Fatalf("%s: err = %v, want a RunError in %s", row.name, err, tc.eq)
				}
				// Strict reads go through value's own checked accessors,
				// which word the failure their way.
				switch {
				case row.opts.Strict:
				case wantErr == "":
					wantErr = err.Error()
				case err.Error() != wantErr:
					t.Errorf("%s: err = %q, want %q", row.name, err, wantErr)
				}
			}
		})
	}
}
