package ps_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/ps"
)

// noSpec runs every span on the checked kernels, the reference the
// Checked rows diff the span kernels' error attribution against.
var noSpec = ps.RunOption(func(o *interp.Options) { o.NoSpecialize = true })

// divDo is a 1-D recurrence whose two equations carry into each other,
// so its DO I runs one span of the body with X and Y jammed point by
// point. Y, the second equation, divides by zero at I = P.
const divDo = `
DivDo: module (S: array[I] of real; N: int; P: int): [Out: array[I] of real];
type
    I = 0 .. N;
var
    X: array [0 .. N] of real;
    Y: array [0 .. N] of real;
define
    (*eq.1*) X[I] = if I = 0 then S[I] else Y[I-1] * 0.5 + S[I];
    (*eq.2*) Y[I] = X[I] + float(1 div (I - P));
    (*eq.3*) Out[I] = X[I] * Y[I];
end DivDo;
`

// divTile is coupled's recurrence with the body order U, V: U reads
// V[I, J-1], a dependence inside a row from the later equation to the
// earlier, so the wavefront's rows are one jammed span of both. V, the
// second equation, divides by zero at the one interior point with
// I + J = P.
const divTile = `
DivTile: module (Seed: array[I,J] of real; N: int; P: int): [Out: array[I,J] of real];
type
    I, J = 1 .. N;
var
    U: array [1 .. N, 1 .. N] of real;
    V: array [1 .. N, 1 .. N] of real;
define
    (*eq.1*) U[I,J] = if (I = 1) or (J = 1) or (J = N)
                      then Seed[I,J]
                      else (U[I-1,J+1] + V[I,J-1]) / 2.0;
    (*eq.2*) V[I,J] = if (I = 1) or (J = 1) or (J = N)
                      then 0.5 * Seed[I,J]
                      else (V[I-1,J+1] + U[I,J]) / 2.0 + float(1 div (I + J - P));
    (*eq.3*) Out[I,J] = U[I,J] + V[I,J];
end DivTile;
`

// settleGoroutines waits for the goroutine count to fall back to base,
// returning the count it ended at.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for end := time.Now().Add(2 * time.Second); n > base && time.Now().Before(end); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestJamErrorAttribution divides by zero in the second equation of a
// jammed body — a sequential leaf DO and the rows of a tiled wavefront —
// on the direct kernels and on the checked ones. The run must fail with
// a *ps.Error naming that equation, not the body's first; once the runs
// return no goroutine may be left, and the same runners must go on
// recycling arena backings and matching Sequential() bit for bit.
func TestJamErrorAttribution(t *testing.T) {
	const n = 48
	line := ps.NewRealArray(ps.Axis{Lo: 0, Hi: n})
	for i := int64(0); i <= n; i++ {
		line.SetF([]int64{i}, float64(i%5)+0.5)
	}
	square := ps.NewRealArray(ps.Axis{Lo: 1, Hi: n}, ps.Axis{Lo: 1, Hi: n})
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			square.SetF([]int64{i, j}, float64((i*7+j*3)%11)/10)
		}
	}
	for _, tc := range []struct {
		name, src, module, explain string
		arg                        *ps.Array
		fail, pass                 int64 // P that divides by zero, P that never does
		opts                       []ps.RunOption
	}{
		{"LeafDo", divDo, "DivDo", "do I leaf", line, n / 2, -1, []ps.RunOption{ps.Sequential()}},
		{"LeafDoFirstPoint", divDo, "DivDo", "do I leaf", line, 0, -1, []ps.RunOption{ps.Sequential()}},
		{"LeafDoChecked", divDo, "DivDo", "do I leaf", line, n / 2, -1, []ps.RunOption{ps.Sequential(), noSpec}},
		{"TileRow", divTile, "DivTile", "rows along J, jammed", square, n, 4 * n, []ps.RunOption{ps.Workers(2), ps.Grain(1)}},
		{"TileRowW4", divTile, "DivTile", "rows along J, jammed", square, n, 4 * n, []ps.RunOption{ps.Workers(4), ps.Grain(1)}},
		{"TileRowChecked", divTile, "DivTile", "rows along J, jammed", square, n, 4 * n, []ps.RunOption{ps.Workers(2), ps.Grain(1), noSpec}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := newEngine(t).Compile(tc.module+".ps", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			run, err := prog.Prepare(tc.module, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if ex := run.Explain(); !strings.Contains(ex, tc.explain) {
				t.Fatalf("plan does not run a jammed body (%q):\n%s", tc.explain, ex)
			}
			ok := []any{tc.arg, int64(n), tc.pass}
			want, err := runOnce(prog, tc.module, ok, ps.Sequential())
			if err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()
			for rep := 0; rep < 3; rep++ {
				_, _, err := run.Run(context.Background(), []any{tc.arg, int64(n), tc.fail})
				var pe *ps.Error
				if !errors.As(err, &pe) || pe.Equation != "eq.2" || !strings.Contains(err.Error(), "division by zero") {
					t.Fatalf("err = %v, want a *ps.Error naming eq.2's division by zero", err)
				}
			}
			if got := settleGoroutines(base); got > base {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines after the failed runs, %d before:\n%s", got, base, buf[:runtime.Stack(buf, true)])
			}
			// sync.Pool drops some Puts under -race, so reuse is required
			// over several runs, not of each.
			var reuses int64
			for rep := 0; rep < 6; rep++ {
				got, stats, err := run.Run(context.Background(), ok)
				if err != nil {
					t.Fatal(err)
				}
				reuses += stats.ArenaReuses
				for r := range want {
					if !got[r].(*ps.Array).Equal(want[r].(*ps.Array)) {
						t.Errorf("run %d after the failures: result %d diverges from Sequential()", rep, r)
					}
				}
			}
			if reuses == 0 {
				t.Error("six runs after the failures recycled no arena backing")
			}
		})
	}
}
