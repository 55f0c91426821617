package interp_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/value"
)

// realBox builds a real array over the given inclusive axes with
// deterministic, sign-varied values.
func realBox(axes ...value.Axis) *value.Array {
	a := value.NewArray(types.RealKind, axes)
	for i := range a.F {
		a.F[i] = float64((i*31+7)%19)/19.0 - 0.25
	}
	return a
}

// ints builds a 1-D int array over [lo, hi] from a four-letter alphabet.
func ints(lo, hi int64) *value.Array {
	a := value.NewArray(types.IntKind, []value.Axis{{Lo: lo, Hi: hi}})
	for i := range a.I {
		a.I[i] = int64((i*5 + 3) % 4)
	}
	return a
}

// sameFloats compares two result lists bit for bit.
func sameFloats(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i].(*value.Array), b[i].(*value.Array)
		if len(x.F) != len(y.F) {
			return false
		}
		for k := range x.F {
			if math.Float64bits(x.F[k]) != math.Float64bits(y.F[k]) {
				return false
			}
		}
	}
	return true
}

// wavefrontCorpus lists every wavefront program of testdata/ and
// benchmark/programs/ with arguments sized so the default grain tiles
// at two workers for most of them, and Grain(1) tiles all of them.
func wavefrontCorpus() []struct {
	path, module string
	args         []any
} {
	sq := func(lo, hi int64) *value.Array {
		return realBox(value.Axis{Lo: lo, Hi: hi}, value.Axis{Lo: lo, Hi: hi})
	}
	type prog = struct {
		path, module string
		args         []any
	}
	var progs []prog
	for _, dir := range []string{"../../testdata/", "../../benchmark/programs/"} {
		progs = append(progs,
			prog{dir + "gauss_seidel.ps", "Relaxation", []any{sq(0, 31), int64(30), int64(6)}},
			prog{dir + "heat3d.ps", "Heat3D", []any{realBox(value.Axis{Hi: 20}, value.Axis{Hi: 20}, value.Axis{Hi: 20}), int64(20)}},
			prog{dir + "edit_distance.ps", "EditDistance", []any{ints(1, 130), ints(1, 150), int64(130), int64(150)}},
			prog{dir + "smith_waterman.ps", "SmithWaterman", []any{ints(0, 130), ints(0, 140), int64(130), int64(140)}},
			prog{dir + "mutual.ps", "Mutual", []any{sq(0, 129), int64(128)}},
			prog{dir + "coupled.ps", "Coupled", []any{sq(1, 130), int64(130)}},
		)
	}
	progs = append(progs,
		prog{"../../testdata/diag_chain.ps", "DiagChain", []any{sq(1, 130), int64(130)}},
		prog{"../../testdata/skew_stencil.ps", "SkewStencil", []any{sq(0, 131), int64(130)}},
		prog{"../../testdata/fuse_pair.ps", "FusePair", []any{sq(0, 131), int64(130)}},
	)
	return progs
}

// TestTiledWavefrontParity runs every wavefront program of the corpus
// at W ∈ {1, 2, 4} × Grain ∈ {default, 1} and requires each result to
// be bitwise equal to Sequential()'s, with the same equation instances.
// The grid covers both sides of the dispatch rule: W = 1 sweeps one
// tile covering the box, Grain(1) at W ≥ 2 always runs the tile grid.
func TestTiledWavefrontParity(t *testing.T) {
	for _, tp := range wavefrontCorpus() {
		src, err := os.ReadFile(tp.path)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimPrefix(strings.TrimSuffix(tp.path, ".ps"), "../../")
		t.Run(name, func(t *testing.T) {
			ip := compileSrc(t, string(src))
			if !ip.Plan(tp.module, plan.Options{Hyperplane: true}).HasWavefront() {
				t.Fatal("the cascade plan has no wavefront step")
			}
			var seqStats interp.Stats
			want, err := ip.Run(tp.module, tp.args, interp.Options{Sequential: true, Stats: &seqStats})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 4} {
				for _, g := range []int64{0, 1} {
					var stats interp.Stats
					got, err := ip.Run(tp.module, tp.args, interp.Options{Pool: pool(t, w), Grain: g, Stats: &stats})
					if err != nil {
						t.Fatalf("W=%d grain %d: %v", w, g, err)
					}
					if !sameFloats(got, want) {
						t.Errorf("W=%d grain %d diverges from Sequential()", w, g)
					}
					if a, b := stats.EqInstances.Load(), seqStats.EqInstances.Load(); a != b {
						t.Errorf("W=%d grain %d ran %d equation instances, Sequential() %d", w, g, a, b)
					}
					tiled := stats.Doacross.Tiles.Load() > 0
					if w == 1 && tiled {
						t.Errorf("W=1 ran %d tiles", stats.Doacross.Tiles.Load())
					}
					if w > 1 && g == 1 && !tiled {
						t.Errorf("W=%d grain 1 swept inline", w)
					}
				}
			}
		})
	}
}

// TestWavefrontRowSplit pins the row mode of the two multi-equation
// wavefronts: mutual's only dependences inside a row are each
// equation's own (0,1), so each equation runs its whole row in turn;
// coupled's V reads U[I,J−1], a dependence inside a row of its skew
// (I, J+I) from the later body equation back to the earlier, so its
// equations are jammed point by point. Both stay bitwise equal to
// Sequential() on the tile grid.
func TestWavefrontRowSplit(t *testing.T) {
	for _, tc := range []struct {
		file, module string
		args         []any
		split        bool
		skew         string
	}{
		{"mutual.ps", "Mutual", []any{realBox(value.Axis{Hi: 41}, value.Axis{Hi: 41}), int64(40)}, true, "[[1 0] [0 1]]"},
		{"coupled.ps", "Coupled", []any{realBox(value.Axis{Lo: 1, Hi: 40}, value.Axis{Lo: 1, Hi: 40}), int64(40)}, false, "[[1 0] [1 1]]"},
	} {
		src, err := os.ReadFile("../../testdata/" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		ip := compileSrc(t, string(src))
		pl := ip.Plan(tc.module, plan.Options{Hyperplane: true})
		var hy *plan.Hyper
		for i := range pl.Steps {
			if pl.Steps[i].Op == plan.OpWavefront {
				hy = pl.Steps[i].Hyper
			}
		}
		if hy == nil {
			t.Fatalf("%s: no wavefront step", tc.module)
		}
		if hy.RowSplit != tc.split {
			t.Errorf("%s: RowSplit = %v, want %v", tc.module, hy.RowSplit, tc.split)
		}
		if got := fmt.Sprint(hy.Skew); got != tc.skew {
			t.Errorf("%s: skew %s, want %s", tc.module, got, tc.skew)
		}
		want, err := ip.Run(tc.module, tc.args, interp.Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ip.Run(tc.module, tc.args, interp.Options{Pool: pool(t, 2), Grain: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloats(got, want) {
			t.Errorf("%s: tiled run diverges from Sequential()", tc.module)
		}
	}
}

// TestWavefrontDegenerateAxis pins the grid of a box that fixes a
// skewed coordinate to one value. Gauss–Seidel at maxK = 2 runs one K
// plane: the grid skips K and tiles (I+K, J+K) instead of making a
// single chain of tiles. At M = 64 and W = 2 those take 66 values each,
// so the average of 4356 points over 131 anti-diagonals (33) stays below
// the default rule's 64 and the nest runs inline; Grain(1) cuts I+K into
// 8 tiles and the row J+K into 2, 16 tiles over 9 planes. A nest whose
// second tiled coordinate takes one value would be one chain of tiles,
// so it runs inline even at Grain(1). Every run matches Sequential().
func TestWavefrontDegenerateAxis(t *testing.T) {
	gs := compileSrc(t, repro.Source("gauss_seidel"))
	want := runGS(t, gs, 64, 2, interp.Options{Sequential: true})
	for _, tc := range []struct {
		grain         int64
		tiles, planes int64
	}{{0, 0, 1}, {1, 16, 9}} {
		var stats interp.Stats
		got := runGS(t, gs, 64, 2, interp.Options{Pool: pool(t, 2), Grain: tc.grain, Stats: &stats})
		if !sameFloats([]any{got}, []any{want}) {
			t.Errorf("GS maxK=2 grain %d diverges from Sequential()", tc.grain)
		}
		if tiles, planes := stats.Doacross.Tiles.Load(), stats.Planes.Load(); tiles != tc.tiles || planes != tc.planes {
			t.Errorf("GS maxK=2 grain %d ran %d tiles over %d planes, want %d over %d",
				tc.grain, tiles, planes, tc.tiles, tc.planes)
		}
	}

	sl := compileSrc(t, slab)
	args := []any{realBox(value.Axis{Hi: 40}, value.Axis{Hi: 0}, value.Axis{Hi: 40}), int64(40), int64(0)}
	wantSlab, err := sl.Run("Slab", args, interp.Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	var stats interp.Stats
	got, err := sl.Run("Slab", args, interp.Options{Pool: pool(t, 2), Grain: 1, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(got, wantSlab) {
		t.Error("one-slab nest diverges from Sequential()")
	}
	if tiles := stats.Doacross.Tiles.Load(); tiles != 0 {
		t.Errorf("one-slab nest ran %d tiles, want the inline sweep", tiles)
	}
}

// slab is heat3d with J = 0 .. P: at P = 0 its tiled pair (I, J) has a
// J of one value.
const slab = `
Slab: module (G: array[I,J,K] of real; N: int; P: int):
    [Out: array[I,J,K] of real];
type
    I = 0 .. N;  J = 0 .. P;  K = 0 .. N;
var
    U: array[I,J,K] of real;
define
    U[I,J,K] = if (I = 0) or (J = 0) or (K = 0)
               then G[I,J,K]
               else (U[I-1,J,K] + U[I,J-1,K] + U[I,J,K-1] + G[I,J,K]) / 4.0;
    Out[I,J,K] = U[I,J,K];
end Slab;
`

// boom is a wavefront whose kernel divides by zero at the one interior
// point with I + J = P, so a tile fails midway through its rows.
const boom = `
Boom: module (Seed: array[I,J] of real; N: int; P: int): [Out: array[I,J] of real];
type
    I,J = 0 .. N+1;
var
    X: array [0 .. N+1, 0 .. N+1] of real;
define
    X[I,J] = if (I = 0) or (J = 0)
             then Seed[I,J]
             else (X[I-1,J] + X[I,J-1]) / 2.0 + float(1 div (I + J - P));
    Out[I,J] = X[I,J];
end Boom;
`

// settle waits for the goroutine count to fall back to base, reporting
// the count it ended at.
func settle(base int) int {
	n := runtime.NumGoroutine()
	for end := time.Now().Add(2 * time.Second); n > base && time.Now().Before(end); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestTileAbortLeavesNoLeak stops tile grids midway — a kernel that
// divides by zero inside one tile, and a context cancelled while tiles
// run — and requires a typed error, no goroutine left behind once the
// run returns, no arena array still lent out after the aborts (a failed
// activation returns its results and locals), and an arena that still
// serves the next activations: repeated runs stay bitwise equal to
// Sequential() and leave nothing lent out either.
func TestTileAbortLeavesNoLeak(t *testing.T) {
	ip := compileSrc(t, boom)
	const n = 96
	seed := realBox(value.Axis{Hi: n + 1}, value.Axis{Hi: n + 1})
	ok := []any{seed, int64(n), int64(4 * n)} // I + J never reaches P
	want, err := ip.Run("Boom", ok, interp.Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	// The pools' parked workers outlive the runs; count from after
	// they started.
	pool(t, 2)
	pool(t, 4)
	base := runtime.NumGoroutine()

	for _, w := range []int{2, 4} {
		_, err := ip.Run("Boom", []any{seed, int64(n), int64(n)}, interp.Options{Pool: pool(t, w), Grain: 1})
		var re *interp.RunError
		if !errors.As(err, &re) || !strings.Contains(err.Error(), "division by zero") || re.Equation == "" {
			t.Errorf("W=%d: err = %v, want a RunError naming the equation that divided by zero", w, err)
		}
	}

	gs := compileSrc(t, repro.Source("gauss_seidel"))
	const m, maxK = 48, 2000
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err = gs.RunCtx(ctx, "Relaxation", []any{grid(m), int64(m), int64(maxK)}, interp.Options{Pool: pool(t, 2), Grain: 1})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run: err = %v, want context.Canceled", err)
	}

	if got := settle(base); got > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the aborted runs, %d before:\n%s", got, base, buf[:runtime.Stack(buf, true)])
	}
	for _, p := range []*interp.Program{ip, gs} {
		if lent := p.ArenaLent(); lent != 0 {
			t.Errorf("%d arena arrays still lent out after the aborted runs", lent)
		}
	}
	for rep := 0; rep < 6; rep++ {
		got, err := ip.Run("Boom", ok, interp.Options{Pool: pool(t, 2), Grain: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloats(got, want) {
			t.Errorf("run %d after the aborts diverges from Sequential()", rep)
		}
	}
	if lent := ip.ArenaLent(); lent != 0 {
		t.Errorf("%d arena arrays still lent out after six runs", lent)
	}
}
