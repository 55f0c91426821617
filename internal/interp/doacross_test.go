package interp_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/psrc"
	"repro/internal/types"
	"repro/internal/value"
)

// runGS executes the Gauss–Seidel module under opts and returns newA.
func runGS(t *testing.T, ip *interp.Program, m, maxK int64, opts interp.Options) *value.Array {
	t.Helper()
	res, err := ip.Run("Relaxation", []any{grid(m), m, maxK}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res[0].(*value.Array)
}

// TestDoacrossScheduleParity runs the auto-hyperplane Gauss–Seidel nest
// on both sides of the dispatch rule at several widths and grains; all
// runs must be bitwise identical to the sequential reference, and the
// nest must run on the tile executor (Tiles > 0) exactly when its
// average plane — 1350 points over the 6 + 20 − 1 anti-diagonals of its
// tiled coordinates K and I+K, 54 — holds grain × workers points. The Doacross*/Barrier* row names predate the single executor:
// they now pin the tile side and the inline side of the rule.
func TestDoacrossScheduleParity(t *testing.T) {
	ip := compileSrc(t, psrc.RelaxationGS)
	const m, maxK = 13, 7
	want := runGS(t, ip, m, maxK, interp.Options{Sequential: true})
	for _, tc := range []struct {
		name  string
		opts  interp.Options
		tiles bool
	}{
		{"DoacrossPar2", interp.Options{Workers: 2, Grain: 1}, true},
		{"DoacrossPar4", interp.Options{Workers: 4, Grain: 1}, true},
		{"DoacrossPar3Grain8", interp.Options{Workers: 3, Grain: 8}, true},
		{"BarrierPar4", interp.Options{Workers: 4, Grain: 1 << 20}, false},
		{"AutoPar4", interp.Options{Workers: 4}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats interp.Stats
			tc.opts.Stats = &stats
			got := runGS(t, ip, m, maxK, tc.opts)
			if !reflect.DeepEqual(got.F, want.F) {
				t.Errorf("%s diverges from sequential reference", tc.name)
			}
			if tiles := stats.Doacross.Tiles.Load(); (tiles > 0) != tc.tiles {
				t.Errorf("%s executed %d tiles, want tiled = %v", tc.name, tiles, tc.tiles)
			}
		})
	}
}

// TestTilePlane pins the dispatch rule: the threshold is grain × workers
// with the 32-point default grain, and one worker never tiles.
func TestTilePlane(t *testing.T) {
	for _, tc := range []struct {
		workers int
		grain   int64
		want    int64
	}{
		{1, 0, 0}, {1, 1, 0}, {2, 0, 64}, {4, 0, 128}, {2, 1, 2}, {4, 8, 32},
	} {
		if got := interp.TilePlane(tc.workers, tc.grain); got != tc.want {
			t.Errorf("TilePlane(%d, %d) = %d, want %d", tc.workers, tc.grain, got, tc.want)
		}
	}
}

// TestDoacrossGrainControlsTiles checks Options.Grain decides only which
// side of the dispatch rule a wavefront lands on: grains 1 and 8 both
// tile the nest, and — tile widths being a function of the box and the
// worker count alone — into the same grid; a grain no plane fills keeps
// the sweep inline, counted as one plane. At m = 13 the skewed
// coordinates K and I+K take 6 and 20 values, cut at four workers into
// 6 × 10 tiles over 15 tile-grid planes. Results stay identical
// throughout.
func TestDoacrossGrainControlsTiles(t *testing.T) {
	ip := compileSrc(t, psrc.RelaxationGS)
	const m, maxK = 13, 7
	want := runGS(t, ip, m, maxK, interp.Options{Sequential: true})
	var fine, coarse, inline interp.Stats
	gotFine := runGS(t, ip, m, maxK, interp.Options{Workers: 4, Grain: 1, Stats: &fine})
	gotCoarse := runGS(t, ip, m, maxK, interp.Options{Workers: 4, Grain: 8, Stats: &coarse})
	gotInline := runGS(t, ip, m, maxK, interp.Options{Workers: 4, Grain: 1 << 20, Stats: &inline})
	for _, got := range []*value.Array{gotFine, gotCoarse, gotInline} {
		if !reflect.DeepEqual(got.F, want.F) {
			t.Error("grain variants diverge from sequential reference")
		}
	}
	for name, st := range map[string]*interp.Stats{"grain 1": &fine, "grain 8": &coarse} {
		if tiles, planes := st.Doacross.Tiles.Load(), st.Planes.Load(); tiles != 60 || planes != 15 {
			t.Errorf("%s ran %d tiles over %d planes, want 60 over 15", name, tiles, planes)
		}
	}
	if tiles, planes := inline.Doacross.Tiles.Load(), inline.Planes.Load(); tiles != 0 || planes != 1 {
		t.Errorf("grain 1<<20 ran %d tiles over %d planes, want the inline sweep (0 tiles, 1 plane)", tiles, planes)
	}
}

// TestDoacrossAutoNarrowPlanes pins the default rule's inline side: a
// nest whose planes are narrow relative to 32 × workers sweeps inline
// under default options — no tile is dispatched, on the first run or any
// later one.
func TestDoacrossAutoNarrowPlanes(t *testing.T) {
	ip := compileSrc(t, psrc.RelaxationGS)
	want := runGS(t, ip, 4, 6, interp.Options{Sequential: true})
	for run := 0; run < 3; run++ {
		var stats interp.Stats
		// m=4 gives 12-point average planes against a cutoff of 128.
		got := runGS(t, ip, 4, 6, interp.Options{Workers: 4, Stats: &stats})
		if !reflect.DeepEqual(got.F, want.F) {
			t.Error("default run diverges from sequential reference")
		}
		if tiles := stats.Doacross.Tiles.Load(); tiles != 0 {
			t.Errorf("run %d: default options tiled a narrow nest (%d tiles)", run, tiles)
		}
		if stats.Planes.Load() == 0 {
			t.Errorf("run %d: swept no hyperplanes", run)
		}
	}
}

// scale2D is one 2-D DOALL: B[I,J] = 2·A[I,J] over [1,N]².
const scale2D = `
Scale: module (A: array[I,J] of real; N: int): [B: array [I,J] of real];
type
    I,J = 1 .. N;
define
    B[I,J] = A[I,J] * 2.0;
end Scale;
`

// TestDispatchRule pins the one size rule every parallel step obeys: a
// DOALL is a one-plane nest, so at W = 2 it tiles from 64 points
// (TilePlane's 32 × 2) and runs inline below; Grain(1) tiles any DOALL
// of two points but still blocks a large one into at most 4W tiles; and
// a batch of two whole activations always dispatches. Every run matches
// the sequential reference.
func TestDispatchRule(t *testing.T) {
	smooth := compileSrc(t, psrc.Smooth)
	xs := func(points int64) *value.Array {
		a := value.NewArray(types.RealKind, []value.Axis{{Lo: 0, Hi: points - 1}})
		for i := int64(0); i < points; i++ {
			a.SetF([]int64{i}, float64(i%7)/7)
		}
		return a
	}
	chunks := func(ip *interp.Program, module string, args []any, opts interp.Options) int64 {
		t.Helper()
		want, err := ip.Run(module, args, interp.Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		var stats interp.Stats
		opts.Stats = &stats
		got, err := ip.Run(module, args, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0].(*value.Array).F, want[0].(*value.Array).F) {
			t.Errorf("%s %+v diverges from the sequential reference", module, opts)
		}
		return stats.Chunks.Load()
	}
	for _, tc := range []struct {
		points int64
		grain  int64
		tiles  bool
	}{
		{63, 0, false}, {64, 0, true}, {2, 1, true}, {1, 1, false},
	} {
		// Smooth's one DOALL covers 0..N+1.
		args := []any{xs(tc.points), tc.points - 2}
		got := chunks(smooth, "Smooth", args, interp.Options{Workers: 2, Grain: tc.grain})
		if (got > 0) != tc.tiles {
			t.Errorf("%d-point DOALL at grain %d: %d chunks, want tiled = %v", tc.points, tc.grain, got, tc.tiles)
		}
	}

	scale := compileSrc(t, scale2D)
	const n = 512
	a := value.NewArray(types.RealKind, []value.Axis{{Lo: 1, Hi: n}, {Lo: 1, Hi: n}})
	for i := range a.F {
		a.F[i] = float64(i%13) / 13
	}
	if got := chunks(scale, "Scale", []any{a, int64(n)}, interp.Options{Workers: 2, Grain: 1}); got < 2 || got > 4*2 {
		t.Errorf("512x512 DOALL at grain 1 made %d chunks, want 2..%d", got, 4*2)
	}

	var stats interp.Stats
	batch := [][]any{{xs(4), int64(2)}, {xs(5), int64(3)}}
	res, errs, err := smooth.RunBatchCtx(context.Background(), "Smooth", batch, interp.Options{Workers: 2, Stats: &stats})
	if err != nil || errs[0] != nil || errs[1] != nil || res[1] == nil {
		t.Fatalf("batch of two failed: %v %v", err, errs)
	}
	if stats.Chunks.Load() == 0 {
		t.Error("a batch of two whole activations did not dispatch")
	}
}
