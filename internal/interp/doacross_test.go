package interp_test

import (
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/psrc"
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
// average plane — 1350 points over 39 planes, 34 — holds grain × workers
// points. The Doacross*/Barrier* row names predate the single executor:
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

// TestDoacrossGrainControlsTiles checks Options.Grain reaches the tile
// executor as the tile width — a coarser grain means fewer, wider tiles
// — and that a grain no plane can fill keeps the sweep inline. Results
// stay identical throughout.
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
	if fine.Doacross.Tiles.Load() <= coarse.Doacross.Tiles.Load() {
		t.Errorf("coarse grain did not reduce tile instances: fine=%d coarse=%d",
			fine.Doacross.Tiles.Load(), coarse.Doacross.Tiles.Load())
	}
	// Every plane has at least one tile instance, whatever the width.
	if got := coarse.Doacross.Tiles.Load(); got < coarse.Planes.Load() {
		t.Errorf("coarse run has fewer tiles (%d) than non-empty planes (%d)", got, coarse.Planes.Load())
	}
	if got := inline.Doacross.Tiles.Load(); got != 0 {
		t.Errorf("grain 1<<20 executed %d tiles, want the inline sweep", got)
	}
	if inline.Planes.Load() != fine.Planes.Load() {
		t.Errorf("inline sweep counted %d planes, tiles %d", inline.Planes.Load(), fine.Planes.Load())
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
		// m=4 gives 9-point average planes against a cutoff of 128.
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
