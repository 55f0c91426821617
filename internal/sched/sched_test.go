package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// refGrid fills a (planes × span) grid sequentially with the recurrence
// cell(t,c) = 1 + Σ_d cell(t-d.dt, c-d.shift) (0 outside the grid) — the
// reference every doacross execution must reproduce exactly.
type dep struct {
	dt    int
	shift int64
}

func refGrid(tlo, thi, clo, chi int64, deps []dep) map[[2]int64]int64 {
	g := make(map[[2]int64]int64)
	for t := tlo; t <= thi; t++ {
		for c := clo; c <= chi; c++ {
			v := int64(1)
			for _, d := range deps {
				v += g[[2]int64{t - int64(d.dt), c - d.shift}]
			}
			g[[2]int64{t, c}] = v
		}
	}
	return g
}

// nestFor derives the Nest dependence metadata from explicit deps.
func nestFor(tlo, thi, clo, chi int64, deps []dep, workers int, tileW int64) Nest {
	window := 1
	for _, d := range deps {
		if d.dt+1 > window {
			window = d.dt + 1
		}
	}
	preds := make([]PredRange, window-1)
	for _, d := range deps {
		pr := &preds[d.dt-1]
		if !pr.Has {
			*pr = PredRange{Has: true, Lo: d.shift, Hi: d.shift}
			continue
		}
		if d.shift < pr.Lo {
			pr.Lo = d.shift
		}
		if d.shift > pr.Hi {
			pr.Hi = d.shift
		}
	}
	return Nest{TLo: tlo, THi: thi, CoordLo: clo, CoordHi: chi,
		Window: window, Preds: preds, Workers: workers, TileWidth: tileW}
}

// runGrid executes the recurrence through the doacross executor into a
// flat array (no locks: correctness of the schedule IS the test, and
// -race verifies the happens-before edges of the completion counters).
func runGrid(t *testing.T, tlo, thi, clo, chi int64, deps []dep, workers int, tileW int64, stats *Stats) map[[2]int64]int64 {
	t.Helper()
	span := chi - clo + 1
	cells := make([]int64, (thi-tlo+1)*span)
	at := func(tt, c int64) *int64 { return &cells[(tt-tlo)*span+(c-clo)] }
	get := func(tt, c int64) int64 {
		if tt < tlo || tt > thi || c < clo || c > chi {
			return 0
		}
		return *at(tt, c)
	}
	pool := par.NewPool(workers)
	defer pool.Close()
	nest := nestFor(tlo, thi, clo, chi, deps, workers, tileW)
	completed := Run(nest, pool, nil, func(_ *obs.Ring, tt int64, _ int, lo, hi int64) bool {
		for c := lo; c <= hi; c++ {
			v := int64(1)
			for _, d := range deps {
				v += get(tt-int64(d.dt), c-d.shift)
			}
			*at(tt, c) = v
		}
		return true
	}, stats, nil)
	if !completed {
		t.Fatal("doacross run did not complete")
	}
	out := make(map[[2]int64]int64)
	for tt := tlo; tt <= thi; tt++ {
		for c := clo; c <= chi; c++ {
			out[[2]int64{tt, c}] = get(tt, c)
		}
	}
	return out
}

// TestDoacrossMatchesSequential sweeps dependence shapes, worker counts
// and tile widths; every execution must be bitwise identical to the
// sequential reference. Run under -race this also checks that the
// completion counters publish every cross-tile read.
func TestDoacrossMatchesSequential(t *testing.T) {
	shapes := []struct {
		name string
		deps []dep
	}{
		{"window2_right", []dep{{1, 0}, {1, 1}}},
		{"window2_both", []dep{{1, -1}, {1, 1}}},
		{"window3_gs", []dep{{1, 0}, {1, 1}, {2, 1}}}, // Gauss–Seidel shape
		{"window4_far", []dep{{1, -2}, {3, 5}}},
		{"window2_wide", []dep{{1, -7}, {1, 7}}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			const tlo, thi, clo, chi = 2, 33, -5, 40
			want := refGrid(tlo, thi, clo, chi, sh.deps)
			for _, workers := range []int{1, 2, 3, 8} {
				for _, tileW := range []int64{0, 1, 5, 46} {
					got := runGrid(t, tlo, thi, clo, chi, sh.deps, workers, tileW, nil)
					for k, w := range want {
						if got[k] != w {
							t.Fatalf("workers=%d tileW=%d: cell(%d,%d) = %d, want %d",
								workers, tileW, k[0], k[1], got[k], w)
						}
					}
				}
			}
		})
	}
}

// TestDoacrossStats pins the tile accounting: every (plane, tile)
// instance is counted once, and a pipeline whose tiles serialize behind
// one slow tile must record stalls.
func TestDoacrossStats(t *testing.T) {
	var stats Stats
	const tlo, thi, clo, chi = 0, 9, 0, 19
	deps := []dep{{1, 1}}
	runGrid(t, tlo, thi, clo, chi, deps, 4, 5, &stats)
	ntiles, tileW := int64(4), int64(5)
	_ = tileW
	if got, want := stats.Tiles.Load(), (thi-tlo+1)*ntiles; got != want {
		t.Errorf("Tiles = %d, want %d", got, want)
	}

	// A full-span predecessor range makes every tile wait on the whole
	// previous plane; with tile 0 artificially slow, the other worker
	// runs out of ready instances and must park.
	var slow Stats
	pool := par.NewPool(2)
	defer pool.Close()
	nest := Nest{TLo: 0, THi: 5, CoordLo: 0, CoordHi: 19, Window: 2,
		Preds: []PredRange{{Has: true, Lo: -20, Hi: 20}}, Workers: 2, TileWidth: 10}
	completed := Run(nest, pool, nil, func(_ *obs.Ring, tt int64, k int, _, _ int64) bool {
		if k == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		return true
	}, &slow, nil)
	if !completed {
		t.Fatal("slow-tile run did not complete")
	}
	if slow.Stalls.Load() == 0 {
		t.Error("serialized pipeline recorded no stalls")
	}
}

// TestDoacrossSteals forces imbalance: one home set finishes early and
// its worker must steal the remaining tiles' instances.
func TestDoacrossSteals(t *testing.T) {
	var stats Stats
	pool := par.NewPool(4)
	defer pool.Close()
	nest := Nest{TLo: 0, THi: 40, CoordLo: 0, CoordHi: 39, Window: 2,
		Preds: []PredRange{{Has: true, Lo: 0, Hi: 0}}, Workers: 4, TileWidth: 5}
	var slowTile atomic.Int64
	slowTile.Store(7)
	completed := Run(nest, pool, nil, func(_ *obs.Ring, tt int64, k int, _, _ int64) bool {
		if int64(k) == slowTile.Load() {
			time.Sleep(50 * time.Microsecond)
		}
		return true
	}, &stats, nil)
	if !completed {
		t.Fatal("run did not complete")
	}
	if stats.Steals.Load() == 0 {
		t.Error("imbalanced run recorded no steals (work stealing inactive)")
	}
}

// TestDoacrossBodyRing checks a recorded run hands each body the ring of
// the worker executing it: what a body emits there lands in the trace
// next to the worker's own tile spans, one of each per tile instance,
// and an unrecorded run hands out nil.
func TestDoacrossBodyRing(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	nest := Nest{TLo: 0, THi: 9, CoordLo: 0, CoordHi: 19, Window: 2,
		Preds: []PredRange{{Has: true, Lo: -1, Hi: 1}}, Workers: 2, TileWidth: 5}
	rec := obs.NewRecorder(0)
	if !Run(nest, pool, nil, func(ring *obs.Ring, tt int64, k int, _, _ int64) bool {
		if ring == nil {
			t.Error("recorded run passed a nil ring")
			return false
		}
		ring.Emit(obs.KSpecFallback, ring.Now(), 0, int64(k), 1)
		return true
	}, nil, rec) {
		t.Fatal("run did not complete")
	}
	var tiles, marks int
	for _, evs := range rec.Snapshot() {
		for _, ev := range evs {
			switch ev.Kind {
			case obs.KTile:
				tiles++
			case obs.KSpecFallback:
				marks++
			}
		}
	}
	if want := 10 * 4; tiles != want || marks != want {
		t.Errorf("trace has %d tile spans and %d body events, want %d of each", tiles, marks, want)
	}
	if !Run(nest, pool, nil, func(ring *obs.Ring, _ int64, _ int, _, _ int64) bool {
		if ring != nil {
			t.Error("unrecorded run passed a ring")
		}
		return true
	}, nil, nil) {
		t.Fatal("unrecorded run did not complete")
	}
}

// TestDoacrossCancel closes the cancel channel mid-run: Run must stop
// claiming instances promptly — including parked workers — and report
// !completed.
func TestDoacrossCancel(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	cancel := make(chan struct{})
	started := make(chan struct{})
	var once atomic.Bool
	nest := Nest{TLo: 0, THi: 1 << 20, CoordLo: 0, CoordHi: 63, Window: 2,
		Preds: []PredRange{{Has: true, Lo: -64, Hi: 64}}, Workers: 2, TileWidth: 32}
	go func() {
		<-started
		close(cancel)
	}()
	start := time.Now()
	completed := Run(nest, pool, cancel, func(_ *obs.Ring, tt int64, _ int, _, _ int64) bool {
		if once.CompareAndSwap(false, true) {
			close(started)
		}
		time.Sleep(20 * time.Microsecond)
		return true
	}, nil, nil)
	if completed {
		t.Fatal("cancelled run reported completion")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestDoacrossBodyAbort checks that a body returning false (the
// interpreter's panic/cancel path) stops the run.
func TestDoacrossBodyAbort(t *testing.T) {
	pool := par.NewPool(3)
	defer pool.Close()
	var ran atomic.Int64
	nest := Nest{TLo: 0, THi: 999, CoordLo: 0, CoordHi: 29, Window: 2,
		Preds: []PredRange{{Has: true, Lo: 0, Hi: 0}}, Workers: 3, TileWidth: 10}
	completed := Run(nest, pool, nil, func(_ *obs.Ring, tt int64, _ int, _, _ int64) bool {
		return ran.Add(1) < 10
	}, nil, nil)
	if completed {
		t.Fatal("aborted run reported completion")
	}
	if n := ran.Load(); n >= 3000 {
		t.Fatalf("abort did not stop the run: %d instances executed", n)
	}
}

// TestDoacrossEmpty covers degenerate nests: empty time range and empty
// coordinate span complete trivially.
func TestDoacrossEmpty(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	body := func(_ *obs.Ring, _ int64, _ int, _, _ int64) bool { t.Error("body called"); return true }
	if !Run(Nest{TLo: 5, THi: 4, CoordLo: 0, CoordHi: 9, Window: 2, Workers: 2}, pool, nil, body, nil, nil) {
		t.Error("empty time range did not complete")
	}
	if !Run(Nest{TLo: 0, THi: 4, CoordLo: 9, CoordHi: 0, Window: 2, Workers: 2}, pool, nil, body, nil, nil) {
		t.Error("empty span did not complete")
	}
}

// TestTiles pins the blocking arithmetic Explain reports.
func TestTiles(t *testing.T) {
	cases := []struct {
		nest   Nest
		ntiles int
		tileW  int64
	}{
		{Nest{CoordLo: 0, CoordHi: 99, Workers: 2}, 9, 12},        // width span/(w*4) = 12
		{Nest{CoordLo: 0, CoordHi: 9, Workers: 4}, 10, 1},         // narrow span: unit tiles
		{Nest{CoordLo: 0, CoordHi: 99, TileWidth: 40}, 3, 40},     // explicit width
		{Nest{CoordLo: 0, CoordHi: 9, TileWidth: 1 << 20}, 1, 10}, // clamped to span
		{Nest{CoordLo: 3, CoordHi: 2}, 0, 0},                      // empty
		{Nest{CoordLo: -10, CoordHi: 10, Workers: 1}, 5, 5},       // 21/(1*4)=5
	}
	for i, tc := range cases {
		n, w := tc.nest.Tiles()
		if n != tc.ntiles || w != tc.tileW {
			t.Errorf("case %d: Tiles() = (%d, %d), want (%d, %d)", i, n, w, tc.ntiles, tc.tileW)
		}
	}
}

// TestHomeWorker checks the steal-attribution mapping is the inverse of
// the worker scan assignment: every worker's scan-start tile — and every
// tile in its contiguous home span — must map back to that worker, so a
// worker executing its own tiles is never counted as stealing.
func TestHomeWorker(t *testing.T) {
	for _, tc := range []struct{ ntiles, workers int }{
		{8, 3}, {5, 4}, {4, 2}, {7, 7}, {12, 5}, {3, 2}, {16, 4},
	} {
		r := &run{ntiles: tc.ntiles}
		for w := 0; w < tc.workers; w++ {
			lo := w * tc.ntiles / tc.workers
			hi := (w + 1) * tc.ntiles / tc.workers
			for k := lo; k < hi; k++ {
				if got := r.homeWorker(k, tc.workers); got != w {
					t.Errorf("ntiles=%d workers=%d: homeWorker(%d) = %d, want %d (home span [%d,%d))",
						tc.ntiles, tc.workers, k, got, w, lo, hi)
				}
			}
		}
	}
}

// TestPredTiles pins the predecessor-tile arithmetic, including negative
// shifts and grid clamping.
func TestPredTiles(t *testing.T) {
	r := &run{nest: Nest{CoordLo: 0, CoordHi: 39}, tileW: 10, ntiles: 4}
	cases := []struct {
		k      int
		pr     PredRange
		lo, hi int
	}{
		{1, PredRange{Has: true, Lo: 0, Hi: 0}, 1, 1},    // aligned
		{1, PredRange{Has: true, Lo: 1, Hi: 1}, 0, 1},    // reads one left
		{1, PredRange{Has: true, Lo: -1, Hi: -1}, 1, 2},  // reads one right
		{0, PredRange{Has: true, Lo: -25, Hi: 25}, 0, 3}, // wide, clamped low
		{3, PredRange{Has: true, Lo: -25, Hi: 25}, 0, 3}, // wide, clamped high
		{2, PredRange{Has: true, Lo: -10, Hi: 10}, 1, 3}, // exactly one tile each way
	}
	for i, tc := range cases {
		lo, hi := r.predTiles(tc.k, tc.pr)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("case %d: predTiles(%d, %+v) = (%d, %d), want (%d, %d)",
				i, tc.k, tc.pr, lo, hi, tc.lo, tc.hi)
		}
	}
}

// TestFloorDiv pins the rounding helper.
func TestFloorDiv(t *testing.T) {
	cases := [][3]int64{{7, 2, 3}, {-7, 2, -4}, {6, 3, 2}, {-6, 3, -2}, {0, 5, 0}, {-1, 10, -1}}
	for _, c := range cases {
		if got := floorDiv(c[0], c[1]); got != c[2] {
			t.Errorf("floorDiv(%d, %d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}
