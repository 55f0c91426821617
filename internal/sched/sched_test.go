package sched

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// dep is one dependence of a tile on an earlier one: tile (a, b) reads
// tile (a−da, b−db).
type dep struct{ da, db int }

// refGrid fills a rows × cols grid sequentially with the recurrence
// cell(a,b) = 1 + Σ_d cell(a-d.da, b-d.db) (0 outside the grid) — the
// reference every tile execution must reproduce exactly.
func refGrid(rows, cols int, deps []dep) []int64 {
	g := make([]int64, rows*cols)
	for a := range rows {
		for b := range cols {
			g[a*cols+b] = cell(g, rows, cols, a, b, deps)
		}
	}
	return g
}

// cell evaluates the recurrence at (a, b) from the cells of g.
func cell(g []int64, rows, cols, a, b int, deps []dep) int64 {
	v := int64(1)
	for _, d := range deps {
		if pa, pb := a-d.da, b-d.db; pa >= 0 && pa < rows && pb >= 0 && pb < cols {
			v += g[pa*cols+pb]
		}
	}
	return v
}

// runGrid executes the recurrence through the tile executor, one cell
// per tile, into a flat array (no locks: correctness of the schedule IS
// the test, and -race verifies the happens-before edges of the
// completion counters).
func runGrid(t *testing.T, pool *par.Pool, grid Grid, deps []dep, stats *Stats) []int64 {
	t.Helper()
	g := make([]int64, grid.Rows*grid.Cols)
	if !Run(grid, pool, nil, func(_ *obs.Ring, a, b int) bool {
		g[a*grid.Cols+b] = cell(g, grid.Rows, grid.Cols, a, b, deps)
		return true
	}, stats, nil) {
		t.Fatal("tile run did not complete")
	}
	return g
}

// TestDoacrossMatchesSequential runs the dependence shapes a chained
// grid covers — the grid rule itself, and Gauss–Seidel's, whose
// (a−1, b−1) the chain implies — over single-row, single-column, tall,
// wide and square grids at several worker counts; every execution must
// be bitwise identical to the sequential reference. Run under -race this
// also checks that the completion counters publish every cross-tile
// read.
func TestDoacrossMatchesSequential(t *testing.T) {
	shapes := []struct {
		name string
		deps []dep
	}{
		{"window2_right", []dep{{1, 0}, {0, 1}}},
		{"window3_gs", []dep{{1, 0}, {0, 1}, {1, 1}}}, // Gauss–Seidel shape
	}
	grids := [][2]int{{1, 37}, {37, 1}, {40, 3}, {3, 40}, {12, 12}}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 3, 8} {
				pool := par.NewPool(workers)
				for _, rc := range grids {
					want := refGrid(rc[0], rc[1], sh.deps)
					got := runGrid(t, pool, Grid{Rows: rc[0], Cols: rc[1], Chain: true}, sh.deps, nil)
					if !slices.Equal(got, want) {
						t.Fatalf("workers=%d grid %d×%d diverges from the sequential reference", workers, rc[0], rc[1])
					}
				}
				pool.Close()
			}
		})
	}
}

// TestConcurrentRuns shares one pool between callers running chained
// grids and DOALL rows at once, as concurrent activations do: run state
// is recycled between Runs, and every result must still match the
// sequential reference.
func TestConcurrentRuns(t *testing.T) {
	pool := par.NewPool(3)
	defer pool.Close()
	deps := []dep{{1, 0}, {0, 1}, {1, 1}}
	var callers sync.WaitGroup
	for c := 0; c < 4; c++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for round := 0; round < 20; round++ {
				grid := Grid{Rows: 21, Cols: 1 + round%8, Chain: true}
				want := refGrid(grid.Rows, grid.Cols, deps)
				g := make([]int64, grid.Rows*grid.Cols)
				if !Run(grid, pool, nil, func(_ *obs.Ring, a, b int) bool {
					g[a*grid.Cols+b] = cell(g, grid.Rows, grid.Cols, a, b, deps)
					return true
				}, nil, nil) {
					t.Error("run did not complete")
					return
				}
				if !slices.Equal(g, want) {
					t.Errorf("round %d: %d×%d grid diverges from the sequential reference", round, grid.Rows, grid.Cols)
					return
				}
				var sum atomic.Int64
				row, w := doall(100, 3, 0)
				if !Run(row, pool, nil, func(_ *obs.Ring, _, b int) bool {
					lo, hi := span(b, w, 100)
					for c := lo; c <= hi; c++ {
						sum.Add(c)
					}
					return true
				}, nil, nil) || sum.Load() != 99*100/2 {
					t.Errorf("DOALL sum = %d, want %d", sum.Load(), 99*100/2)
					return
				}
			}
		}()
	}
	callers.Wait()
}

// TestDoacrossStats pins the tile accounting: every tile of a grid is
// counted once, and a pipeline whose tiles serialize behind one slow
// column must record stalls.
func TestDoacrossStats(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, grid := range []Grid{{Rows: 10, Cols: 4, Chain: true}, {Rows: 1, Cols: 9}, {Rows: 7, Cols: 1, Chain: true}} {
		var stats Stats
		var deps []dep // an unchained grid's tiles read nothing of each other
		if grid.Chain {
			deps = []dep{{1, 0}, {0, 1}}
		}
		runGrid(t, pool, grid, deps, &stats)
		if got, want := stats.Tiles.Load(), int64(grid.Rows*grid.Cols); got != want {
			t.Errorf("%d×%d grid: Tiles = %d, want %d", grid.Rows, grid.Cols, got, want)
		}
	}

	// With column 0 artificially slow, the worker homed on column 1
	// waits on it every row, runs out of ready tiles and must park.
	var slow Stats
	pair := par.NewPool(2)
	defer pair.Close()
	completed := Run(Grid{Rows: 6, Cols: 2, Chain: true}, pair, nil, func(_ *obs.Ring, _, b int) bool {
		if b == 0 {
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
// its worker must steal the remaining columns' tiles.
func TestDoacrossSteals(t *testing.T) {
	var stats Stats
	pool := par.NewPool(4)
	defer pool.Close()
	var slowCol atomic.Int64
	slowCol.Store(7)
	completed := Run(Grid{Rows: 41, Cols: 8}, pool, nil, func(_ *obs.Ring, _, b int) bool {
		if int64(b) == slowCol.Load() {
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
// next to the worker's own tile spans, one of each per tile, and an
// unrecorded run hands out nil. A tile span carries its anti-diagonal
// and column.
func TestDoacrossBodyRing(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	grid := Grid{Rows: 10, Cols: 4, Chain: true}
	rec := obs.NewRecorder(0)
	if !Run(grid, pool, nil, func(ring *obs.Ring, a, b int) bool {
		if ring == nil {
			t.Error("recorded run passed a nil ring")
			return false
		}
		ring.Emit(obs.KSpecFallback, ring.Now(), 0, int64(a), int64(b))
		return true
	}, nil, rec) {
		t.Fatal("run did not complete")
	}
	// Both sets hold (anti-diagonal, column): a tile span's Arg1 packs
	// the column with the steal flag, a body event carries (a, b).
	var tiles, marks int
	spans, bodies := map[[2]int64]bool{}, map[[2]int64]bool{}
	for _, evs := range rec.Snapshot() {
		for _, ev := range evs {
			switch ev.Kind {
			case obs.KTile:
				tiles++
				spans[[2]int64{ev.Arg0, ev.Arg1 >> 1}] = true
			case obs.KSpecFallback:
				marks++
				bodies[[2]int64{ev.Arg0 + ev.Arg1, ev.Arg1}] = true
			}
		}
	}
	if want := grid.Rows * grid.Cols; tiles != want || marks != want || len(spans) != want || !maps.Equal(spans, bodies) {
		t.Errorf("trace has %d tile spans (%d distinct) and %d body events, want %d of each on the same tiles",
			tiles, len(spans), marks, want)
	}
	if !Run(grid, pool, nil, func(ring *obs.Ring, _, _ int) bool {
		if ring != nil {
			t.Error("unrecorded run passed a ring")
		}
		return true
	}, nil, nil) {
		t.Fatal("unrecorded run did not complete")
	}
}

// TestDoacrossCancel closes the cancel channel mid-run: Run must stop
// claiming tiles promptly — including parked workers — and report
// !completed.
func TestDoacrossCancel(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	cancel := make(chan struct{})
	started := make(chan struct{})
	var once atomic.Bool
	go func() {
		<-started
		close(cancel)
	}()
	start := time.Now()
	completed := Run(Grid{Rows: 1 << 20, Cols: 2, Chain: true}, pool, cancel, func(_ *obs.Ring, _, _ int) bool {
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
	completed := Run(Grid{Rows: 1000, Cols: 3, Chain: true}, pool, nil, func(_ *obs.Ring, _, _ int) bool {
		return ran.Add(1) < 10
	}, nil, nil)
	if completed {
		t.Fatal("aborted run reported completion")
	}
	if n := ran.Load(); n >= 3000 {
		t.Fatalf("abort did not stop the run: %d tiles executed", n)
	}
}

// TestDoacrossEmpty covers degenerate grids: no rows or no columns
// complete trivially.
func TestDoacrossEmpty(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	body := func(_ *obs.Ring, _, _ int) bool { t.Error("body called"); return true }
	if !Run(Grid{Rows: 0, Cols: 10, Chain: true}, pool, nil, body, nil, nil) {
		t.Error("grid without rows did not complete")
	}
	if !Run(Grid{Rows: 5, Cols: 0, Chain: true}, pool, nil, body, nil, nil) {
		t.Error("grid without columns did not complete")
	}
}

// TestTiles pins Cut, the blocking arithmetic of DOALL and batch tiles
// that Explain reports.
func TestTiles(t *testing.T) {
	cases := []struct {
		n, per, minW int64
		ntiles       int
		tileW        int64
	}{
		{100, 2 * TilesPerWorker, 0, 9, 12},  // width n/per = 12
		{10, 4 * TilesPerWorker, 0, 10, 1},   // narrow span: unit tiles
		{100, TilesPerWorker, 40, 3, 40},     // minimum width
		{10, TilesPerWorker, 1 << 20, 1, 10}, // clamped to the span
		{0, TilesPerWorker, 0, 0, 0},         // empty
		{-3, TilesPerWorker, 0, 0, 0},        // empty
		{21, 1 * TilesPerWorker, 0, 5, 5},    // 21/4 = 5
		{1 << 20, 2 * TilesPerWorker, 0, 8, 1 << 17},
	}
	for i, tc := range cases {
		n, w := Cut(tc.n, tc.per, tc.minW)
		if n != tc.ntiles || w != tc.tileW {
			t.Errorf("case %d: Cut(%d, %d, %d) = (%d, %d), want (%d, %d)", i, tc.n, tc.per, tc.minW, n, w, tc.ntiles, tc.tileW)
		}
	}
}

// TestHomeWorker checks the steal-attribution mapping is the inverse of
// the worker scan assignment: every worker's scan-start column — and
// every column in its contiguous home span — must map back to that
// worker, so a worker executing its own tiles is never counted as
// stealing.
func TestHomeWorker(t *testing.T) {
	for _, tc := range []struct{ cols, workers int }{
		{8, 3}, {5, 4}, {4, 2}, {7, 7}, {12, 5}, {3, 2}, {16, 4},
	} {
		r := &run{grid: Grid{Rows: 1, Cols: tc.cols}}
		for w := 0; w < tc.workers; w++ {
			lo := w * tc.cols / tc.workers
			hi := (w + 1) * tc.cols / tc.workers
			for b := lo; b < hi; b++ {
				if got := r.homeWorker(b, tc.workers); got != w {
					t.Errorf("cols=%d workers=%d: homeWorker(%d) = %d, want %d (home span [%d,%d))",
						tc.cols, tc.workers, b, got, w, lo, hi)
				}
			}
		}
	}
}

// doall is the grid a DOALL of n points dispatches on a pool of workers
// with minimum tile width minW — one row of independent tiles — and the
// tiles' width.
func doall(n int64, workers int, minW int64) (Grid, int64) {
	cols, w := Cut(n, TilesPerWorker*int64(workers), minW)
	return Grid{Rows: 1, Cols: cols}, w
}

// span is the inclusive range of points DOALL tile b of width w covers.
func span(b int, w, n int64) (lo, hi int64) {
	lo = int64(b) * w
	return lo, min(lo+w, n) - 1
}

// TestDoAllCoverage runs DOALL rows of many widths: every point executes
// exactly once, at every worker count and minimum tile width, and no
// tile is narrower than that minimum unless it is the last one.
func TestDoAllCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		pool := par.NewPool(workers)
		for n := int64(1); n <= 100; n += 11 {
			for _, tileW := range []int64{0, 1, 7} {
				counts := make([]atomic.Int32, n)
				row, w := doall(n, workers, tileW)
				if !Run(row, pool, nil, func(_ *obs.Ring, a, b int) bool {
					if a != 0 {
						t.Errorf("DOALL tile on row %d", a)
					}
					lo, hi := span(b, w, n)
					if hi-lo+1 < min(w, tileW) && hi != n-1 {
						t.Errorf("tile [%d,%d] narrower than the minimum %d", lo, hi, tileW)
					}
					for c := lo; c <= hi; c++ {
						counts[c].Add(1)
					}
					return true
				}, nil, nil) {
					t.Fatalf("workers=%d n=%d: run did not complete", workers, n)
				}
				for c := range counts {
					if k := counts[c].Load(); k != 1 {
						t.Fatalf("workers=%d n=%d tileW=%d: point %d ran %d times", workers, n, tileW, c, k)
					}
				}
			}
		}
		pool.Close()
	}
}

// TestDoAllEmpty checks an empty DOALL (no points, so no tiles) is a
// no-op that completes.
func TestDoAllEmpty(t *testing.T) {
	pool := par.NewPool(3)
	defer pool.Close()
	row, _ := doall(0, 3, 64)
	if !Run(row, pool, nil, func(_ *obs.Ring, _, _ int) bool {
		t.Error("body called on an empty range")
		return true
	}, nil, nil) {
		t.Error("empty range did not complete")
	}
}

// TestDoAllCancel closes the cancel channel while a DOALL's first tiles
// run: the workers stop claiming, and Run reports !completed with tiles
// unvisited.
func TestDoAllCancel(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	cancel := make(chan struct{})
	var once sync.Once
	var ran atomic.Int64
	row, _ := doall(1<<20+1, 2, 0)
	completed := Run(row, pool, cancel, func(_ *obs.Ring, _, _ int) bool {
		ran.Add(1)
		once.Do(func() { close(cancel) })
		time.Sleep(time.Millisecond)
		return true
	}, nil, nil)
	if completed {
		t.Fatal("cancelled DOALL reported completion")
	}
	if n := ran.Load(); n >= int64(row.Cols) {
		t.Fatalf("cancellation did not stop the DOALL: %d of %d tiles ran", n, row.Cols)
	}
}

// TestDoAllBodyAbort checks a body returning false mid-DOALL (the
// interpreter's captured-panic path) stops the run.
func TestDoAllBodyAbort(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	var ran atomic.Int64
	row, _ := doall(1<<20+1, 2, 0)
	if Run(row, pool, nil, func(_ *obs.Ring, _, _ int) bool {
		return ran.Add(1) > 1
	}, nil, nil) {
		t.Fatal("aborted DOALL reported completion")
	}
	if n := ran.Load(); n >= int64(row.Cols) {
		t.Fatalf("abort did not stop the DOALL: %d of %d tiles ran", n, row.Cols)
	}
}

// TestWorkersReturnWhenNothingUnclaimed holds one tile of a two-tile
// DOALL: the worker that finishes the other finds nothing left to claim
// and returns at once — it never parks waiting for the held tile, so the
// run records no stall.
func TestWorkersReturnWhenNothingUnclaimed(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	for round := 0; round < 20; round++ {
		var stats Stats
		var held atomic.Bool
		if !Run(Grid{Rows: 1, Cols: 2}, pool, nil, func(_ *obs.Ring, _, _ int) bool {
			if held.CompareAndSwap(false, true) {
				time.Sleep(5 * time.Millisecond)
			}
			return true
		}, &stats, nil) {
			t.Fatal("run did not complete")
		}
		if n := stats.Tiles.Load(); n != 2 {
			t.Fatalf("ran %d tiles, want 2", n)
		}
		if n := stats.Stalls.Load(); n != 0 {
			t.Fatalf("round %d: a worker parked %d times with nothing left to claim", round, n)
		}
	}
}
