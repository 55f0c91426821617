package sched

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
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
func runGrid(t *testing.T, pool *Pool, grid Grid, deps []dep, stats *Stats) []int64 {
	t.Helper()
	g := make([]int64, grid.Rows*grid.Cols)
	if !Run(grid, pool, func(_ *obs.Ring, a, b int) bool {
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
				pool := NewPool(workers)
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
	pool := NewPool(3)
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
				if !Run(grid, pool, func(_ *obs.Ring, a, b int) bool {
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
				if !Run(row, pool, func(_ *obs.Ring, _, b int) bool {
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
	pool := NewPool(4)
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
	pair := NewPool(2)
	defer pair.Close()
	completed := Run(Grid{Rows: 6, Cols: 2, Chain: true}, pair, func(_ *obs.Ring, _, b int) bool {
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
	pool := NewPool(4)
	defer pool.Close()
	var slowCol atomic.Int64
	slowCol.Store(7)
	completed := Run(Grid{Rows: 41, Cols: 8}, pool, func(_ *obs.Ring, _, b int) bool {
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
// and column. A recorded DOALL row hands its bodies rings too, but sched
// spans none of its tiles: a DOALL tile's span is its body's.
func TestDoacrossBodyRing(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	grid := Grid{Rows: 10, Cols: 4, Chain: true}
	rec := obs.NewRecorder(0)
	if !Run(grid, pool, func(ring *obs.Ring, a, b int) bool {
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
	if !Run(grid, pool, func(ring *obs.Ring, _, _ int) bool {
		if ring != nil {
			t.Error("unrecorded run passed a ring")
		}
		return true
	}, nil, nil) {
		t.Fatal("unrecorded run did not complete")
	}
	row := obs.NewRecorder(0)
	if !Run(Grid{Rows: 1, Cols: 40}, pool, func(ring *obs.Ring, _, b int) bool {
		if ring == nil {
			t.Error("recorded DOALL row passed a nil ring")
			return false
		}
		ring.Emit(obs.KChunk, ring.Now(), 0, int64(b), 0)
		return true
	}, nil, row) {
		t.Fatal("DOALL row did not complete")
	}
	kinds := map[obs.Kind]int{}
	for _, evs := range row.Snapshot() {
		for _, ev := range evs {
			kinds[ev.Kind]++
		}
	}
	if kinds[obs.KChunk] != 40 || len(kinds) != 1 {
		t.Errorf("DOALL row recorded %v, want 40 body chunk spans and nothing else", kinds)
	}
}

// TestDoacrossCancel cancels a chained grid while a worker is parked
// on the tile in flight. Cancellation reaches Run only through its
// bodies: a flag set from outside, the way interp's context.AfterFunc
// sets its own, which every body reads and returns false on. The held
// tile (0, 0) gates column 1, so the other worker parks on it; once it
// has, the flag is set, the held tile returns false, and its abort must
// release the parked worker so Run returns !completed at once. The pool
// may not hand a run to its helper (then one loop runs alone and nothing
// parks), so the run is retried until an attempt parks a worker.
func TestDoacrossCancel(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	for attempt := 0; attempt < 5; attempt++ {
		var stats Stats
		var cancelled, held atomic.Bool
		done := make(chan bool, 1)
		go func() {
			done <- Run(Grid{Rows: 1 << 20, Cols: 2, Chain: true}, pool, func(_ *obs.Ring, _, _ int) bool {
				if held.CompareAndSwap(false, true) {
					for end := time.Now().Add(time.Second); stats.Stalls.Load() == 0 && time.Now().Before(end); {
						time.Sleep(50 * time.Microsecond)
					}
					cancelled.Store(true)
				}
				return !cancelled.Load()
			}, &stats, nil)
		}()
		select {
		case completed := <-done:
			if completed {
				t.Fatal("cancelled run reported completion")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled run did not return: a parked worker was not released")
		}
		if stats.Stalls.Load() > 0 {
			return
		}
	}
	t.Fatal("no attempt parked a worker on the held tile")
}

// TestDoacrossBodyAbort checks that a body returning false (the
// interpreter's panic/cancel path) stops the run.
func TestDoacrossBodyAbort(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	var ran atomic.Int64
	completed := Run(Grid{Rows: 1000, Cols: 3, Chain: true}, pool, func(_ *obs.Ring, _, _ int) bool {
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
	pool := NewPool(2)
	defer pool.Close()
	body := func(_ *obs.Ring, _, _ int) bool { t.Error("body called"); return true }
	if !Run(Grid{Rows: 0, Cols: 10, Chain: true}, pool, body, nil, nil) {
		t.Error("grid without rows did not complete")
	}
	if !Run(Grid{Rows: 5, Cols: 0, Chain: true}, pool, body, nil, nil) {
		t.Error("grid without columns did not complete")
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

// doall is a row of independent tiles over n points for a pool of
// workers, and the tiles' width: n / (TilesPerWorker × workers) points,
// but no fewer than minW nor than one, and no more than n.
func doall(n int64, workers int, minW int64) (Grid, int64) {
	if n <= 0 {
		return Grid{Rows: 1}, 0
	}
	w := min(max(minW, n/(TilesPerWorker*int64(workers)), 1), n)
	return Grid{Rows: 1, Cols: int((n + w - 1) / w)}, w
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
		pool := NewPool(workers)
		for n := int64(1); n <= 100; n += 11 {
			for _, tileW := range []int64{0, 1, 7} {
				counts := make([]atomic.Int32, n)
				row, w := doall(n, workers, tileW)
				if !Run(row, pool, func(_ *obs.Ring, a, b int) bool {
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
	pool := NewPool(3)
	defer pool.Close()
	row, _ := doall(0, 3, 64)
	if !Run(row, pool, func(_ *obs.Ring, _, _ int) bool {
		t.Error("body called on an empty range")
		return true
	}, nil, nil) {
		t.Error("empty range did not complete")
	}
}

// TestDoAllCancel sets a cancellation flag from outside the run while a
// DOALL's first tiles run, as interp's context.AfterFunc does: the
// bodies read it and return false, the workers stop claiming, and Run
// reports !completed with tiles unvisited. The row is wide and each
// tile slow, so draining it takes far longer than any preemption of a
// worker between its body's false and the abort.
func TestDoAllCancel(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	var cancelled atomic.Bool
	started := make(chan struct{})
	go func() {
		<-started
		cancelled.Store(true)
	}()
	var once sync.Once
	var ran atomic.Int64
	row := Grid{Rows: 1, Cols: 1024}
	completed := Run(row, pool, func(_ *obs.Ring, _, _ int) bool {
		ran.Add(1)
		once.Do(func() { close(started) })
		time.Sleep(100 * time.Microsecond)
		return !cancelled.Load()
	}, nil, nil)
	if completed {
		t.Fatal("cancelled DOALL reported completion")
	}
	if n := ran.Load(); n >= int64(row.Cols) {
		t.Fatalf("cancellation did not stop the DOALL: %d of %d tiles ran", n, row.Cols)
	}
}

// TestDoAllBodyAbort checks a body returning false mid-DOALL (the
// interpreter's captured-panic path) stops the run. The first tile
// aborts; the others are slow enough that the other worker cannot drain
// the row while the aborting one is preempted before its abort.
func TestDoAllBodyAbort(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	var ran atomic.Int64
	row := Grid{Rows: 1, Cols: 1024}
	if Run(row, pool, func(_ *obs.Ring, _, _ int) bool {
		if ran.Add(1) == 1 {
			return false
		}
		time.Sleep(100 * time.Microsecond)
		return true
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
	pool := NewPool(2)
	defer pool.Close()
	for round := 0; round < 20; round++ {
		var stats Stats
		var held atomic.Bool
		if !Run(Grid{Rows: 1, Cols: 2}, pool, func(_ *obs.Ring, _, _ int) bool {
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
