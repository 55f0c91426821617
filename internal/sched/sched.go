package sched

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/par"
)

// Stats accumulates tile executor counters; fields are updated
// atomically so one Stats value may observe concurrent runs.
type Stats struct {
	// Tiles counts executed tiles, Rows × Cols for a completed run.
	Tiles atomic.Int64
	// Stalls counts the times a worker found no ready tile and
	// parked until a completion woke it.
	Stalls atomic.Int64
	// Steals counts tiles executed by a worker other than their
	// column's home worker.
	Steals atomic.Int64
}

// Grid is the tile grid Run executes: Rows × Cols tiles, each column
// run top to bottom. In a chained grid tile (a, b) also waits on
// (a, b−1), so with the column order it starts once (a−1, b) and
// (a, b−1) are done: a wavefront's anti-diagonals pipeline. An unchained
// grid of one row is a DOALL: its tiles are independent.
type Grid struct {
	Rows, Cols int
	Chain      bool
}

// TilesPerWorker is the default tile surplus per worker: enough slack
// for stealing to rebalance without making tile bookkeeping dominate.
const TilesPerWorker = 4

// Body executes tile (a, b) of the grid. ring is the calling
// worker's event ring (nil when the run is not recorded): the body may
// emit on it, so events raised inside a tile land beside its KTile span
// without a second ring acquisition. It returns false to abort the whole
// run (the caller observed cancellation or captured a panic); sched then
// stops scheduling and Run reports !completed.
type Body func(ring *obs.Ring, a, b int) bool

// padded keeps per-tile counters on distinct cache lines: done and
// claimed are the contention points of the whole schedule.
type padded struct {
	v atomic.Int64
	_ [56]byte
}

// run is the state of one execution. It is recycled through runs, so a
// dispatch allocates nothing here once the pool is warm.
type run struct {
	grid    Grid
	body    Body
	workers int
	// loop is r.worker bound once per run object, the loop Start runs.
	loop func(w int)
	// done[b] is the last row column b completed; claimed[b] the last
	// one claimed. claimed leads done by at most one row, so a column
	// runs its rows in order and done is monotone.
	done    []padded
	claimed []padded
	// unclaimed counts tiles no worker has claimed; at 0 workers return,
	// leaving the tiles in flight to the workers running them.
	unclaimed atomic.Int64
	aborted   atomic.Bool
	stats     *Stats
	cancel    <-chan struct{}
	// waiters counts parked (or about-to-park) workers; completions skip
	// the wake machinery entirely while it is zero — the common case,
	// since workers spin briefly before parking.
	waiters atomic.Int64
	// wakeMu guards wakeCh, the generation channel stalled workers park
	// on; a completion observing waiters > 0 closes the current
	// generation.
	wakeMu sync.Mutex
	wakeCh chan struct{}
	// rec, when non-nil, records per-worker tile and wait spans.
	rec *obs.Recorder
}

// Cut blocks n points into tiles of one width: n/per points, but no
// fewer than minW nor than one, and no more than n. It returns the tile
// count and width; tile b covers [b·w, min((b+1)·w, n) − 1]. per is the
// number of tiles wanted, TilesPerWorker per worker for a DOALL.
func Cut(n, per, minW int64) (tiles int, w int64) {
	if n <= 0 {
		return 0, 0
	}
	w = min(max(minW, n/per, 1), n)
	return int((n + w - 1) / w), w
}

// runs recycles run objects, with their per-column counters and wake
// channel.
var runs = sync.Pool{New: func() any {
	r := &run{wakeCh: make(chan struct{})}
	r.loop = r.worker
	return r
}}

// Run executes the grid's tiles on the pool's workers in dependence
// order, calling body once per tile. It reports whether every tile
// completed: false means the run was cancelled (via the cancel channel
// or a body returning false) with tiles unvisited. An empty grid
// completes trivially. rec, when non-nil, records each worker's tile
// spans (obs.KTile, with the steal flag) and parked waits
// (obs.KTileWait) on a per-worker ring.
func Run(grid Grid, pool *par.Pool, cancel <-chan struct{}, body Body, stats *Stats, rec *obs.Recorder) bool {
	if grid.Rows <= 0 || grid.Cols <= 0 {
		return true
	}
	r := runs.Get().(*run)
	r.grid, r.body = grid, body
	r.stats, r.cancel, r.rec = stats, cancel, rec
	// More workers than columns cannot all make progress at once; cap at
	// one loop per column to bound spinning on narrow grids.
	cols := grid.Cols
	r.workers = min(pool.Workers(), cols)
	if cap(r.done) < cols {
		r.done = make([]padded, cols)
		r.claimed = make([]padded, cols)
	}
	r.done, r.claimed = r.done[:cols], r.claimed[:cols]
	for b := range cols {
		r.done[b].v.Store(-1)
		r.claimed[b].v.Store(-1)
	}
	r.unclaimed.Store(int64(grid.Rows) * int64(cols))
	r.aborted.Store(false)
	// Cancellation is handled inside the loops (parked workers select on
	// the channel), so the pool only starts them.
	pool.Start(r.workers, r.loop)
	completed := !r.aborted.Load() && r.unclaimed.Load() == 0
	r.grid, r.body, r.stats, r.cancel, r.rec = Grid{}, nil, nil, nil, nil
	runs.Put(r)
	return completed
}

// homeWorker maps a column to the worker that owns it under the static
// block assignment; tiles run elsewhere count as steals. Worker w
// scans from column w·cols/workers, so its home span is
// [w·cols/workers, (w+1)·cols/workers) and this is that mapping's
// inverse: the unique w whose span contains b.
func (r *run) homeWorker(b, workers int) int {
	return (b*workers + workers - 1) / r.grid.Cols
}

// ready reports whether column b's next tile can run, and which row it
// is: the column has rows left and none in flight, and in a chained
// grid the column to its left has finished that row.
func (r *run) ready(b int) (int, bool) {
	a := int(r.done[b].v.Load()) + 1
	if a >= r.grid.Rows || r.claimed[b].v.Load() != int64(a-1) {
		return 0, false
	}
	if r.grid.Chain && b > 0 && r.done[b-1].v.Load() < int64(a) {
		return 0, false
	}
	return a, true
}

// worker is one executor loop: scan the columns from the home offset
// for a ready tile, claim it with a CAS, execute, publish completion,
// and wake stalled peers. With nothing ready it spins briefly, then
// parks on the generation channel. It returns once no tile is left
// unclaimed — the tiles still in flight belong to their workers.
func (r *run) worker(w int) {
	workers, cols := r.workers, r.grid.Cols
	var ring *obs.Ring
	if r.rec != nil {
		ring = r.rec.Acquire()
		defer r.rec.Release(ring)
	}
	home := w * cols / workers
	const spinLimit = 64
	spins := 0
	for r.unclaimed.Load() > 0 && !r.aborted.Load() {
		claimedOne := false
		for s := 0; s < cols; s++ {
			b := home + s
			if b >= cols {
				b -= cols
			}
			a, ok := r.ready(b)
			if !ok {
				continue
			}
			if !r.claimed[b].v.CompareAndSwap(int64(a-1), int64(a)) {
				continue // another worker won the claim
			}
			r.unclaimed.Add(-1)
			var t0 int64
			if ring != nil {
				t0 = ring.Now()
			}
			ok = r.body(ring, a, b)
			// Publish after the body's writes so a readiness check
			// (atomic load of done) orders the data reads behind them.
			r.done[b].v.Store(int64(a))
			stolen := r.homeWorker(b, workers) != w
			if r.stats != nil {
				r.stats.Tiles.Add(1)
				if stolen {
					r.stats.Steals.Add(1)
				}
			}
			if ring != nil {
				flags := int64(b) << 1
				if stolen {
					flags |= 1
				}
				ring.Emit(obs.KTile, t0, ring.Now()-t0, int64(a+b), flags)
			}
			r.wake()
			if !ok || r.cancelled() {
				r.abort()
				return
			}
			claimedOne = true
			break // rescan from home for locality
		}
		if claimedOne {
			spins = 0
			continue
		}
		if r.cancelled() {
			r.abort()
			return
		}
		if spins++; spins < spinLimit {
			runtime.Gosched()
			continue
		}
		spins = 0
		if !r.park(ring) {
			return
		}
	}
}

// cancelled polls the external cancel channel.
func (r *run) cancelled() bool {
	if r.cancel == nil {
		return false
	}
	select {
	case <-r.cancel:
		return true
	default:
		return false
	}
}

// abort stops every worker: no further tiles are claimed and parked
// workers are released.
func (r *run) abort() {
	r.aborted.Store(true)
	r.wakeAll()
}

// wake releases parked workers after a completion; it is a single
// atomic load (and nothing else) while no worker is parked. The
// publish order — done.Store, then waiters.Load — pairs with park's
// waiters.Add-then-recheck so a registering parker either sees the new
// completion in its re-check or is seen here and woken.
func (r *run) wake() {
	if r.waiters.Load() > 0 {
		r.wakeAll()
	}
}

// wakeAll closes the current generation channel, releasing every
// parked worker; the next generation is armed under the same lock.
func (r *run) wakeAll() {
	r.wakeMu.Lock()
	close(r.wakeCh)
	r.wakeCh = make(chan struct{})
	r.wakeMu.Unlock()
}

// park blocks until any tile completes (or the run aborts or
// is cancelled), counting one stall. The worker registers as a waiter
// and samples the generation channel before the final readiness
// re-check, so a completion between the sample and the select either
// shows up in the re-check or observes the registration and closes the
// sampled channel — no lost wakeups. It returns false when the worker
// should exit. The blocked interval is recorded on ring as a
// KTileWait span.
func (r *run) park(ring *obs.Ring) bool {
	r.waiters.Add(1)
	defer r.waiters.Add(-1)
	r.wakeMu.Lock()
	ch := r.wakeCh
	r.wakeMu.Unlock()
	// Re-check after registering: progress published before the
	// registration is visible here, progress after it closes ch.
	if r.unclaimed.Load() == 0 || r.aborted.Load() {
		return false
	}
	for b := range r.grid.Cols {
		if _, ok := r.ready(b); ok {
			return true // something became ready while sampling
		}
	}
	if r.stats != nil {
		r.stats.Stalls.Add(1)
	}
	var t0 int64
	if ring != nil {
		t0 = ring.Now()
		defer func() { ring.Emit(obs.KTileWait, t0, ring.Now()-t0, 0, 0) }()
	}
	if r.cancel == nil {
		<-ch
		return true
	}
	select {
	case <-ch:
		return true
	case <-r.cancel:
		r.abort()
		return false
	}
}
