package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Policy selects the order of the lowering cascade, i.e. which plan
// variant a run executes. It never selects an executor: a wavefront
// step's dispatch is a function of the activation's bounds (see
// internal/interp).
type Policy uint8

const (
	// PolicyAuto (the default) is the DOALL → wavefront → pipeline
	// cascade.
	PolicyAuto Policy = iota
	// PolicyPipeline prefers the PS-DSWP pipeline backend in the plan
	// cascade: nests with downstream DOALL consumer stages lower as
	// decoupled pipeline steps even when a wavefront transform would
	// also apply.
	PolicyPipeline
)

// String names the policy the way flags spell it.
func (p Policy) String() string {
	switch p {
	case PolicyAuto:
		return "auto"
	case PolicyPipeline:
		return "pipeline"
	}
	return "?"
}

// ParsePolicy resolves a -schedule flag value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "auto":
		return PolicyAuto, nil
	case "pipeline":
		return PolicyPipeline, nil
	}
	return PolicyAuto, fmt.Errorf("invalid schedule %q (want auto or pipeline)", s)
}

// PredRange bounds the blocked-coordinate shift of the dependences that
// reach a fixed number of hyperplanes back: a point with blocked
// coordinate c on plane t reads coordinates [c-Hi, c-Lo] on plane t-dt.
// Has is false when no dependence spans that plane offset.
type PredRange struct {
	Has    bool
	Lo, Hi int64
}

// Stats accumulates doacross counters; fields are updated atomically so
// one Stats value may observe concurrent runs.
type Stats struct {
	// Tiles counts executed tile instances (one per tile per hyperplane,
	// including instances the per-plane tightening leaves empty).
	Tiles atomic.Int64
	// Stalls counts the times a worker found no ready tile instance and
	// parked until a completion woke it.
	Stalls atomic.Int64
	// Steals counts tile instances executed by a worker other than the
	// tile's home worker.
	Steals atomic.Int64
}

// Nest describes one wavefront iteration space for the doacross
// executor: the hyperplane (time) range, the global range of the
// blocked plane coordinate, and the dependence structure in transformed
// coordinates.
type Nest struct {
	// TLo, THi is the inclusive hyperplane range of the sweep.
	TLo, THi int64
	// CoordLo, CoordHi is the inclusive global range of the blocked
	// plane coordinate; tiles partition it on a fixed grid shared by
	// every plane.
	CoordLo, CoordHi int64
	// Window is the §3.4 dependence window: dependences reach at most
	// Window-1 planes back.
	Window int
	// Preds[dt-1] bounds the blocked-coordinate shifts of the
	// dependences reaching dt planes back, dt = 1..Window-1.
	Preds []PredRange
	// Workers is the concurrency the run loop is dispatched at.
	Workers int
	// TileWidth is the blocked-coordinate width per tile; <= 0 derives
	// it from the span and worker count (TilesPerWorker tiles each).
	TileWidth int64
}

// TilesPerWorker is the default tile surplus per worker: enough slack
// for stealing to rebalance without making tile bookkeeping dominate.
const TilesPerWorker = 4

// Body executes tile k's slice of hyperplane t: every point of the
// plane whose blocked coordinate lies in [lo, hi]. ring is the calling
// worker's event ring (nil when the run is not recorded): the body may
// emit on it, so events raised inside a tile land beside its KTile span
// without a second ring acquisition. It returns false to abort the whole
// run (the caller observed cancellation or captured a panic); sched then
// stops scheduling and Run reports !completed.
type Body func(ring *obs.Ring, t int64, k int, lo, hi int64) bool

// Looper dispatches the executor's worker loops; *par.Pool satisfies it.
type Looper interface {
	ForRangesOpts(cancel <-chan struct{}, lo, hi, grain int64, body func(start, end int64)) bool
	Workers() int
}

// padded keeps per-tile counters on distinct cache lines: done and
// claimed are the contention points of the whole schedule.
type padded struct {
	v atomic.Int64
	_ [56]byte
}

// run is the state of one doacross execution.
type run struct {
	nest   Nest
	body   Body
	tileW  int64
	ntiles int
	// done[k] is the last hyperplane tile k completed; claimed[k] the
	// last one claimed. claimed leads done by at most one plane, so a
	// tile column executes its planes in order and done is monotone.
	done    []padded
	claimed []padded
	// remaining counts unfinished tile instances; 0 terminates workers.
	remaining atomic.Int64
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

// Tiles reports how the nest is blocked: the tile count and width the
// executor would use. It is what Explain prints.
func (n *Nest) Tiles() (ntiles int, tileW int64) {
	span := n.CoordHi - n.CoordLo + 1
	if span <= 0 {
		return 0, 0
	}
	w := n.TileWidth
	if w <= 0 {
		workers := n.Workers
		if workers < 1 {
			workers = 1
		}
		w = span / int64(workers*TilesPerWorker)
		if w < 1 {
			w = 1
		}
	}
	if w > span {
		w = span
	}
	return int((span + w - 1) / w), w
}

// Run executes the nest's tile instances in dependence order on the
// looper's workers, calling body once per (plane, tile). It reports
// whether every instance completed: false means the run was cancelled
// (via the cancel channel or a body returning false) with instances
// unvisited. A nest with an empty time range or coordinate span
// completes trivially. rec, when non-nil, records each worker's tile
// spans (obs.KTile, with the steal flag) and parked waits
// (obs.KTileWait) on a per-worker ring.
func Run(nest Nest, lp Looper, cancel <-chan struct{}, body Body, stats *Stats, rec *obs.Recorder) bool {
	nplanes := nest.THi - nest.TLo + 1
	if nplanes <= 0 {
		return true
	}
	ntiles, tileW := nest.Tiles()
	if ntiles == 0 {
		return true
	}
	if nest.Workers <= 0 {
		nest.Workers = lp.Workers()
	}
	r := &run{
		nest:    nest,
		body:    body,
		tileW:   tileW,
		ntiles:  ntiles,
		done:    make([]padded, ntiles),
		claimed: make([]padded, ntiles),
		stats:   stats,
		cancel:  cancel,
		wakeCh:  make(chan struct{}),
		rec:     rec,
	}
	for k := 0; k < ntiles; k++ {
		r.done[k].v.Store(nest.TLo - 1)
		r.claimed[k].v.Store(nest.TLo - 1)
	}
	r.remaining.Store(nplanes * int64(ntiles))
	workers := nest.Workers
	if workers > ntiles {
		// More workers than tiles cannot all make progress at once, but
		// extra loops still help when pipelined planes open up; cap at
		// one loop per tile to bound spinning on tiny nests.
		workers = ntiles
	}
	// Each range chunk is one worker loop; grain 1 pins one loop per
	// pool slot. Cancellation is handled inside the loops (parked
	// workers select on the channel), so the pool-level cancel is nil.
	lp.ForRangesOpts(nil, 0, int64(workers)-1, 1, func(start, end int64) {
		for w := start; w <= end; w++ {
			r.worker(int(w), workers)
		}
	})
	return !r.aborted.Load() && r.remaining.Load() == 0
}

// tileSpan returns tile k's inclusive blocked-coordinate range.
func (r *run) tileSpan(k int) (lo, hi int64) {
	lo = r.nest.CoordLo + int64(k)*r.tileW
	hi = lo + r.tileW - 1
	if hi > r.nest.CoordHi {
		hi = r.nest.CoordHi
	}
	return lo, hi
}

// homeWorker maps a tile to the worker that owns it under the static
// block assignment; instances run elsewhere count as steals. Worker w
// scans from tile w·ntiles/workers, so its home span is
// [w·ntiles/workers, (w+1)·ntiles/workers) and this is that mapping's
// inverse: the unique w whose span contains k.
func (r *run) homeWorker(k, workers int) int {
	return (k*workers + workers - 1) / r.ntiles
}

// predTiles returns the tile range tile k reads on an earlier plane
// under pr, clamped to the grid.
func (r *run) predTiles(k int, pr PredRange) (int, int) {
	lo, hi := r.tileSpan(k)
	readLo := lo - pr.Hi
	readHi := hi - pr.Lo
	jlo := int(floorDiv(readLo-r.nest.CoordLo, r.tileW))
	jhi := int(floorDiv(readHi-r.nest.CoordLo, r.tileW))
	if jlo < 0 {
		jlo = 0
	}
	if jhi > r.ntiles-1 {
		jhi = r.ntiles - 1
	}
	return jlo, jhi
}

// ready reports whether tile k's next instance can run, and which plane
// it is. An instance (t, k) is ready when the tile's previous plane has
// completed (so claims stay in order and at most one instance per tile
// is in flight) and every predecessor tile implied by the dependence
// window has completed the plane the instance reads.
func (r *run) ready(k int) (int64, bool) {
	t := r.done[k].v.Load() + 1
	if t > r.nest.THi {
		return 0, false // tile column finished
	}
	if r.claimed[k].v.Load() != t-1 {
		return 0, false // instance already in flight
	}
	for dt := 1; dt < r.nest.Window; dt++ {
		if dt-1 >= len(r.nest.Preds) {
			break
		}
		pr := r.nest.Preds[dt-1]
		if !pr.Has {
			continue
		}
		pt := t - int64(dt)
		if pt < r.nest.TLo {
			continue // reads precede the sweep: inputs, not instances
		}
		jlo, jhi := r.predTiles(k, pr)
		for j := jlo; j <= jhi; j++ {
			// j == k is implied by done[k] == t-1 (pt <= t-1).
			if j != k && r.done[j].v.Load() < pt {
				return 0, false
			}
		}
	}
	return t, true
}

// worker is one doacross loop: scan the tiles from the home offset for
// a ready instance, claim it with a CAS, execute, publish completion,
// and wake stalled peers. With nothing ready it spins briefly, then
// parks on the generation channel.
func (r *run) worker(w, workers int) {
	var ring *obs.Ring
	if r.rec != nil {
		ring = r.rec.Acquire()
		defer r.rec.Release(ring)
	}
	home := w * r.ntiles / workers
	const spinLimit = 64
	spins := 0
	for r.remaining.Load() > 0 && !r.aborted.Load() {
		claimedOne := false
		for s := 0; s < r.ntiles; s++ {
			k := home + s
			if k >= r.ntiles {
				k -= r.ntiles
			}
			t, ok := r.ready(k)
			if !ok {
				continue
			}
			if !r.claimed[k].v.CompareAndSwap(t-1, t) {
				continue // another worker won the claim
			}
			lo, hi := r.tileSpan(k)
			var t0 int64
			if ring != nil {
				t0 = ring.Now()
			}
			ok = r.body(ring, t, k, lo, hi)
			// Publish after the body's writes so a predecessor check
			// (atomic load of done) orders the data reads behind them.
			r.done[k].v.Store(t)
			r.remaining.Add(-1)
			stolen := r.homeWorker(k, workers) != w
			if r.stats != nil {
				r.stats.Tiles.Add(1)
				if stolen {
					r.stats.Steals.Add(1)
				}
			}
			if ring != nil {
				flags := int64(k) << 1
				if stolen {
					flags |= 1
				}
				ring.Emit(obs.KTile, t0, ring.Now()-t0, t, flags)
			}
			r.wake()
			if !ok {
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

// abort stops every worker: no further instances are claimed and parked
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

// park blocks until any tile instance completes (or the run aborts or
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
	if r.remaining.Load() == 0 || r.aborted.Load() {
		return false
	}
	for k := 0; k < r.ntiles; k++ {
		if _, ok := r.ready(k); ok {
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

// floorDiv divides rounding toward −∞; b must be positive.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
