// Package sched implements the tile executor, the only parallel
// executor of a run: §4 wavefront nests, §3 DOALL steps and the batch
// axis of RunBatch all reach the worker pool through Run. A DOALL is
// the degenerate nest — one plane, Window 1, no Preds — so its tiles are
// claimed in any order, and the batch axis is the same nest over the
// batch elements. internal/par only starts the worker loops. Which plan
// a run executes is decided at lowering time (the DOALL → wavefront →
// sequential cascade of internal/plan), and internal/interp decides per
// activation, from its bounds alone, whether a step is wide enough to
// dispatch here or runs inline on the calling goroutine; this package
// holds no schedule selection of its own.
// Sweeping hyperplanes t = π·x one at a time with a pool-wide fork/join
// per plane would pay a barrier on every plane, and on the narrow
// leading and trailing diagonals of every sweep that barrier dominates
// (it won no workload of this repo's benchmark).
//
// One plane coordinate is blocked
// into tiles with a fixed global grid; each tile carries an atomic
// completion counter (the last hyperplane it finished), and a worker
// entering tile k on plane t waits point-to-point only on the
// predecessor tiles implied by the transformed dependence vectors —
// bounded by the plan's dependence window — instead of on the whole
// pool. Successive hyperplanes pipeline: while one tile is still on
// plane t, its already-satisfied neighbours run planes t+1, t+2, …,
// the way nested-dataflow schedulers (Dinh & Simhadri) execute fine
// dependence chains without global synchronization.
//
// Tiles are claimed with a CAS so any worker may run any ready tile
// instance (work stealing); a worker that finds nothing ready spins
// briefly, then parks on a generation channel that every completion
// closes. A worker returns as soon as no instance is left unclaimed, so
// a join waits only for the instances still running, never for a parked
// loop's wake-up. Stalls, executed tiles and steals are counted for
// RunStats.
//
// # Contract
//
// The package is geometry-agnostic: Run is handed a Nest — the time
// range, the blocked coordinate's range, the dependence Window and the
// per-offset PredRange table — plus a worker pool and a callback that
// executes one (plane, tile) instance. The caller owns all kernel
// state; Run owns only the ordering.
//
// # Predecessor-tile math
//
// A point with blocked coordinate c on plane t reads coordinates
// [c-Hi(dt), c-Lo(dt)] on plane t-dt for each dt = 1..Window-1 (the
// PredRange table folds every transformed dependence with that time
// distance). A tile instance covering [blo, bhi] may therefore start
// once, for every dt, the predecessor tiles covering
// [blo-Hi(dt), bhi-Lo(dt)] have finished plane t-dt. The grid is fixed
// across planes, so that predecessor set is a contiguous tile range
// computed with two divisions; an instance whose predecessors are done
// can run even while distant tiles lag many planes behind.
//
// # Invariants
//
// Every (plane, tile) instance executes exactly once (CAS-claimed), and
// no instance starts before all its predecessor instances completed —
// so a wavefront nest executed through Run computes bitwise-identical
// results to the plane-by-plane sweep: same points, same kernels, every
// cross-plane dependence satisfied point-to-point rather than by a
// barrier. Cancellation (the caller's abort channel, or the callback
// returning false) stops further claims and Run reports completion as
// false.
package sched
