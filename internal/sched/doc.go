// Package sched implements the tile executor, the only parallel
// executor of a run: §4 wavefront nests, §3 DOALL steps and the batch
// axis of RunBatch all reach the worker pool through Run. internal/par
// only starts the worker loops. Which plan a run executes is decided at
// lowering time (the DOALL → wavefront → sequential cascade of
// internal/plan), and internal/interp decides per activation, from its
// bounds alone, whether a step is wide enough to dispatch here or runs
// inline on the calling goroutine; this package holds no schedule
// selection of its own. Sweeping planes one at a time with a pool-wide
// fork/join per plane would pay a barrier on every plane, and on the
// narrow leading and trailing diagonals of every sweep that barrier
// dominates (it won no workload of this repo's benchmark).
//
// # The grid rule
//
// Run is handed a Grid of Rows × Cols tiles. Each column runs its rows
// top to bottom and carries an atomic completion counter (the last row
// it finished). In a chained grid tile (a, b) also waits on column b−1
// having finished row a, so it starts once (a−1, b) and (a, b−1) are
// done, point-to-point, with no barrier: anti-diagonals pipeline, and
// while one tile is still running its already-satisfied neighbours run
// the diagonals after it, the way nested-dataflow schedulers (Dinh &
// Simhadri) run dependence chains without global synchronization. A
// wavefront is a chained grid of skewed tiles: every dependence of the
// skewed nest points to a tile with no larger coordinate, which that
// chain reaches. A DOALL and a batch are one unchained row: their tiles
// are independent, claimed in any order, and Cut gives their widths.
//
// Tiles are claimed with a CAS so any worker may run any ready tile
// (work stealing); a worker that finds nothing ready spins briefly, then
// parks on a generation channel that every completion closes. A worker
// returns as soon as no tile is left unclaimed, so a join waits only for
// the tiles still running, never for a parked loop's wake-up. Stalls,
// executed tiles and steals are counted for RunStats.
//
// # Contract
//
// The package is geometry-agnostic: Run is handed the grid, a worker
// pool and a callback that executes tile (a, b). The caller owns all
// kernel state and what a tile covers; Run owns only the ordering.
//
// # Invariants
//
// Every tile executes exactly once (CAS-claimed), and no tile starts
// before the tiles the grid rule names completed — so a wavefront nest
// executed through Run computes bitwise-identical results to the inline
// sweep: same points, same kernels, every dependence between tiles
// satisfied point-to-point rather than by a barrier. Cancellation (the
// caller's abort channel, or the callback returning false) stops
// further claims and Run reports completion as false.
package sched
