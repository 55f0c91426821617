// Package sched implements the tile executor, the only parallel
// executor of a run, and the worker pool it runs on: §4 wavefront nests
// and §3 DOALL steps both reach the pool through Run. Which plan a run
// executes is decided at lowering time (the DOALL → wavefront →
// sequential cascade of internal/plan), and internal/interp decides per
// activation, from its bounds alone, whether a step is wide enough to
// dispatch here or runs inline on the calling goroutine; this package
// holds no schedule selection of its own. Sweeping planes one at a time
// with a pool-wide fork/join per plane would pay a barrier on every
// plane, and on the narrow leading and trailing diagonals of every
// sweep that barrier dominates (it won no workload of this repo's
// benchmark).
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
// chain reaches. A DOALL is one unchained row: its tiles are
// independent and claimed in any order; what each covers is the
// caller's.
//
// Tiles are claimed with a CAS so any worker may run any ready tile
// (work stealing); a worker that finds nothing ready spins briefly, then
// parks on a generation channel that every completion closes. A worker
// returns as soon as no tile is left unclaimed, so a join waits only for
// the tiles still running, never for a parked loop's wake-up. Stalls,
// executed tiles and steals are counted for RunStats.
//
// # The pool
//
// A Pool plays the role the target MIMD machine's processors played for
// the paper's generated C. Its owner (ps.Engine, one pool per width)
// creates and closes it; Run is the only code that dispatches on it. A
// dispatch's caller runs every worker loop no parked helper claimed, so
// its join never waits for a helper busy in another caller's step, and
// a dispatch racing or following Close runs on its calling goroutine.
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
// satisfied point-to-point rather than by a barrier. The callback
// returning false is the only stop: it stops further claims, releases
// parked workers, and Run reports completion as false once the tiles in
// flight finish. Run takes no context or channel; a caller that cancels
// (internal/interp) sets a flag its bodies read and return false on.
package sched
