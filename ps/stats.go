package ps

import (
	"fmt"
	"time"

	"repro/internal/interp"
)

// RunStats reports per-run execution counters for capacity planning:
// how much work a run represented, how it was carved into parallel
// chunks, and how long it took. Every Runner.Run returns one, including
// failed and cancelled runs (with the counters accumulated up to the
// abort).
type RunStats struct {
	// EquationInstances is the number of equation instances executed —
	// one per evaluation of one equation at one index point, the
	// paper's unit of schedulable work.
	EquationInstances int64
	// DOALLChunks is the number of tiles the run's DOALL steps and batch
	// axis ran on the worker pool; steps below the dispatch rule run
	// inline and add none. Wavefront tiles count in DoacrossTiles.
	DOALLChunks int64
	// WavefrontPlanes counts the planes §4 wavefront steps launched: the
	// A + B − 1 anti-diagonals of a tiled nest's A × B grid, 1 per nest
	// swept inline, zero when no wavefront step executed.
	WavefrontPlanes int64
	// DoacrossTiles is the number of wavefront tiles the tile executor
	// ran — A × B per tiled nest. It is > 0 exactly when a wavefront
	// nest of the run was tiled; zero when every nest swept inline
	// (narrow planes, one worker, a nest inside a batch element or
	// parallel chunk).
	DoacrossTiles int64
	// DoacrossStalls counts the times a tile worker found no ready
	// tile and parked until a predecessor completed — the executor's
	// residual synchronization cost.
	DoacrossStalls int64
	// DoacrossSteals counts wavefront tiles executed by a worker other
	// than the tile's home worker: how often work stealing rebalanced
	// the tiles. It never exceeds DoacrossTiles.
	DoacrossSteals int64
	// PipelineStages and StageStalls are always 0: they counted a
	// pipeline backend that no longer exists. They stay only because the
	// repo benchmark (benchmark/harness.go) still reads them.
	PipelineStages, StageStalls int64
	// SpecializedKernels is the number of equation instances executed
	// by a specialized (strength-reduced, bounds-certified) kernel
	// rather than the generic checked evaluator. At most
	// EquationInstances; zero under Strict.
	SpecializedKernels int64
	// ArenaReuses is the number of activation arrays whose backing
	// store was recycled from the arena instead of freshly allocated.
	// Zero on a first run (nothing pooled yet) and under Strict.
	ArenaReuses int64
	// Workers is the worker count the run was configured with (1 for
	// sequential runs).
	Workers int
	// WallTime is the elapsed time of the activation.
	WallTime time.Duration
	// Timing is the per-schedule timing breakdown of the run — compute,
	// stall and idle time summed across workers. Only
	// traced runs (Runner.TraceRun, `psrun -trace`/-stats, serve's
	// ?trace=1) populate it; plain Run leaves it nil, keeping the
	// untraced hot path free of recording overhead.
	Timing *TimingBreakdown
}

// String renders the stats on one line.
func (s *RunStats) String() string {
	return fmt.Sprintf("eq_instances=%d specialized=%d doall_chunks=%d wavefront_planes=%d doacross_tiles=%d doacross_stalls=%d doacross_steals=%d arena_reuses=%d workers=%d wall=%s",
		s.EquationInstances, s.SpecializedKernels, s.DOALLChunks, s.WavefrontPlanes,
		s.DoacrossTiles, s.DoacrossStalls, s.DoacrossSteals,
		s.ArenaReuses, s.Workers, s.WallTime)
}

// newRunStats reads an activation's interpreter counters into RunStats.
func newRunStats(st *interp.Stats, workers int, wall time.Duration) *RunStats {
	return &RunStats{
		EquationInstances:  st.EqInstances.Load(),
		DOALLChunks:        st.Chunks.Load(),
		WavefrontPlanes:    st.Planes.Load(),
		DoacrossTiles:      st.Doacross.Tiles.Load(),
		DoacrossStalls:     st.Doacross.Stalls.Load(),
		DoacrossSteals:     st.Doacross.Steals.Load(),
		SpecializedKernels: st.Specialized.Load(),
		ArenaReuses:        st.ArenaReuses.Load(),
		Workers:            workers,
		WallTime:           wall,
	}
}
