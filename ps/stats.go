package ps

import (
	"fmt"
	"time"
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
	// DOALLChunks is the number of parallel chunks dispatched to
	// workers across all DOALL loops of the run. Wavefront steps add
	// none: their parallel unit is the tile (DoacrossTiles).
	DOALLChunks int64
	// WavefrontPlanes is the number of hyperplane launches performed by
	// §4 auto-restructured (wavefront) steps — one per time step of each
	// transformed nest, distinguishing wavefront sweeps from plain DOALL
	// chunking. Zero when no wavefront step executed.
	WavefrontPlanes int64
	// DoacrossTiles is the number of tile instances executed by the
	// wavefront tile executor — one per tile per hyperplane. It is > 0
	// exactly when a wavefront nest of the run was tiled; zero when
	// every nest swept inline (narrow planes, one worker, a nest inside
	// a batch element or parallel chunk).
	DoacrossTiles int64
	// DoacrossStalls counts the times a tile worker found no ready
	// tile instance and parked until a predecessor completed — the
	// executor's residual synchronization cost.
	DoacrossStalls int64
	// DoacrossSteals counts tile instances executed by a worker other
	// than the tile's home worker: how often work stealing rebalanced
	// the pipeline.
	DoacrossSteals int64
	// PipelineStages is the number of PS-DSWP stages launched by
	// decoupled pipeline steps — one per stage per pipeline activation.
	// Zero when no nest ran the pipeline backend concurrently (including
	// sequential runs, where pipeline steps degenerate to stage-ordered
	// loops).
	PipelineStages int64
	// StageStalls counts blocking waits inside pipeline runs: a stage
	// starved on an empty input channel or backpressured on a full
	// output channel — the decoupled schedule's residual
	// synchronization cost.
	StageStalls int64
	// SpecializedKernels is the number of equation instances executed
	// by a specialized (strength-reduced, bounds-certified) kernel
	// rather than the generic checked evaluator. At most
	// EquationInstances; zero under Strict or NoSpecialize.
	SpecializedKernels int64
	// ArenaReuses is the number of activation arrays whose backing
	// store was recycled from the arena instead of freshly allocated.
	// Zero on a first run (nothing pooled yet), under Strict, or with
	// NoArena.
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
	return fmt.Sprintf("eq_instances=%d specialized=%d doall_chunks=%d wavefront_planes=%d doacross_tiles=%d doacross_stalls=%d doacross_steals=%d pipeline_stages=%d stage_stalls=%d arena_reuses=%d workers=%d wall=%s",
		s.EquationInstances, s.SpecializedKernels, s.DOALLChunks, s.WavefrontPlanes,
		s.DoacrossTiles, s.DoacrossStalls, s.DoacrossSteals, s.PipelineStages, s.StageStalls,
		s.ArenaReuses, s.Workers, s.WallTime)
}
