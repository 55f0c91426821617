package ps

import (
	"context"
	"errors"
	"io"
	"time"

	"repro/internal/interp"
	"repro/internal/obs"
)

// TimingBreakdown is the aggregated per-schedule timing of one traced
// run: compute, stall and idle nanoseconds summed across workers, plus
// specialization-fallback and arena counters. See
// obs.Breakdown for the per-worker accounting identity.
type TimingBreakdown = obs.Breakdown

// Trace is the recorded timeline of one TraceRun: per-worker spans of
// every schedule step (activations, sequential DO nests, DOALL chunks,
// inline wavefront planes, wavefront tiles and waits, pipeline stage
// bodies and channel stalls).
// It is immutable once returned.
type Trace struct {
	rec     *obs.Recorder
	process string
	workers int
	wall    time.Duration
}

// WriteChrome renders the trace as Chrome trace-event JSON, loadable
// in Perfetto (https://ui.perfetto.dev) and chrome://tracing. Each
// worker ring is one thread row; spans carry their schedule category
// and payload (plane t, tile coordinates, stage/token, point counts).
func (t *Trace) WriteChrome(w io.Writer) error {
	return t.rec.WriteChrome(w, t.process)
}

// Breakdown aggregates the trace into the per-schedule timing split
// TraceRun also attaches to its RunStats.
func (t *Trace) Breakdown() *TimingBreakdown {
	b := t.rec.Breakdown(t.workers, t.wall)
	return &b
}

// Events reports the number of recorded span events; Dropped the
// events lost to ring wraparound (long runs overwrite oldest first).
func (t *Trace) Events() int64  { return t.rec.Events() }
func (t *Trace) Dropped() int64 { return t.rec.Dropped() }

// TraceRun executes the module like Run while recording a full
// execution trace: timestamped per-worker spans on lock-free ring
// buffers (bounded memory — long runs drop oldest events, reported by
// Trace.Dropped). The returned RunStats carries the aggregated
// TimingBreakdown in its Timing field, and the Trace renders the
// timeline via WriteChrome. The traced run also becomes the "timing
// (last traced run)" line of Explain.
//
// Tracing costs one branch per span boundary plus two clock reads per
// recorded span — typically a few percent on span-dense runs and
// unmeasurable on kernel-bound ones; the untraced path is unaffected.
func (r *Runner) TraceRun(ctx context.Context, args []any) ([]any, *RunStats, *Trace, error) {
	o := r.opts
	var st interp.Stats
	o.Stats = &st
	rec := obs.NewRecorder(0)
	o.Trace = rec
	if eng := r.prog.eng; eng != nil {
		if eng.closed.Load() {
			return nil, &RunStats{Workers: 1}, nil, &Error{Phase: PhaseRun, Module: r.mod.Name(), Err: errors.New("engine is closed")}
		}
		o.Pool = r.pool
	}
	start := time.Now()
	results, err := r.prog.ip.RunCtx(ctx, r.mod.Name(), args, o)
	wall := time.Since(start)
	workers := effectiveWorkers(o)
	stats := &RunStats{
		EquationInstances:  st.EqInstances.Load(),
		DOALLChunks:        st.Chunks.Load(),
		WavefrontPlanes:    st.Planes.Load(),
		DoacrossTiles:      st.Doacross.Tiles.Load(),
		DoacrossStalls:     st.Doacross.Stalls.Load(),
		DoacrossSteals:     st.Doacross.Steals.Load(),
		PipelineStages:     st.PipelineStages.Load(),
		StageStalls:        st.PipelineStalls.Load(),
		SpecializedKernels: st.Specialized.Load(),
		ArenaReuses:        st.ArenaReuses.Load(),
		Workers:            workers,
		WallTime:           wall,
	}
	tr := &Trace{rec: rec, process: "ps/" + r.mod.Name(), workers: workers, wall: wall}
	stats.Timing = tr.Breakdown()
	r.lastTiming.Store(stats.Timing)
	if err != nil {
		return nil, stats, tr, runError(r.mod.Name(), err)
	}
	return results, stats, tr, nil
}
