package obs

import (
	"fmt"
	"strings"
	"time"
)

// Breakdown is the aggregated timing of one traced run: where the
// workers' time went, split by schedule and by cost class (compute vs.
// the residual synchronization each schedule pays). All durations are
// nanoseconds summed across workers, so the per-worker identity is
//
//	ComputeNs + StallNs() + IdleNs = Workers × WallNs
//
// exactly, unless the clamp on IdleNs fires.
type Breakdown struct {
	// Workers is the worker count the run was configured with; WallNs
	// the activation's elapsed wall time. Both are supplied by the
	// caller — the recorder only sees spans.
	Workers int
	WallNs  int64

	// ComputeNs sums the executors' working spans: sequential DO nests,
	// sequential DOALL steps, parallel chunks, inline planes and
	// wavefront tiles.
	ComputeNs int64
	// Per-schedule slices of ComputeNs.
	DoNs        int64 // sequential DO nests
	DOALLNs     int64 // sequential DOALL steps + chunks
	WavefrontNs int64 // inline planes
	DoacrossNs  int64 // tile instances
	// StolenNs is the subset of DoacrossNs run by non-home workers.
	StolenNs int64

	// DoacrossStallNs sums parked doacross waits.
	DoacrossStallNs int64
	// BarrierIdleNs is always 0: it is the fork/join slack of planes
	// dispatched to the pool one at a time, and no executor does that
	// (tiles wait point-to-point, which DoacrossStallNs counts). The
	// field stays because the repo benchmark and the fuzzer's timing
	// identity read it.
	BarrierIdleNs int64
	// IdleNs is the unattributed remainder, workers × wall minus
	// everything above, clamped at zero. No executor runs more than
	// Workers goroutines of one run at a time, and wall brackets every
	// span, so the clamp fires only if a span was recorded outside the
	// run or the configured worker count understates the real one.
	IdleNs int64

	// SpecFallbacks counts points that fell back from a specialized
	// kernel to the generic evaluator; ArenaReuses counts recycled
	// activation arrays.
	SpecFallbacks int64
	ArenaReuses   int64

	// Events and Dropped report the recorder's volume: spans emitted
	// and spans lost to ring wraparound (a non-zero Dropped undercounts
	// every sum above).
	Events  int64
	Dropped int64
}

// StallNs is the run's total attributed synchronization time.
func (b *Breakdown) StallNs() int64 { return b.DoacrossStallNs }

// Breakdown aggregates the recorded events. workers is the run's
// configured worker count, wall its elapsed time; both come from the
// caller since the recorder only sees spans. Call it only after the
// traced run has returned.
func (r *Recorder) Breakdown(workers int, wall time.Duration) Breakdown {
	if workers < 1 {
		workers = 1
	}
	b := Breakdown{Workers: workers, WallNs: wall.Nanoseconds(), Events: r.Events(), Dropped: r.Dropped()}
	for _, evs := range r.Snapshot() {
		for _, ev := range evs {
			switch ev.Kind {
			case KDo:
				b.DoNs += ev.Dur
			case KDoAll, KChunk:
				b.DOALLNs += ev.Dur
			case KPlane:
				b.WavefrontNs += ev.Dur
			case KTile:
				b.DoacrossNs += ev.Dur
				if ev.Arg1&1 != 0 {
					b.StolenNs += ev.Dur
				}
			case KTileWait:
				b.DoacrossStallNs += ev.Dur
			case KSpecFallback:
				b.SpecFallbacks += ev.Arg1
			case KArenaReuse:
				b.ArenaReuses++
			}
		}
	}
	b.ComputeNs = b.DoNs + b.DOALLNs + b.WavefrontNs + b.DoacrossNs
	if idle := int64(workers)*b.WallNs - b.ComputeNs - b.StallNs(); idle > 0 {
		b.IdleNs = idle
	}
	return b
}

// String renders the breakdown on a few lines, durations humanized —
// what `psrun -stats` and Explain print.
func (b *Breakdown) String() string {
	d := func(ns int64) time.Duration { return time.Duration(ns) }
	var sb strings.Builder
	fmt.Fprintf(&sb, "wall=%v workers=%d compute=%v stall=%v idle=%v",
		d(b.WallNs), b.Workers, d(b.ComputeNs), d(b.StallNs()), d(b.IdleNs))
	fmt.Fprintf(&sb, "\n  compute: do=%v doall=%v wavefront=%v doacross=%v (stolen=%v)",
		d(b.DoNs), d(b.DOALLNs), d(b.WavefrontNs), d(b.DoacrossNs), d(b.StolenNs))
	fmt.Fprintf(&sb, "\n  stalls: doacross=%v; spec_fallback_points=%d arena_reuses=%d events=%d",
		d(b.DoacrossStallNs), b.SpecFallbacks, b.ArenaReuses, b.Events)
	if b.Dropped > 0 {
		fmt.Fprintf(&sb, " dropped=%d", b.Dropped)
	}
	return sb.String()
}
