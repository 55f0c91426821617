package ps_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/psrc"
	"repro/ps"
)

// seedGrid builds an (n+2)×(n+2) seed for the wavefront modules.
func seedGrid(n int64) *ps.Array {
	a := ps.NewRealArray(ps.Axis{Lo: 0, Hi: n + 1}, ps.Axis{Lo: 0, Hi: n + 1})
	for i := int64(0); i <= n+1; i++ {
		for j := int64(0); j <= n+1; j++ {
			a.SetF([]int64{i, j}, float64((i*7+j*3)%5))
		}
	}
	return a
}

// TestWavefrontStats checks the RunStats attribution on a module whose
// recurrence auto-lowers to a wavefront: WavefrontPlanes counts exactly
// the hyperplanes of the sweep (for Wavefront2D with pi=(1,1) over
// [0,N+1]² that is 2(N+1)+1 time steps), DOALLChunks counts only the
// output DOALL's chunks (an inline sweep dispatches nothing), and the
// plane counter stays zero when the transform is off or the run is
// sequential — so the stats distinguish wavefront work from plain DOALL
// chunking.
func TestWavefrontStats(t *testing.T) {
	const n = 40 // 21-point average planes: an inline sweep at two workers
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("wf2d.ps", psrc.Wavefront2D)
	if err != nil {
		t.Fatal(err)
	}
	args := []any{seedGrid(n), int64(n)}
	points := int64((n + 2) * (n + 2))

	run, err := prog.Prepare("Wavefront2D")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := run.Run(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	wantPlanes := int64(2*(n+1) + 1)
	if stats.WavefrontPlanes != wantPlanes {
		t.Errorf("WavefrontPlanes = %d, want %d", stats.WavefrontPlanes, wantPlanes)
	}
	if stats.DOALLChunks == 0 {
		t.Error("the output DOALL dispatched no chunks")
	}
	if stats.DoacrossTiles != 0 {
		t.Errorf("narrow planes ran %d tiles under default options", stats.DoacrossTiles)
	}
	// eq.1 runs once per in-box point (bounding-box slack is skipped
	// before the kernel), eq.2 once per point of the output DOALL.
	if stats.EquationInstances != 2*points {
		t.Errorf("EquationInstances = %d, want %d", stats.EquationInstances, 2*points)
	}
	if !strings.Contains(stats.String(), "wavefront_planes=") {
		t.Errorf("stats string missing wavefront counter: %s", stats)
	}

	for _, tc := range []struct {
		name string
		opts []ps.RunOption
	}{
		{"HyperOff", []ps.RunOption{ps.WithHyperplane(ps.HyperplaneOff)}},
		{"Sequential", []ps.RunOption{ps.Sequential()}},
	} {
		r, err := prog.Prepare("Wavefront2D", tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := r.Run(context.Background(), args)
		if err != nil {
			t.Fatal(err)
		}
		if st.WavefrontPlanes != 0 {
			t.Errorf("%s: WavefrontPlanes = %d, want 0", tc.name, st.WavefrontPlanes)
		}
	}
}

// TestDoacrossStats pins the tile counters: a run whose grain puts the
// nest on the tile executor reports its tiles, results match the inline
// sweep bitwise, and the counters stay zero for the inline sweep and for
// sequential runs — so RunStats cleanly tells the two sides of the
// dispatch rule apart.
func TestDoacrossStats(t *testing.T) {
	const n = 40
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("wf2d.ps", psrc.Wavefront2D)
	if err != nil {
		t.Fatal(err)
	}
	args := []any{seedGrid(n), int64(n)}

	inline, err := prog.Prepare("Wavefront2D")
	if err != nil {
		t.Fatal(err)
	}
	wantRes, iStats, err := inline.Run(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	if iStats.DoacrossTiles != 0 || iStats.DoacrossStalls != 0 || iStats.DoacrossSteals != 0 {
		t.Errorf("inline sweep reports tile counters: %s", iStats)
	}
	want, err := ps.ResultsToJSON(prog, "Wavefront2D", wantRes)
	if err != nil {
		t.Fatal(err)
	}

	run, err := prog.Prepare("Wavefront2D", ps.Grain(1))
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := run.Run(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ps.ResultsToJSON(prog, "Wavefront2D", res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("tiled run diverges from the inline sweep")
	}
	// Tile width 1 over the 42-wide blocked coordinate: every plane of
	// the time range runs all 42 tile instances (most of them empty).
	if want := int64((2*(n+1) + 1) * (n + 2)); stats.DoacrossTiles != want {
		t.Errorf("DoacrossTiles = %d, want %d", stats.DoacrossTiles, want)
	}
	// The sweep still counts hyperplanes: pi=(1,1) over [0,N+1]² has
	// 2(N+1)+1 non-empty planes on either side of the rule.
	if want := int64(2*(n+1) + 1); stats.WavefrontPlanes != want {
		t.Errorf("WavefrontPlanes = %d, want %d", stats.WavefrontPlanes, want)
	}
	for _, probe := range []string{"doacross_tiles=", "doacross_stalls=", "doacross_steals="} {
		if !strings.Contains(stats.String(), probe) {
			t.Errorf("stats string missing %q: %s", probe, stats)
		}
	}

	// pprof labels wrap every tile body; they must not change what runs.
	labeled, err := prog.Prepare("Wavefront2D", ps.Grain(1), ps.WithProfileLabels())
	if err != nil {
		t.Fatal(err)
	}
	res, lStats, err := labeled.Run(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ps.ResultsToJSON(prog, "Wavefront2D", res); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("labeled tiled run diverges from the inline sweep (err %v)", err)
	}
	if lStats.DoacrossTiles != stats.DoacrossTiles {
		t.Errorf("labeled run executed %d tiles, unlabeled %d", lStats.DoacrossTiles, stats.DoacrossTiles)
	}

	seq, err := prog.Prepare("Wavefront2D", ps.Sequential(), ps.Grain(1))
	if err != nil {
		t.Fatal(err)
	}
	_, sStats, err := seq.Run(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	if sStats.DoacrossTiles != 0 {
		t.Errorf("sequential run executed tiles: %s", sStats)
	}
}

// TestWavefrontDispatchDeterministic pins that a wavefront step's
// executor is a function of the activation's bounds and nothing else: at
// each size, eight fresh engines report the same DoacrossTiles on their
// first and their fifth run — positive at the benchmark's corpus sizes,
// zero at its small-activation sizes — and Explain is byte-identical
// before and after the runs (nothing is calibrated, so the first
// activation cannot shape the later ones).
func TestWavefrontDispatchDeterministic(t *testing.T) {
	symbols := func(n int64) *ps.Array {
		a := ps.NewIntArray(ps.Axis{Lo: 1, Hi: n})
		for i := int64(1); i <= n; i++ {
			a.SetI([]int64{i}, (i*5+3)%4)
		}
		return a
	}
	gs := func(m int64) []any { return []any{seedGrid(m), m, int64(6)} }
	ed := func(n, m int64) []any { return []any{symbols(n), symbols(m), n, m} }
	for _, tc := range []struct {
		name, src, module string
		args              []any
		tiled             bool
	}{
		{"gauss_seidel/M192", psrc.RelaxationGS, "Relaxation", gs(192), true},
		{"gauss_seidel/M16", psrc.RelaxationGS, "Relaxation", gs(16), false},
		{"edit_distance/384x448", psrc.EditDistance, "EditDistance", ed(384, 448), true},
		{"edit_distance/24x24", psrc.EditDistance, "EditDistance", ed(24, 24), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := int64(-1)
			for e := 0; e < 8; e++ {
				eng := ps.NewEngine(ps.EngineWorkers(2))
				prog, err := eng.Compile(tc.module+".ps", tc.src)
				if err != nil {
					t.Fatal(err)
				}
				run, err := prog.Prepare(tc.module)
				if err != nil {
					t.Fatal(err)
				}
				before := run.Explain()
				for i := 1; i <= 5; i++ {
					_, stats, err := run.Run(context.Background(), tc.args)
					if err != nil {
						t.Fatal(err)
					}
					if i != 1 && i != 5 {
						continue
					}
					if want < 0 {
						want = stats.DoacrossTiles
						if (want > 0) != tc.tiled {
							t.Fatalf("DoacrossTiles = %d, want tiled = %v", want, tc.tiled)
						}
					}
					if stats.DoacrossTiles != want {
						t.Errorf("engine %d run %d: DoacrossTiles = %d, engine 0 run 1 had %d", e, i, stats.DoacrossTiles, want)
					}
				}
				if after := run.Explain(); after != before {
					t.Errorf("engine %d: Explain changed across runs:\n%s\n---\n%s", e, before, after)
				}
				eng.Close()
			}
		})
	}
}

// TestDoacrossStalls checks the residual-synchronization counters are
// actually wired end to end: a pipeline with many more tiles than
// workers forces workers off their home spans (steals) and, when a
// predecessor tile is still in flight past the spin window, parks them
// (stalls). Which of the two fires on a given run depends on scheduler
// timing, so the test accumulates over a serialized-pipeline shape
// until either counter is non-zero — if the sched package stopped
// reporting both, every attempt returns zero and the test fails.
func TestDoacrossStalls(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(4))
	defer eng.Close()
	prog, err := eng.Compile("gs.ps", psrc.RelaxationGS)
	if err != nil {
		t.Fatal(err)
	}
	// Grain 13 over the I span of 26 gives two fat tiles; window 3 makes
	// tile 1 wait on tile 0's in-flight planes, the shape most likely to
	// exhaust the spin window and park. The average plane (7436 points
	// over 71 planes, 104) clears the rule at both grains: 13 × 4 and
	// 1 × 4.
	run, err := prog.Prepare("Relaxation", ps.Grain(13))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := prog.Prepare("Relaxation", ps.Grain(1))
	if err != nil {
		t.Fatal(err)
	}
	const m, maxK = 24, 12
	args := []any{seedGrid(m), int64(m), int64(maxK)}
	var stalls, steals int64
	for attempt := 0; attempt < 25 && stalls+steals == 0; attempt++ {
		for _, r := range []*ps.Runner{run, wide} {
			_, stats, err := r.Run(context.Background(), args)
			if err != nil {
				t.Fatal(err)
			}
			if stats.DoacrossTiles == 0 {
				t.Fatal("the nest did not run on the tile executor")
			}
			if stats.DoacrossTiles < stats.WavefrontPlanes {
				t.Errorf("fewer tiles than planes (%d < %d): planes were not blocked",
					stats.DoacrossTiles, stats.WavefrontPlanes)
			}
			stalls += stats.DoacrossStalls
			steals += stats.DoacrossSteals
		}
	}
	if stalls+steals == 0 {
		t.Error("50 tiled runs recorded neither stalls nor steals: residual-sync counters are not wired")
	}
	t.Logf("accumulated stalls=%d steals=%d", stalls, steals)
}

// TestDoacrossCancellation aborts a long tiled sweep mid-flight:
// per-tile cancellation polling must notice the context within a few
// tiles and return the typed cancellation error.
func TestDoacrossCancellation(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("gs.ps", psrc.RelaxationGS)
	if err != nil {
		t.Fatal(err)
	}
	// Default options: 66² × 2047 points over 4223 planes is an average
	// plane of 2111, far past 32 × 2.
	run, err := prog.Prepare("Relaxation")
	if err != nil {
		t.Fatal(err)
	}
	// maxK is sized so the uncancelled sweep runs for seconds yet the
	// unwindowed (maxK+1)×(m+2)² recurrence array stays well under
	// 100 MB: a multi-gigabyte backing can spend minutes in first-touch
	// page faults on a slow VM, swamping the latency being measured.
	const m, maxK = 64, 1 << 11
	in := seedGrid(m)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, stats, err := run.Run(ctx, []any{in, int64(m), int64(maxK)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("tile cancellation took %v", elapsed)
	}
	// (Allocation alone can outlast the 20 ms; the sweep may not have
	// started.)
	if stats != nil && stats.WavefrontPlanes > 0 && stats.DoacrossTiles == 0 {
		t.Error("the cancelled sweep was not running on the tile executor")
	}
	// The sweep has ~2·maxK+m planes; a run that ignored the abort would
	// execute them all, so finishing with under half proves the executor
	// bailed mid-flight even if the wall clock is too noisy to.
	if stats == nil {
		t.Fatal("cancelled run did not report stats")
	}
	if total := int64(2*maxK + m); stats.WavefrontPlanes >= total/2 {
		t.Fatalf("cancelled run executed %d of ~%d planes: not aborted mid-flight",
			stats.WavefrontPlanes, total)
	}
}

// TestWavefrontCancellation aborts a long inline wavefront sweep
// mid-flight: the plane loop must notice the context within a few planes
// and return a typed cancellation error.
func TestWavefrontCancellation(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("gs.ps", psrc.RelaxationGS)
	if err != nil {
		t.Fatal(err)
	}
	// A grain no plane fills keeps the sweep on the calling goroutine.
	run, err := prog.Prepare("Relaxation", ps.Grain(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	// Sized like TestDoacrossCancellation: seconds of sweep, a
	// recurrence array small enough that first-touch faults cannot
	// dominate the measured latency.
	const m, maxK = 64, 1 << 11
	in := seedGrid(m)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, stats, err := run.Run(ctx, []any{in, int64(m), int64(maxK)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wavefront cancellation took %v", elapsed)
	}
	if stats != nil && stats.DoacrossTiles != 0 {
		t.Errorf("the inline sweep ran %d tiles", stats.DoacrossTiles)
	}
	if stats == nil {
		t.Fatal("cancelled run did not report stats")
	}
	if total := int64(2*maxK + m); stats.WavefrontPlanes >= total/2 {
		t.Fatalf("cancelled run executed %d of ~%d planes: not aborted mid-flight",
			stats.WavefrontPlanes, total)
	}
}
