package ps_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/ps"
)

func relaxInput(m int64) *ps.Array {
	in := ps.NewRealArray(ps.Axis{Lo: 0, Hi: m + 1}, ps.Axis{Lo: 0, Hi: m + 1})
	for i := int64(1); i <= m; i++ {
		for j := int64(1); j <= m; j++ {
			in.SetF([]int64{i, j}, float64((i*13+j*7)%11)/11.0)
		}
	}
	return in
}

// TestEngineConcurrentRunners drives one shared Engine/Program/Runner
// from many goroutines at once — the service shape — and checks every
// run produces the reference result with identical work counters. Run
// with -race.
func TestEngineConcurrentRunners(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(4))
	defer eng.Close()
	prog, err := eng.Compile("relax.ps", repro.Source("relaxation"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Relaxation")
	if err != nil {
		t.Fatal(err)
	}
	const m, maxK = 16, 5
	in := relaxInput(m)

	refOut, refStats, err := run.Run(context.Background(), []any{in, int64(m), int64(maxK)})
	if err != nil {
		t.Fatal(err)
	}
	ref := refOut[0].(*ps.Array)
	if refStats.EquationInstances == 0 {
		t.Fatal("reference run reported zero equation instances")
	}

	const goroutines, runsEach = 8, 3
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*runsEach)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runsEach; r++ {
				out, stats, err := run.Run(context.Background(), []any{in, int64(m), int64(maxK)})
				if err != nil {
					errc <- err
					return
				}
				if !out[0].(*ps.Array).Equal(ref) {
					errc <- errors.New("concurrent run produced a different grid")
					return
				}
				if stats.EquationInstances != refStats.EquationInstances {
					errc <- errors.New("concurrent run counted different equation instances")
					return
				}
				if stats.WallTime <= 0 {
					errc <- errors.New("stats missing wall time")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestEngineConcurrentCompile hammers the compile cache from many
// goroutines; every caller must get the same cached Program.
func TestEngineConcurrentCompile(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	progs := make([]*ps.Program, 16)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := eng.Compile("smooth.ps", repro.Source("smooth"))
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(progs); i++ {
		if progs[i] != progs[0] {
			t.Fatal("cache returned distinct programs for identical source")
		}
	}
	if n := eng.CachedPrograms(); n != 1 {
		t.Errorf("cache holds %d programs, want 1", n)
	}
}

// TestRunCancellation cancels a long run mid-flight: Run must return
// promptly with context.Canceled.
func TestRunCancellation(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(4))
	defer eng.Close()
	prog, err := eng.Compile("relax.ps", repro.Source("relaxation"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Relaxation")
	if err != nil {
		t.Fatal(err)
	}
	// Big enough to run for many seconds uncancelled: the outer DO K
	// loop dispatches one DOALL grid sweep per iteration.
	const m, maxK = 64, 1 << 20
	in := relaxInput(m)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, stats, err := run.Run(ctx, []any{in, int64(m), int64(maxK)})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var pe *ps.Error
	if !errors.As(err, &pe) || pe.Phase != ps.PhaseRun || pe.Module != "Relaxation" {
		t.Fatalf("error not typed as run-phase ps.Error: %#v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if stats == nil || stats.WallTime <= 0 {
		t.Error("cancelled run did not report stats")
	}
}

// TestRunDeadline covers deadline expiry and pre-cancelled contexts,
// including the all-sequential (Figure 7) schedule, whose loops are
// aborted between iterations rather than between chunks.
func TestRunDeadline(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("gs.ps", repro.Source("gauss_seidel"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Relaxation", ps.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	const m, maxK = 48, 1 << 20
	in := relaxInput(m)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = run.Run(ctx, []any{in, int64(m), int64(maxK)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline abort took %v", elapsed)
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, _, err := run.Run(pre, []any{in, int64(m), int64(maxK)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestRunStats checks the counters of a known workload: Smooth over
// 0..N+1 executes exactly N+2 equation instances.
func TestRunStats(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("smooth.ps", repro.Source("smooth"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	xs := ps.NewRealArray(ps.Axis{Lo: 0, Hi: n + 1})
	run, err := prog.Prepare("Smooth")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := run.Run(context.Background(), []any{xs, int64(n)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.EquationInstances != n+2 {
		t.Errorf("EquationInstances = %d, want %d", stats.EquationInstances, n+2)
	}
	if stats.DOALLChunks == 0 {
		t.Error("DOALLChunks = 0, want > 0 for a parallel DOALL")
	}
	if stats.Workers != 2 {
		t.Errorf("Workers = %d, want 2", stats.Workers)
	}
	if stats.WallTime <= 0 {
		t.Error("WallTime not populated")
	}
	if s := stats.String(); !strings.Contains(s, "eq_instances=4098") {
		t.Errorf("stats string %q", s)
	}

	// A sequential run of the same module dispatches no chunks.
	seqRun, err := prog.Prepare("Smooth", ps.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	_, seqStats, err := seqRun.Run(context.Background(), []any{xs, int64(n)})
	if err != nil {
		t.Fatal(err)
	}
	if seqStats.DOALLChunks != 0 || seqStats.Workers != 1 {
		t.Errorf("sequential stats %+v", seqStats)
	}
	if seqStats.EquationInstances != n+2 {
		t.Errorf("sequential EquationInstances = %d, want %d", seqStats.EquationInstances, n+2)
	}
}

// TestRunNamed checks the named-argument form against positional, plus
// its error paths.
func TestRunNamed(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("smooth.ps", repro.Source("smooth"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Smooth")
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	xs := ps.NewRealArray(ps.Axis{Lo: 0, Hi: n + 1})
	for i := int64(0); i <= n+1; i++ {
		xs.SetF([]int64{i}, float64(i*i))
	}
	posOut, _, err := run.Run(context.Background(), []any{xs, int64(n)})
	if err != nil {
		t.Fatal(err)
	}
	namedOut, _, err := run.RunNamed(context.Background(), map[string]any{"Xs": xs, "N": int64(n)})
	if err != nil {
		t.Fatal(err)
	}
	if !posOut[0].(*ps.Array).Equal(namedOut[0].(*ps.Array)) {
		t.Error("named and positional runs differ")
	}

	_, _, err = run.RunNamed(context.Background(), map[string]any{"Xs": xs})
	if err == nil || !strings.Contains(err.Error(), `missing argument "N"`) {
		t.Errorf("missing-argument error = %v", err)
	}
	_, _, err = run.RunNamed(context.Background(), map[string]any{"Xs": xs, "N": int64(n), "Bogus": 1})
	if err == nil || !strings.Contains(err.Error(), `unknown argument "Bogus"`) {
		t.Errorf("unknown-argument error = %v", err)
	}
}

// TestRunArgumentShape holds array arguments to their declared bounds:
// Smooth declares Xs over 0 .. N+1, so for N = 5 an Xs that is longer,
// shifted, or windowed is refused before the run, naming Xs and both
// ranges, where a run would read the wrong elements or wrong values.
func TestRunArgumentShape(t *testing.T) {
	prog, err := newEngine(t).Compile("smooth.ps", repro.Source("smooth"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Smooth")
	if err != nil {
		t.Fatal(err)
	}
	for _, ax := range []ps.Axis{{Lo: 0, Hi: 10}, {Lo: -3, Hi: 6}, {Lo: 0, Hi: 6, Window: 2}} {
		xs := ps.NewRealArray(ax)
		_, _, err := run.Run(context.Background(), []any{xs, int64(5)})
		var pe *ps.Error
		if !errors.As(err, &pe) || pe.Phase != ps.PhaseRun || !strings.Contains(err.Error(), "(Xs): dimension 1 is ") ||
			!strings.Contains(err.Error(), "declared 0..6") {
			t.Errorf("Xs over %+v: err = %v, want a run error naming Xs and its declared 0..6", ax, err)
		}
	}
}

// TestTypedErrors walks one failure through each phase and checks the
// structured fields.
func TestTypedErrors(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(1))
	defer eng.Close()

	// Parse: truncated module.
	_, err := eng.Compile("bad.ps", "Bad: module")
	var pe *ps.Error
	if !errors.As(err, &pe) || pe.Phase != ps.PhaseParse {
		t.Fatalf("parse error = %#v", err)
	}
	if pe.Line == 0 || pe.File != "bad.ps" {
		t.Errorf("parse error position = %s:%d:%d", pe.File, pe.Line, pe.Column)
	}

	// Check: undefined name.
	_, err = eng.Compile("bad.ps", "Bad: module (x: int): [y: int]; define y = nosuch; end Bad;")
	if !errors.As(err, &pe) || pe.Phase != ps.PhaseCheck || pe.Line == 0 {
		t.Fatalf("check error = %v", err)
	}

	// Schedule: irreducible cycle.
	const unsched = `
Bad: module (N: int): [R: array [I] of real];
type I = 0 .. N;
var B: array [0 .. N] of real;
define
    B[I] = if (I = 0) or (I = N) then 1.0 else (B[I-1] + B[I+1]) / 2.0;
    R[I] = B[I];
end Bad;`
	_, err = eng.Compile("bad.ps", unsched)
	if !errors.As(err, &pe) || pe.Phase != ps.PhaseSchedule {
		t.Fatalf("schedule error = %v", err)
	}
	if pe.Module != "Bad" {
		t.Errorf("schedule error module = %q, want Bad", pe.Module)
	}
	if !strings.Contains(err.Error(), "cannot schedule") {
		t.Errorf("schedule error text %q", err)
	}

	// Run: division by zero, attributed to module and equation.
	const divByZero = `
Bad: module (N: int): [Y: array [I] of int];
type I = 1 .. N;
define
    Y[I] = I div (N - N);
end Bad;`
	prog, err := eng.Compile("bad.ps", divByZero)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range [][]ps.RunOption{{ps.Sequential()}, {ps.Workers(4)}} {
		run, err := prog.Prepare("Bad", opt...)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = run.Run(context.Background(), []any{int64(64)})
		if !errors.As(err, &pe) || pe.Phase != ps.PhaseRun {
			t.Fatalf("run error = %v", err)
		}
		if pe.Module != "Bad" || pe.Equation != "eq.1" {
			t.Errorf("run error attribution: module %q equation %q", pe.Module, pe.Equation)
		}
		if !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("run error text %q", err)
		}
	}
}

// TestEngineClosed verifies post-Close behavior is a typed error, not a
// panic.
func TestEngineClosed(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	prog, err := eng.Compile("smooth.ps", repro.Source("smooth"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Smooth")
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close() // idempotent

	if _, err := eng.Compile("smooth.ps", repro.Source("smooth")); err == nil {
		t.Error("Compile on closed engine succeeded")
	}
	xs := ps.NewRealArray(ps.Axis{Lo: 0, Hi: 3})
	if _, _, err := run.Run(context.Background(), []any{xs, int64(2)}); err == nil {
		t.Error("Run on closed engine succeeded")
	}
}

// TestEngineDefaults verifies engine-level options reach prepared
// runners and per-Prepare options override them.
func TestEngineDefaults(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2), ps.EngineDefaults(ps.Sequential()))
	defer eng.Close()
	prog, err := eng.Compile("smooth.ps", repro.Source("smooth"))
	if err != nil {
		t.Fatal(err)
	}
	xs := ps.NewRealArray(ps.Axis{Lo: 0, Hi: 9})
	run, err := prog.Prepare("Smooth")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := run.Run(context.Background(), []any{xs, int64(8)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 1 || stats.DOALLChunks != 0 {
		t.Errorf("engine default Sequential not applied: %+v", stats)
	}
}

// TestRunnerDedicatedPool covers a Runner prepared with a worker count
// different from the engine's default: it runs on the engine's pool of
// that width (started by the first Prepare at it), and Prepare fails
// typed after Close.
func TestRunnerDedicatedPool(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	prog, err := eng.Compile("smooth.ps", repro.Source("smooth"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Smooth", ps.Workers(3))
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	xs := ps.NewRealArray(ps.Axis{Lo: 0, Hi: n + 1})
	for i := 0; i < 2; i++ {
		_, stats, err := run.Run(context.Background(), []any{xs, int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Workers != 3 {
			t.Errorf("Workers = %d, want 3", stats.Workers)
		}
	}
	eng.Close() // must also close the width-3 pool without panicking
	if _, err := prog.Prepare("Smooth", ps.Workers(5)); err == nil {
		t.Error("Prepare at a new width on a closed engine succeeded")
	}
}

// TestRunStatsWorkers pins RunStats.Workers to the width Prepare
// resolved, whatever the call path: Run, RunBatch, TraceRun and
// RunNamed (its argument-error path included) report it, and so do
// their failures on a closed engine. The engine's pool is one wider
// than GOMAXPROCS, so a width derived from the CPU count instead of
// the runner's pool shows up as a mismatch.
func TestRunStatsWorkers(t *testing.T) {
	w := runtime.GOMAXPROCS(0) + 1
	eng := ps.NewEngine(ps.EngineWorkers(w))
	defer eng.Close()
	prog, err := eng.Compile("smooth.ps", repro.Source("smooth"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	xs := ps.NewRealArray(ps.Axis{Lo: 0, Hi: n + 1})
	args := []any{xs, int64(n)}
	named := map[string]any{"Xs": xs, "N": int64(n)}
	ctx := context.Background()
	type runner struct {
		name string
		opts []ps.RunOption
		want int
		run  *ps.Runner
	}
	runners := []runner{
		{"EnginePool", nil, w, nil},
		{"DedicatedPool", []ps.RunOption{ps.Workers(w + 1)}, w + 1, nil},
		{"Sequential", []ps.RunOption{ps.Sequential()}, 1, nil},
	}
	for i := range runners {
		if runners[i].run, err = prog.Prepare("Smooth", runners[i].opts...); err != nil {
			t.Fatal(err)
		}
	}
	check := func(phase string, r runner, st *ps.RunStats, err error, wantErr bool) {
		t.Helper()
		if (err != nil) != wantErr {
			t.Errorf("%s %s: err = %v, want error %v", phase, r.name, err, wantErr)
		}
		if st == nil || st.Workers != r.want {
			t.Errorf("%s %s: RunStats = %+v, want Workers %d", phase, r.name, st, r.want)
		}
	}
	for _, open := range []bool{true, false} {
		phase := "open"
		if !open {
			eng.Close()
			phase = "closed"
		}
		for _, r := range runners {
			_, st, err := r.run.Run(ctx, args)
			check(phase+" Run", r, st, err, !open)
			_, st, err = r.run.RunBatch(ctx, []ps.Args{args, args})
			check(phase+" RunBatch", r, st, err, !open)
			_, st, _, err = r.run.TraceRun(ctx, args)
			check(phase+" TraceRun", r, st, err, !open)
			_, st, err = r.run.RunNamed(ctx, named)
			check(phase+" RunNamed", r, st, err, !open)
			_, st, err = r.run.RunNamed(ctx, map[string]any{"Bogus": 1})
			check(phase+" RunNamed bad args", r, st, err, true)
			if r.want > 1 && !strings.Contains(r.run.Explain(), fmt.Sprintf(": %d workers", r.want)) {
				t.Errorf("%s Explain %s: header does not report %d workers:\n%s", phase, r.name, r.want, r.run.Explain())
			}
		}
	}
}
