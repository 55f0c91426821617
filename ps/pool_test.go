package ps_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/ps"
)

// TestPreparePoolPerWidth prepares 100 runners at a width other than
// the engine's default: they share one pool of that width (its two
// helpers are the only goroutines Prepare adds), and Close stops it with
// the default pool, back to the goroutine count before the engine.
func TestPreparePoolPerWidth(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := ps.NewEngine(ps.EngineWorkers(2))
	prog, err := eng.Compile("smooth.ps", repro.Source("smooth"))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		run, err := prog.Prepare("Smooth", ps.Workers(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, stats, err := run.Run(context.Background(), []any{ps.NewRealArray(ps.Axis{Lo: 0, Hi: 9}), int64(8)}); err != nil || stats.Workers != 3 {
			t.Fatalf("run %d: workers %d, err %v; want 3 workers", i, stats.Workers, err)
		}
	}
	if added := runtime.NumGoroutine() - before; added > 2 {
		t.Errorf("100 Prepare(Workers(3)) added %d goroutines, want at most 2 (one pool of width 3)", added)
	}
	eng.Close()
	if got := settleGoroutines(base); got > base {
		t.Errorf("%d goroutines after Close, %d before the engine", got, base)
	}
}

// TestEngineCloseMidTiledRun closes the engine 20 ms into a tiled
// Relaxation run of about 100 ms. The run must not panic: it finishes
// on its calling goroutine with the result of Sequential(), and runs
// started after Close fail with the engine-closed error.
func TestEngineCloseMidTiledRun(t *testing.T) {
	const m, maxK = 64, 500
	eng := ps.NewEngine(ps.EngineWorkers(2))
	prog, err := eng.Compile("relax.ps", repro.Source("relaxation"))
	if err != nil {
		t.Fatal(err)
	}
	args := []any{relaxInput(m), int64(m), int64(maxK)}
	seq, err := prog.Prepare("Relaxation", ps.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := seq.Run(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Relaxation")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		out      []any
		stats    *ps.RunStats
		err      error
		panicked any
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{panicked: r}
			}
		}()
		out, stats, err := run.Run(context.Background(), args)
		done <- outcome{out: out, stats: stats, err: err}
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("the run ended within 20 ms; it must still be in flight at Close")
	default:
	}
	eng.Close()
	o := <-done
	switch {
	case o.panicked != nil:
		t.Fatalf("run panicked after Close: %v", o.panicked)
	case o.err != nil:
		t.Fatalf("run in flight at Close failed: %v", o.err)
	case !o.out[0].(*ps.Array).Equal(want[0].(*ps.Array)):
		t.Error("run in flight at Close diverges from Sequential()")
	case o.stats.DOALLChunks == 0:
		t.Error("the run tiled no DOALL")
	}
	if _, _, err := run.Run(context.Background(), args); err == nil {
		t.Error("a run started after Close succeeded")
	}
}
