package ps_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/psrc"
	"repro/ps"
)

// reflectSeed builds the N×N seed for the Reflect pipeline workload.
func reflectSeed(n int64) *ps.Array {
	a := ps.NewRealArray(ps.Axis{Lo: 1, Hi: n}, ps.Axis{Lo: 1, Hi: n})
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			a.SetF([]int64{i, j}, float64((i*7+j*3)%11)/10)
		}
	}
	return a
}

// checkBreakdown asserts the per-worker accounting identity of one
// traced run: compute + stall + idle = workers × wall, exact whenever
// the idle clamp did not fire (idle > 0 means no clamp).
func checkBreakdown(t *testing.T, b *ps.TimingBreakdown) {
	t.Helper()
	if b == nil {
		t.Fatal("traced run returned no timing breakdown")
	}
	if b.ComputeNs <= 0 {
		t.Errorf("ComputeNs = %d, want > 0", b.ComputeNs)
	}
	budget := int64(b.Workers) * b.WallNs
	if b.BarrierIdleNs != 0 {
		t.Errorf("BarrierIdleNs = %d, want 0: no executor forks and joins per plane", b.BarrierIdleNs)
	}
	sum := b.ComputeNs + b.StallNs() + b.IdleNs
	if b.IdleNs > 0 && sum != budget {
		t.Errorf("accounting identity broken: compute+stall+idle = %d, workers×wall = %d", sum, budget)
	}
	if sum < budget {
		t.Errorf("attributed time %d under workers×wall %d with idle clamped", sum, budget)
	}
}

// chromeOf renders and re-parses the trace, returning the span names.
func chromeOf(t *testing.T, tr *ps.Trace) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range parsed.TraceEvents {
		names[ev.Name]++
	}
	return names
}

// realGuardGS is the Gauss-Seidel module with its boundary guard over
// reals: the span splitter refuses it by design, so every span certifies
// against both arms and its boundary points fall back to the checked
// kernel.
var realGuardGS = strings.NewReplacer(
	"(I = 0)", "(float(I) = 0.0)", "(J = 0)", "(float(J) = 0.0)",
	"(I = M+1)", "(float(I) = float(M+1))", "(J = M+1)", "(float(J) = float(M+1))",
).Replace(psrc.RelaxationGS)

// TestTraceRunWavefront traces the Gauss-Seidel wavefront workload on
// both sides of the dispatch rule: results must match the untraced run
// bitwise, the Chrome export must be valid JSON with an activation span
// and the side's span kind (tiles or planes, never both), the breakdown
// must reconcile with workers × wall and account every generic-kernel
// point as a specialization fallback, and the traced run must surface in
// Explain. The real-guarded variant does fall back, and its fallbacks
// must reach the trace whichever goroutine raised them.
func TestTraceRunWavefront(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("gs.ps", psrc.RelaxationGS)
	if err != nil {
		t.Fatal(err)
	}
	realProg, err := eng.Compile("gs_real_guard.ps", realGuardGS)
	if err != nil {
		t.Fatal(err)
	}
	const m, maxK = 20, 10
	args := []any{seedGrid(m), int64(m), int64(maxK)}
	for _, tc := range []struct {
		name  string
		opts  []ps.RunOption
		tiled bool
	}{
		// 4356 points over 59 planes: an average plane of 73 against the
		// default 32 × 2.
		{"tiles", nil, true},
		{"inline", []ps.RunOption{ps.Grain(1 << 20)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, err := prog.Prepare("Relaxation", tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := run.Run(context.Background(), args)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, tr, err := run.TraceRun(context.Background(), args)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Error("traced results diverge from the untraced run")
			}
			if tr == nil {
				t.Fatal("TraceRun returned no trace")
			}
			checkBreakdown(t, stats.Timing)
			if stats.WavefrontPlanes == 0 {
				t.Fatal("wavefront schedule did not engage")
			}
			if tr.Events() == 0 {
				t.Error("trace recorded no events")
			}
			names := chromeOf(t, tr)
			if names["activation"] == 0 {
				t.Error("trace has no activation span")
			}
			if tc.tiled {
				if stats.DoacrossTiles == 0 || stats.Timing.DoacrossNs <= 0 || stats.Timing.WavefrontNs != 0 {
					t.Errorf("tiled run: tiles=%d DoacrossNs=%d WavefrontNs=%d", stats.DoacrossTiles, stats.Timing.DoacrossNs, stats.Timing.WavefrontNs)
				}
				if names["tile"] == 0 || names["plane"] != 0 {
					t.Errorf("tiled run's spans: %v", names)
				}
			} else {
				if stats.DoacrossTiles != 0 || stats.Timing.WavefrontNs <= 0 || stats.Timing.DoacrossNs != 0 {
					t.Errorf("inline run: tiles=%d WavefrontNs=%d DoacrossNs=%d", stats.DoacrossTiles, stats.Timing.WavefrontNs, stats.Timing.DoacrossNs)
				}
				if names["plane"] == 0 || names["tile"] != 0 {
					t.Errorf("inline run's spans: %v", names)
				}
			}
			// All three kernels specialize and split their guards, so no
			// instance should leave the specialized count; any that does is
			// a fallback segment and must be on the trace.
			if generic := stats.EquationInstances - stats.SpecializedKernels; stats.Timing.SpecFallbacks != generic {
				t.Errorf("SpecFallbacks = %d, want EquationInstances − SpecializedKernels = %d − %d",
					stats.Timing.SpecFallbacks, stats.EquationInstances, stats.SpecializedKernels)
			}
			realRun, err := realProg.Prepare("Relaxation", tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			_, rstats, _, err := realRun.TraceRun(context.Background(), args)
			if err != nil {
				t.Fatal(err)
			}
			if (rstats.DoacrossTiles > 0) != tc.tiled {
				t.Errorf("real-guarded run: tiles=%d, want tiled = %v", rstats.DoacrossTiles, tc.tiled)
			}
			if generic := rstats.EquationInstances - rstats.SpecializedKernels; generic == 0 || rstats.Timing.SpecFallbacks != generic {
				t.Errorf("real-guarded run: SpecFallbacks = %d, want EquationInstances − SpecializedKernels = %d − %d > 0",
					rstats.Timing.SpecFallbacks, rstats.EquationInstances, rstats.SpecializedKernels)
			}
			if exp := run.Explain(); !strings.Contains(exp, "timing (last traced run)") {
				t.Error("Explain does not surface the traced run's timing")
			}
		})
	}
}

// TestTraceRunPipeline traces the Reflect pipeline workload under the
// pipeline-first schedule and checks stage spans and stall attribution
// land in the breakdown.
func TestTraceRunPipeline(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("reflect.ps", psrc.Reflect)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Reflect", ps.WithSchedule(ps.SchedulePipeline))
	if err != nil {
		t.Fatal(err)
	}
	const n = 17
	args := []any{reflectSeed(n), int64(n)}

	ref, _, err := run.Run(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, tr, err := run.TraceRun(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Error("traced results diverge from the untraced run")
	}
	if stats.PipelineStages == 0 {
		t.Fatal("pipeline schedule did not engage")
	}
	checkBreakdown(t, stats.Timing)
	if stats.Timing.PipelineNs <= 0 {
		t.Errorf("PipelineNs = %d, want > 0 for a pipeline workload", stats.Timing.PipelineNs)
	}
	if stats.StageStalls > 0 && stats.Timing.PipelineStallNs <= 0 {
		t.Errorf("StageStalls = %d but PipelineStallNs = %d", stats.StageStalls, stats.Timing.PipelineStallNs)
	}
	if names := chromeOf(t, tr); names["stage"] == 0 {
		t.Errorf("trace has no stage spans: %v", names)
	}
}

// TestTraceRunSequential traces a sequential activation: the whole
// nest runs on the activation goroutine, so compute lands in the
// sequential span kinds — the K×I×J recurrence nest as one "do" span —
// and the trace still reconciles. Every kernel is reached by a span, so
// each generic instance is a recorded specialization fallback.
func TestTraceRunSequential(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("gs.ps", psrc.RelaxationGS)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Relaxation", ps.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	// Wide rows and few of them: the nest dwarfs the activation's
	// prologue.
	const m, maxK = 198, 10
	args := []any{seedGrid(m), int64(m), int64(maxK)}
	// The compute share is a timing: a GC pause or a preemption outside
	// the spans can sink one run, so the best of three must clear it.
	best := 0.0
	for attempt := 0; attempt < 3 && best < 0.9; attempt++ {
		_, stats, tr, err := run.TraceRun(context.Background(), args)
		if err != nil {
			t.Fatal(err)
		}
		b := stats.Timing
		if b == nil {
			t.Fatal("no timing breakdown")
		}
		if b.Workers != 1 {
			t.Errorf("Workers = %d, want 1 for sequential", b.Workers)
		}
		checkBreakdown(t, b)
		if tr.Dropped() != 0 {
			t.Fatalf("trace dropped %d events; the counters below would undercount", tr.Dropped())
		}
		if generic := stats.EquationInstances - stats.SpecializedKernels; b.SpecFallbacks != generic {
			t.Errorf("SpecFallbacks = %d, want EquationInstances − SpecializedKernels = %d − %d",
				b.SpecFallbacks, stats.EquationInstances, stats.SpecializedKernels)
		}
		names := chromeOf(t, tr)
		if names["activation"] == 0 {
			t.Error("sequential trace has no activation span")
		}
		if names["do"] != 1 || b.DoNs <= 0 {
			t.Errorf("trace has %d do spans (DoNs = %d), want 1 for the one recurrence nest: %v", names["do"], b.DoNs, names)
		}
		if r := float64(b.ComputeNs) / float64(b.WallNs); r > best {
			best = r
		}
	}
	if best < 0.9 {
		t.Errorf("ComputeNs / wall = %.3f at best, want ≥ 0.9: the recurrence nest is untraced", best)
	}
}

// TestPlainRunHasNoTiming pins the fast path: an untraced Run carries
// no breakdown and pays no recording.
func TestPlainRunHasNoTiming(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("gs.ps", psrc.RelaxationGS)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Relaxation")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := run.Run(context.Background(), []any{seedGrid(8), int64(8), int64(4)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Timing != nil {
		t.Error("plain Run populated Timing; recording must be opt-in")
	}
	if exp := run.Explain(); strings.Contains(exp, "timing (last traced run)") {
		t.Error("Explain shows a timing line before any traced run")
	}
}
