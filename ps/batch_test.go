package ps_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/psrc"
	"repro/ps"
)

// batchWorkload is one corpus module with a generator of distinct
// per-element arguments, so batched elements cannot accidentally agree
// by all computing the same thing.
type batchWorkload struct {
	name   string
	src    string
	module string
	args   func(i int) ps.Args
}

func batchGrid(m int64, salt int) *ps.Array {
	a := ps.NewRealArray(ps.Axis{Lo: 0, Hi: m + 1}, ps.Axis{Lo: 0, Hi: m + 1})
	for i := int64(1); i <= m; i++ {
		for j := int64(1); j <= m; j++ {
			a.SetF([]int64{i, j}, float64((i*13+j*7+int64(salt)*3)%11)/11.0)
		}
	}
	return a
}

func batchWorkloads() []batchWorkload {
	return []batchWorkload{
		{"smooth", psrc.Smooth, "Smooth", func(i int) ps.Args {
			const n = 24
			xs := ps.NewRealArray(ps.Axis{Lo: 0, Hi: n + 1})
			for k := int64(0); k <= n+1; k++ {
				xs.SetF([]int64{k}, float64((int(k)*5+i*3)%13)/13.0)
			}
			return ps.Args{xs, int64(n)}
		}},
		{"gauss_seidel", psrc.RelaxationGS, "Relaxation", func(i int) ps.Args {
			return ps.Args{batchGrid(10, i), int64(10), int64(3 + i%2)}
		}},
		{"coupled", psrc.CoupledGrid, "CoupledGrid", func(i int) ps.Args {
			return ps.Args{batchGrid(12, i), int64(12), int64(2 + i%3)}
		}},
		{"pipeline", psrc.Pipeline, "Pipeline", func(i int) ps.Args {
			const n = 16
			xs := ps.NewRealArray(ps.Axis{Lo: 0, Hi: n + 1})
			for k := int64(0); k <= n+1; k++ {
				xs.SetF([]int64{k}, float64((int(k)*7+i)%9))
			}
			return ps.Args{xs, int64(n)}
		}},
	}
}

// valuesEqualBitwise compares one result list bitwise (NaN == NaN).
func valuesEqualBitwise(t *testing.T, label string, got, want []any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		switch w := want[i].(type) {
		case *ps.Array:
			g, ok := got[i].(*ps.Array)
			if !ok || !g.Equal(w) {
				t.Errorf("%s: result %d differs", label, i)
			}
		case float64:
			g, ok := got[i].(float64)
			if !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s: result %d = %v, want %v", label, i, got[i], w)
			}
		default:
			if got[i] != want[i] {
				t.Errorf("%s: result %d = %v, want %v", label, i, got[i], w)
			}
		}
	}
}

// TestRunBatchParity pins the batch-DOALL contract: RunBatch over N
// distinct activations returns, per element, exactly what N sequential
// Runner.Run calls return — bitwise, whatever the grain. Batch elements
// run inside the batch DOALL, so their wavefront nests sweep inline even
// at Grain(1), which would tile the same nests in a plain Run (the
// "doacross" row; "barrier" is a grain no plane fills — both names
// predate the single executor). The batch axis appears in no subscript,
// so the §5 fusion test admits it trivially; this test is the empirical
// half of that argument. Run with -race: batch elements execute
// concurrently on the pool.
func TestRunBatchParity(t *testing.T) {
	const batchN = 7
	schedules := []struct {
		name string
		opts []ps.RunOption
	}{
		{"barrier", []ps.RunOption{ps.Workers(4), ps.Grain(1 << 20)}},
		{"doacross", []ps.RunOption{ps.Workers(4), ps.Grain(1)}},
		{"auto", []ps.RunOption{ps.Workers(4)}},
		{"sequential", []ps.RunOption{ps.Sequential()}},
	}
	for _, wl := range batchWorkloads() {
		prog, err := ps.CompileProgram(wl.name+".ps", wl.src)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		// Reference: element-by-element sequential runs.
		refRun, err := prog.Prepare(wl.module, ps.Sequential())
		if err != nil {
			t.Fatal(err)
		}
		refs := make([][]any, batchN)
		for i := range refs {
			out, _, err := refRun.Run(context.Background(), wl.args(i))
			if err != nil {
				t.Fatalf("%s ref %d: %v", wl.name, i, err)
			}
			refs[i] = out
		}
		for _, sc := range schedules {
			t.Run(wl.name+"/"+sc.name, func(t *testing.T) {
				run, err := prog.Prepare(wl.module, sc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				batch := make([]ps.Args, batchN)
				for i := range batch {
					batch[i] = wl.args(i)
				}
				out, stats, err := run.RunBatch(context.Background(), batch)
				if err != nil {
					t.Fatal(err)
				}
				if len(out) != batchN {
					t.Fatalf("%d batch results, want %d", len(out), batchN)
				}
				if stats == nil || stats.EquationInstances == 0 {
					t.Error("batch run reported no equation instances")
				}
				if stats != nil && stats.DoacrossTiles != 0 {
					t.Errorf("a batch element ran %d tiles: nests inside the batch DOALL must sweep inline", stats.DoacrossTiles)
				}
				for i, br := range out {
					if br.Err != nil {
						t.Fatalf("element %d: %v", i, br.Err)
					}
					valuesEqualBitwise(t, fmt.Sprintf("element %d", i), br.Values, refs[i])
				}
			})
		}
	}
}

// TestRunBatchEdgeCases pins the degenerate shapes: empty batch,
// singleton batch, per-element error isolation, and cancellation.
func TestRunBatchEdgeCases(t *testing.T) {
	prog, err := ps.CompileProgram("smooth.ps", psrc.Smooth)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Smooth", ps.Workers(2))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("empty", func(t *testing.T) {
		out, _, err := run.RunBatch(context.Background(), nil)
		if err != nil || len(out) != 0 {
			t.Fatalf("empty batch: out=%v err=%v", out, err)
		}
	})

	goodArgs := batchWorkloads()[0].args
	t.Run("singleton", func(t *testing.T) {
		out, _, err := run.RunBatch(context.Background(), []ps.Args{goodArgs(0)})
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := run.Run(context.Background(), goodArgs(0))
		if err != nil {
			t.Fatal(err)
		}
		if out[0].Err != nil {
			t.Fatal(out[0].Err)
		}
		valuesEqualBitwise(t, "singleton", out[0].Values, ref)
	})

	t.Run("error isolation", func(t *testing.T) {
		// Element 1 passes an array whose bounds contradict N; its
		// failure must not disturb elements 0 and 2.
		bad := ps.Args{ps.NewRealArray(ps.Axis{Lo: 0, Hi: 3}), int64(24)}
		out, _, err := run.RunBatch(context.Background(), []ps.Args{goodArgs(0), bad, goodArgs(2)})
		if err != nil {
			t.Fatal(err)
		}
		if out[1].Err == nil {
			t.Error("mismatched array bounds accepted")
		}
		for _, i := range []int{0, 2} {
			if out[i].Err != nil {
				t.Errorf("element %d failed alongside bad element: %v", i, out[i].Err)
			}
			ref, _, _ := run.Run(context.Background(), goodArgs(i))
			valuesEqualBitwise(t, fmt.Sprintf("element %d", i), out[i].Values, ref)
		}
	})

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _, err := run.RunBatch(ctx, []ps.Args{goodArgs(0), goodArgs(1)})
		if err == nil {
			t.Fatal("pre-cancelled context accepted")
		}
		if !strings.Contains(err.Error(), "cancel") {
			t.Errorf("unexpected cancellation error: %v", err)
		}
	})
}
