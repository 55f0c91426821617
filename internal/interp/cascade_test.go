package interp_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/value"
)

// The tests in this file keep the Pipeline names of the decoupled-
// pipeline backend Reflect and Mutual used to exercise; that backend is
// gone, and the names stay as stable test IDs for the cascade's other
// ends: Reflect's wavefront-ineligible nest staying sequential, and
// Mutual's fused nest wavefronting.

// seed builds an n×n input over [1,n]².
func seed(n int64) *value.Array {
	a := value.NewArray(types.RealKind, []value.Axis{{Lo: 1, Hi: n}, {Lo: 1, Hi: n}})
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			a.SetF([]int64{i, j}, float64((i*7+j*3)%11)/10)
		}
	}
	return a
}

// TestPipelineParity pins the cascade's sequential end on Reflect: the
// reflected read X[I-1, N+1-J] has no constant offset, so the wavefront
// analysis refuses the recurrence nest and it lowers to the same DO nest
// as with the cascade off. Every worker count and toggle must match the
// sequential reference bitwise and execute the same instances; wider
// runs dispatch only the copy-outs, fused into one DOALL.
func TestPipelineParity(t *testing.T) {
	ip := compileSrc(t, repro.Source("reflect"))
	pl := ip.Plan("Reflect", plan.Options{Hyperplane: true})
	const want = "DO I (DO J (eq.2; eq.1)); DOALL I×J (eq.3; eq.4)"
	if got := pl.Compact(); got != want || pl.HasWavefront() {
		t.Fatalf("Reflect auto plan = %q, want %q", got, want)
	}
	d := pl.Cascade[0]
	if d.Choice != "sequential" || len(d.Rejections) != 2 || d.Rejections[1].Backend != "wavefront" ||
		!strings.Contains(d.Rejections[1].Reason, "X[I - 1,N + 1 - J] is not a constant-offset reference to X") {
		t.Fatalf("Reflect nest decision = %+v, want sequential after the wavefront's constant-offset rejection", d)
	}
	const n = 17
	args := []any{seed(n), int64(n)}
	var seqStats interp.Stats
	ref, err := ip.Run("Reflect", args, interp.Options{Sequential: true, Stats: &seqStats})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		opts   interp.Options
		chunks bool // expects the DOALL copy-outs on the pool
	}{
		{"Par2", interp.Options{Pool: pool(t, 2)}, true},
		{"Par4", interp.Options{Pool: pool(t, 4)}, true},
		{"Par8", interp.Options{Pool: pool(t, 8)}, true},
		{"StrictPar2", interp.Options{Pool: pool(t, 2), Strict: true}, true},
		{"Par1", interp.Options{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats interp.Stats
			tc.opts.Stats = &stats
			got, err := ip.Run("Reflect", args, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if !reflect.DeepEqual(got[i].(*value.Array).F, ref[i].(*value.Array).F) {
					t.Errorf("result %d diverges from sequential reference", i)
				}
			}
			if got, want := stats.EqInstances.Load(), seqStats.EqInstances.Load(); got != want {
				t.Errorf("executed %d equation instances, sequential executed %d", got, want)
			}
			if dispatched := stats.Chunks.Load() > 0; dispatched != tc.chunks {
				t.Errorf("DOALL chunks = %d, want dispatched = %v", stats.Chunks.Load(), tc.chunks)
			}
		})
	}
}

// TestPipelineFirstCascade pins Mutual's plan: the scheduler splits its
// component into two sibling DO J nests, the cascade's fusion step
// rejoins them because the union of dependence vectors admits π = (1,1),
// and the cascade wavefronts the merged nest. Every row matches the sequential reference.
func TestPipelineFirstCascade(t *testing.T) {
	ip := compileSrc(t, repro.Source("mutual"))
	auto := ip.Plan("Mutual", plan.Options{Hyperplane: true})
	if !auto.HasWavefront() || !auto.Cascade[0].Merged {
		t.Fatalf("auto cascade did not wavefront the fused nest:\n%s", auto)
	}
	// Mutual's arrays span [0, N+1]; build a matching seed.
	const n = 11
	s := value.NewArray(types.RealKind, []value.Axis{{Lo: 0, Hi: n}, {Lo: 0, Hi: n}})
	for i := int64(0); i <= n; i++ {
		for j := int64(0); j <= n; j++ {
			s.SetF([]int64{i, j}, float64((i*5+j*2)%13)/10)
		}
	}
	args := []any{s, int64(n - 1)}
	ref, err := ip.Run("Mutual", args, interp.Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts interp.Options
	}{
		{"AutoPar4", interp.Options{Pool: pool(t, 4)}},
		{"PipelinePar2", interp.Options{Pool: pool(t, 2)}},
		{"PipelinePar4", interp.Options{Pool: pool(t, 4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats interp.Stats
			tc.opts.Stats = &stats
			got, err := ip.Run("Mutual", args, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if !reflect.DeepEqual(got[i].(*value.Array).F, ref[i].(*value.Array).F) {
					t.Errorf("result %d diverges from sequential reference", i)
				}
			}
			if stats.Planes.Load() == 0 {
				t.Error("the wavefront step swept no planes")
			}
		})
	}
}

// TestPipelineCancellation checks cancellation of Reflect: a context
// already done is refused before the run starts, and one that fires
// inside the producer's sequential DO nest stops it there — the error
// names one of its two equations — well before the nest would finish.
func TestPipelineCancellation(t *testing.T) {
	ip := compileSrc(t, repro.Source("reflect"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ip.RunCtx(ctx, "Reflect", []any{seed(64), int64(64)}, interp.Options{Pool: pool(t, 4)})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// At N = 1024 the producer nest is a million two-equation points. A
	// deadline can expire before the nest starts (while the activation
	// allocates its arrays), and a cancellation seen at the nest's first
	// loop head names no equation; on a fast host it can expire after the
	// nest, in the output copies. Stats.EqInstances tells where an attempt
	// landed — 0 is before the nest, 2N² or more after it — and the
	// deadline is bisected until one lands inside.
	const n = 1024
	args := []any{seed(n), int64(n)}
	var lo, hi time.Duration // deadlines known to land before / after the nest; 0 is unknown
	deadline := 20 * time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		var stats interp.Stats
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		_, err := ip.RunCtx(ctx, "Reflect", args, interp.Options{Pool: pool(t, 2), Stats: &stats})
		cancel()
		eqs := stats.EqInstances.Load()
		var re *interp.RunError
		if eqs < 2*n*n && (!errors.As(err, &re) || !errors.Is(err, context.DeadlineExceeded)) {
			t.Fatalf("err = %v after %d instances, want a RunError wrapping context.DeadlineExceeded", err, eqs)
		}
		switch {
		case eqs == 0:
			lo = deadline
		case eqs >= 2*n*n:
			hi = deadline
		default:
			if re.Equation != "eq.1" && re.Equation != "eq.2" {
				t.Errorf("cancelled in %q after %d of %d instances, want inside the producer nest (eq.1 or eq.2)", re.Equation, eqs, 2*n*n)
			}
			return
		}
		missed := deadline
		if hi == 0 {
			deadline = 2 * lo
		} else {
			deadline = (lo + hi) / 2
		}
		t.Logf("deadline %v missed the producer nest (%d instances); retrying at %v", missed, eqs, deadline)
	}
	t.Fatal("no deadline landed inside the producer nest")
}
