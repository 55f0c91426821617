package interp_test

import (
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/psrc"
	"repro/internal/value"
)

// runCoupled executes the CoupledGrid module under opts and returns newA.
func runCoupled(t *testing.T, ip *interp.Program, m, maxK int64, opts interp.Options) *value.Array {
	t.Helper()
	res, err := ip.Run("CoupledGrid", []any{grid(m), m, maxK}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res[0].(*value.Array)
}

// TestMultiKernelWavefrontParity runs the two-equation coupled
// recurrence — lowered to a single wavefront step with two kernels per
// plane point — through the inline sweep (the Barrier*/Auto rows: a
// grain no plane fills, and the default rule on narrow planes) and the
// tile executor (the Doacross rows: small grains) at several widths.
// All runs must be bitwise identical to the sequential reference and
// must execute exactly the same number of equation instances (the
// wavefront sweep visits exactly the original points, each running the
// whole group).
func TestMultiKernelWavefrontParity(t *testing.T) {
	ip := compileSrc(t, psrc.CoupledGrid)
	if !ip.Plan("CoupledGrid", plan.Options{Hyperplane: true}).HasWavefront() {
		t.Fatal("CoupledGrid did not lower to a wavefront plan")
	}
	// The I×J sweep inside DO K is 33² points over 65 planes: an average
	// plane of 16, exactly what grain 4 needs at four workers.
	const m, maxK = 31, 3
	var seqStats interp.Stats
	want := runCoupled(t, ip, m, maxK, interp.Options{Sequential: true, Stats: &seqStats})
	for _, tc := range []struct {
		name  string
		opts  interp.Options
		tiles bool
	}{
		{"BarrierPar2", interp.Options{Workers: 2, Grain: 1 << 20}, false},
		{"BarrierPar4", interp.Options{Workers: 4, Grain: 1 << 20}, false},
		{"DoacrossPar2", interp.Options{Workers: 2, Grain: 1}, true},
		{"DoacrossPar4Grain4", interp.Options{Workers: 4, Grain: 4}, true},
		{"AutoPar4", interp.Options{Workers: 4}, false},
		{"StrictDoacrossPar2", interp.Options{Workers: 2, Strict: true, Grain: 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats interp.Stats
			tc.opts.Stats = &stats
			got := runCoupled(t, ip, m, maxK, tc.opts)
			if !reflect.DeepEqual(got.F, want.F) {
				t.Errorf("%s diverges from sequential reference", tc.name)
			}
			if got, want := stats.EqInstances.Load(), seqStats.EqInstances.Load(); got != want {
				t.Errorf("%s executed %d equation instances, sequential executed %d", tc.name, got, want)
			}
			if stats.Planes.Load() == 0 {
				t.Errorf("%s swept no hyperplanes", tc.name)
			}
			if tiles := stats.Doacross.Tiles.Load(); (tiles > 0) != tc.tiles {
				t.Errorf("%s executed %d tiles, want tiled = %v", tc.name, tiles, tc.tiles)
			}
		})
	}
}
