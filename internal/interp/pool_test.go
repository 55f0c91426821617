package interp_test

import (
	"sync"
	"testing"

	"repro"
	"repro/internal/interp"
	"repro/internal/sched"
	"repro/internal/types"
	"repro/internal/value"
)

// pools holds the pools pool has started, one per test and width.
var pools sync.Map // poolKey → *sched.Pool

type poolKey struct {
	t       testing.TB
	workers int
}

// pool returns the test's worker pool of the given width, started on
// first use and closed when the test ends. A parallel run takes its
// width from the pool it is handed, as every run ps.Prepare binds does;
// a run handed none runs inline.
func pool(t testing.TB, workers int) *sched.Pool {
	k := poolKey{t, workers}
	if p, ok := pools.Load(k); ok {
		return p.(*sched.Pool)
	}
	p := sched.NewPool(workers)
	if q, loaded := pools.LoadOrStore(k, p); loaded {
		p.Close()
		return q.(*sched.Pool)
	}
	t.Cleanup(func() {
		pools.Delete(k)
		p.Close()
	})
	return p
}

// TestNilPoolRunsInline pins that a run is parallel only when handed a
// pool: with Workers 4, grain 1 and no Pool, neither a DOALL nor a
// wavefront tiles (0 chunks, 0 tiles), and the results equal
// Sequential() bitwise. The same runs handed a pool of 4 do tile, so the
// zeros are the missing pool's.
func TestNilPoolRunsInline(t *testing.T) {
	const n = 64
	a := value.NewArray(types.RealKind, []value.Axis{{Lo: 1, Hi: n}, {Lo: 1, Hi: n}})
	for i := range a.F {
		a.F[i] = float64(i%13) / 13
	}
	for _, tc := range []struct {
		name, src, module string
		args              []any
	}{
		{"DoAll", scale2D, "Scale", []any{a, int64(n)}},
		{"Wavefront", repro.Source("gauss_seidel"), "Relaxation", []any{grid(24), int64(24), int64(6)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ip := compileSrc(t, tc.src)
			want, err := ip.Run(tc.module, tc.args, interp.Options{Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, withPool := range []bool{false, true} {
				var stats interp.Stats
				opts := interp.Options{Workers: 4, Grain: 1, Stats: &stats}
				if withPool {
					opts.Pool = pool(t, 4)
				}
				got, err := ip.Run(tc.module, tc.args, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Errorf("pool %v: results diverge bitwise from Sequential()", withPool)
				}
				tiles := stats.Chunks.Load() + stats.Doacross.Tiles.Load()
				if (tiles > 0) != withPool {
					t.Errorf("pool %v: %d chunks and %d tiles", withPool, stats.Chunks.Load(), stats.Doacross.Tiles.Load())
				}
			}
		})
	}
}
