package par_test

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/par"
)

// TestPoolCoverage verifies the persistent pool across many reuses —
// the wavefront dispatch pattern.
func TestPoolCoverage(t *testing.T) {
	p := par.NewPool(4)
	defer p.Close()
	for round := 0; round < 200; round++ {
		n := int64(round%17 + 1)
		counts := make([]atomic.Int32, n)
		p.For(0, n-1, func(i int64) { counts[i].Add(1) })
		for i := int64(0); i < n; i++ {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("round %d: index %d visited %d times", round, i, c)
			}
		}
	}
}

// TestPoolSingleWorker verifies the degenerate pool runs inline.
func TestPoolSingleWorker(t *testing.T) {
	p := par.NewPool(1)
	defer p.Close()
	sum := int64(0) // no atomics needed: single worker runs inline
	p.For(1, 100, func(i int64) { sum += i })
	if sum != 5050 {
		t.Errorf("sum = %d, want 5050", sum)
	}
}

// TestPoolGrain verifies a per-loop grain does not lose iterations and
// an empty range (lo > hi) is a no-op.
func TestPoolGrain(t *testing.T) {
	p := par.NewPool(3)
	defer p.Close()
	var count atomic.Int64
	body := func(start, end int64) { count.Add(end - start + 1) }
	if !p.ForRangesOpts(nil, 0, 999, 64, body) || count.Load() != 1000 {
		t.Errorf("visited %d, want 1000", count.Load())
	}
	if !p.ForRangesOpts(nil, 5, 4, 64, body) || count.Load() != 1000 {
		t.Error("body called on empty range")
	}
}

// TestPoolCloseIdempotent verifies Close can be called twice.
func TestPoolCloseIdempotent(t *testing.T) {
	p := par.NewPool(2)
	p.Close()
	p.Close()
}

// TestForProperty is a property test: arbitrary ranges sum correctly
// under parallel execution.
func TestForProperty(t *testing.T) {
	p := par.NewPool(0)
	defer p.Close()
	f := func(loRaw int16, span uint16) bool {
		lo := int64(loRaw)
		hi := lo + int64(span%2000)
		var sum atomic.Int64
		p.For(lo, hi, func(i int64) { sum.Add(i) })
		n := hi - lo + 1
		want := n * (lo + hi) / 2
		return sum.Load() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDefaultWorkers sanity-checks the default.
func TestDefaultWorkers(t *testing.T) {
	if par.DefaultWorkers() < 1 {
		t.Error("DefaultWorkers < 1")
	}
}
