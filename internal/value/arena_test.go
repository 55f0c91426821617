package value_test

import (
	"sync"
	"testing"

	"repro/internal/types"
	"repro/internal/value"
)

func axes2(n int64) []value.Axis {
	return []value.Axis{{Lo: 1, Hi: n}, {Lo: 1, Hi: n}}
}

// reuseIn keeps allocating and releasing until the arena hands back a
// recycled backing. Under the race detector sync.Pool drops a fraction
// of Puts by design, so a single release/request round trip is not
// guaranteed to recycle; retrying makes the reuse assertions exact
// without weakening them.
func reuseIn(t *testing.T, ar *value.Arena, k types.Kind, axes []value.Axis, zero bool, prep func(*value.Array)) *value.Array {
	t.Helper()
	for i := 0; i < 64; i++ {
		a, reused := ar.NewArrayIn(k, axes, zero)
		if reused {
			return a
		}
		if prep != nil {
			prep(a)
		}
		ar.Release(a)
	}
	t.Fatal("arena never reused a released backing")
	return nil
}

// TestArenaRoundTrip pins the reuse contract: a released array comes
// back on the next same-class request — same backing store — and the
// zero flag decides whether the previous activation's values survive.
func TestArenaRoundTrip(t *testing.T) {
	var ar value.Arena
	a, reused := ar.NewArrayIn(types.RealKind, axes2(8), false)
	if reused {
		t.Fatal("fresh arena reported a reuse")
	}
	var backing *float64
	stamp := func(x *value.Array) {
		x.SetF([]int64{3, 4}, 42.5)
		backing = &x.F[0]
	}
	stamp(a)
	ar.Release(a)

	b := reuseIn(t, &ar, types.RealKind, axes2(8), false, stamp)
	if &b.F[0] != backing {
		t.Error("reuse did not return the released backing store")
	}
	if got := b.GetF([]int64{3, 4}); got != 42.5 {
		t.Errorf("unzeroed reuse lost the previous value: got %v", got)
	}
	ar.Release(b)

	c := reuseIn(t, &ar, types.RealKind, axes2(8), true, stamp)
	if got := c.GetF([]int64{3, 4}); got != 0 {
		t.Errorf("zero=true left garbage: got %v", got)
	}
}

// TestArenaReshape reuses one class across different shapes and ranks:
// the layout is rebuilt per request, so a released 2-D array can serve
// a later 1-D activation of the same size class.
func TestArenaReshape(t *testing.T) {
	var ar value.Arena
	a, _ := ar.NewArrayIn(types.RealKind, axes2(8), false) // 64 elements
	ar.Release(a)
	// 50 elements lands in the same 64-capacity class.
	b := reuseIn(t, &ar, types.RealKind, []value.Axis{{Lo: 0, Hi: 49}}, true, nil)
	if b.Rank() != 1 || b.Len() != 50 {
		t.Fatalf("reshaped array has rank %d len %d", b.Rank(), b.Len())
	}
	b.SetF([]int64{49}, 1) // the last logical element must be addressable
	if b.GetF([]int64{49}) != 1 {
		t.Error("reshaped array misaddresses")
	}
}

// TestArenaKinds pins the per-kind pools: int-backed kinds share one
// pool, bool and real have their own, and boxed kinds bypass the arena.
func TestArenaKinds(t *testing.T) {
	var ar value.Arena
	a, _ := ar.NewArrayIn(types.IntKind, axes2(4), false)
	ar.Release(a)
	if _, reused := ar.NewArrayIn(types.RealKind, axes2(4), false); reused {
		t.Error("real request reused an int backing")
	}
	charReused := false
	for i := 0; i < 64 && !charReused; i++ {
		ia, _ := ar.NewArrayIn(types.IntKind, axes2(4), false)
		ar.Release(ia)
		_, charReused = ar.NewArrayIn(types.CharKind, axes2(4), false)
	}
	if !charReused {
		t.Error("char request did not reuse the int-backed pool")
	}
	s, reused := ar.NewArrayIn(types.StringKind, axes2(4), false)
	if reused {
		t.Error("boxed array reported a reuse")
	}
	ar.Release(s) // must be a no-op, not a panic
	if _, reused := ar.NewArrayIn(types.StringKind, axes2(4), false); reused {
		t.Error("boxed array was recycled")
	}
}

// TestArenaRelease pins the safety edges: releasing nil, double
// release, arrays from NewArray (never pooled), and the fail-fast
// detach — a released array's axes are gone, so stale subscripting
// panics instead of silently aliasing a later activation.
func TestArenaRelease(t *testing.T) {
	var ar value.Arena
	ar.Release(nil)
	plain := value.NewArray(types.RealKind, axes2(4))
	ar.Release(plain) // no-op
	if _, reused := ar.NewArrayIn(types.RealKind, axes2(4), false); reused {
		t.Error("NewArray allocation leaked into the arena")
	}

	a, _ := ar.NewArrayIn(types.RealKind, axes2(4), false)
	ar.Release(a)
	ar.Release(a) // double release must not double-pool
	b, _ := ar.NewArrayIn(types.RealKind, axes2(4), false)
	c, reused := ar.NewArrayIn(types.RealKind, axes2(4), false)
	if reused && &b.F[0] == &c.F[0] {
		t.Error("double release handed the same backing out twice")
	}

	d, _ := ar.NewArrayIn(types.RealKind, axes2(4), false)
	ar.Release(d)
	// d now sits in the pool with its axes detached; touching it through
	// the stale reference must fail fast rather than read pooled storage.
	defer func() {
		if recover() == nil {
			t.Error("stale access to a released array did not panic")
		}
	}()
	d.GetF([]int64{1, 1})
}

// TestArenaLent pins the exact count of lent arrays: each hand-out adds
// one, fresh or recycled, and a release takes it back once, whatever
// sync.Pool drops. Boxed arrays are never counted.
func TestArenaLent(t *testing.T) {
	var ar value.Arena
	a, _ := ar.NewArrayIn(types.RealKind, axes2(4), false)
	b, _ := ar.NewArrayIn(types.BoolKind, axes2(4), false)
	s, _ := ar.NewArrayIn(types.StringKind, axes2(4), false)
	if got := ar.Lent(); got != 2 {
		t.Fatalf("Lent() = %d after two pooled hand-outs, want 2", got)
	}
	ar.Release(a)
	ar.Release(a)
	ar.Release(s)
	ar.Release(b)
	if got := ar.Lent(); got != 0 {
		t.Errorf("Lent() = %d after both were released, want 0", got)
	}
	c := reuseIn(t, &ar, types.RealKind, axes2(4), false, nil)
	if got := ar.Lent(); got != 1 {
		t.Errorf("Lent() = %d with one recycled array out, want 1", got)
	}
	ar.Release(c)
	// Concurrent activations share one arena.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a, _ := ar.NewArrayIn(types.IntKind, axes2(4), false)
				ar.Release(a)
			}
		}()
	}
	wg.Wait()
	if got := ar.Lent(); got != 0 {
		t.Errorf("Lent() = %d after every array came back, want 0", got)
	}
}

// TestArenaNil pins the nil-arena fallback used by strict and NoArena
// runs: plain allocation, never pooled.
func TestArenaNil(t *testing.T) {
	var ar *value.Arena
	a, reused := ar.NewArrayIn(types.RealKind, axes2(4), true)
	if reused || a == nil {
		t.Fatal("nil arena must fall back to plain allocation")
	}
	ar.Release(a) // no-op on nil receiver
}

// BenchmarkArenaActivation measures the repeated-activation allocation
// path with and without the arena; the arena variant must run
// allocation-free after warm-up.
func BenchmarkArenaActivation(b *testing.B) {
	axes := axes2(64)
	b.Run("Arena", func(b *testing.B) {
		var ar value.Arena
		warm, _ := ar.NewArrayIn(types.RealKind, axes, false)
		ar.Release(warm)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, _ := ar.NewArrayIn(types.RealKind, axes, false)
			ar.Release(a)
		}
	})
	b.Run("NoArena", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = value.NewArray(types.RealKind, axes)
		}
	})
}
