package value

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// arenaClasses bounds the size-class table: class c holds backings of
// capacity 1<<c elements, so 40 classes cover every array the 64-bit
// address space can hold with room to spare.
const arenaClasses = 40

// arenaMaxClass caps which classes are actually pooled. Arrays at or
// beyond 1<<24 elements (128 MiB of float64) are allocated at exact
// size and never recycled: rounding such an array up to its class
// capacity can nearly double a multi-hundred-megabyte commitment, and
// the first-touch page-fault cost of a backing that large dwarfs the
// per-activation allocation savings pooling exists to avoid.
const arenaMaxClass = 24

// Arena recycles an activation's local arrays across runs. Repeated runs
// of the same module allocate identically-shaped recurrence arrays every
// time; without pooling each activation pays five allocations per array
// (descriptor, layout slices, backing) plus zeroing. It lends locals
// only: an array lent out comes back when its activation ends, so a
// result, which outlives the activation, is allocated with NewArray at
// exact size and belongs to the caller. The arena keeps
// per-kind, size-classed free lists of whole *Array objects (sync.Pool,
// so idle memory is still reclaimable by the GC) and hands back a
// previous activation's array — descriptor, layout slices and backing
// store together — when one fits. Pooling the object rather than the
// bare backing also avoids the interface boxing a slice-valued
// sync.Pool would pay on every Put.
//
// Correctness contract: a reused backing still holds the previous run's
// values, so the caller must pass zero=true for any array whose garbage
// could be observed — the interpreter derives that from its
// write-coverage analysis and always zeroes when it cannot prove every
// element is written before being read. Strict-mode arrays bypass the
// arena entirely (definedness tracking wants virgin storage), as do
// boxed (string/record) arrays.
//
// An Arena is safe for concurrent use.
type Arena struct {
	f [arenaClasses]sync.Pool // real arrays, backing capacity 1<<c
	i [arenaClasses]sync.Pool // int-backed arrays (int, subrange, char, enum)
	b [arenaClasses]sync.Pool // bool arrays
	// lent counts the pooled arrays handed out and not yet released;
	// unlike the pools it is exact, whatever sync.Pool drops.
	lent atomic.Int64
}

// Lent returns the number of arrays NewArrayIn handed out that have not
// been released. Once every activation has ended, it is zero.
func (ar *Arena) Lent() int64 { return ar.lent.Load() }

// sizeClass returns the smallest class whose capacity 1<<c holds n
// elements.
func sizeClass(n int64) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(uint64(n - 1))
}

// layout (re)builds a's strides and physical dimensions for axes,
// reusing the layout slices when the rank matches, and returns the
// physical element count.
func (a *Array) layout(axes []Axis) int64 {
	a.Axes = axes
	if len(a.Strides) != len(axes) {
		a.Strides = make([]int64, len(axes))
		a.PhysDims = make([]int64, len(axes))
	}
	size := int64(1)
	for i := len(axes) - 1; i >= 0; i-- {
		a.Strides[i] = size
		a.PhysDims[i] = axes[i].Phys()
		size *= a.PhysDims[i]
	}
	if size < 0 {
		panic("value: negative array size")
	}
	return size
}

// NewArrayIn allocates an array like NewArray, drawing the whole array
// object from the arena when a recycled one fits. zero forces the
// recycled backing to be cleared; fresh allocations are always zero.
// reused reports whether a pooled array was actually recycled (the
// arena's hit counter).
func (ar *Arena) NewArrayIn(kind types.Kind, axes []Axis, zero bool) (a *Array, reused bool) {
	if ar == nil {
		return NewArray(kind, axes), false
	}
	var pool *[arenaClasses]sync.Pool
	switch kind {
	case types.RealKind:
		pool = &ar.f
	case types.BoolKind:
		pool = &ar.b
	case types.IntKind, types.SubrangeKind, types.CharKind, types.EnumKind:
		pool = &ar.i
	default:
		// Boxed backings hold pointers the GC must trace; recycling them
		// is not worth the retention risk.
		return NewArray(kind, axes), false
	}
	size := int64(1)
	for i := range axes {
		size *= axes[i].Phys()
	}
	if size < 0 {
		panic("value: negative array size")
	}
	class := sizeClass(size)
	if class >= arenaMaxClass {
		return NewArray(kind, axes), false
	}
	if v := pool[class].Get(); v != nil {
		a = v.(*Array)
		a.Kind = kind
		a.layout(axes)
		switch {
		case a.F != nil:
			a.F = a.F[:size]
			if zero {
				clear(a.F)
			}
		case a.I != nil:
			a.I = a.I[:size]
			if zero {
				clear(a.I)
			}
		default:
			a.B = a.B[:size]
			if zero {
				clear(a.B)
			}
		}
		a.pooled = true
		ar.lent.Add(1)
		return a, true
	}
	// Fresh array, allocated at the full class capacity so it can serve
	// any same-class request after release.
	a = &Array{Kind: kind}
	a.layout(axes)
	capacity := int64(1) << class
	switch pool {
	case &ar.f:
		a.F = make([]float64, size, capacity)
	case &ar.b:
		a.B = make([]bool, size, capacity)
	default:
		a.I = make([]int64, size, capacity)
	}
	a.pooled = true
	ar.lent.Add(1)
	return a, false
}

// Release returns a — descriptor and backing store — to the arena for
// reuse. Only arrays handed out by NewArrayIn are recycled; Release is
// a no-op for every other array, so callers may release
// unconditionally. The axes are detached, so a stale reference to a
// released array fails fast on its next subscript instead of silently
// aliasing a later activation's storage.
func (ar *Arena) Release(a *Array) {
	if ar == nil || a == nil || !a.pooled {
		return
	}
	a.pooled = false
	ar.lent.Add(-1)
	a.defined = nil
	a.Axes = nil
	var capacity int64
	var pool *[arenaClasses]sync.Pool
	switch {
	case a.F != nil:
		capacity, pool = int64(cap(a.F)), &ar.f
	case a.I != nil:
		capacity, pool = int64(cap(a.I)), &ar.i
	case a.B != nil:
		capacity, pool = int64(cap(a.B)), &ar.b
	default:
		return
	}
	if c := sizeClass(capacity); capacity == 1<<c && c < arenaMaxClass {
		pool[c].Put(a)
	}
}
