// Package value implements PS runtime values: scalars, records, and
// multi-dimensional arrays whose dimensions may be *virtual* — allocated
// as a sliding window of planes (paper §3.4) instead of in full. A window
// of w planes stores logical plane x at physical plane (x-lo) mod w, which
// is exactly safe when the scheduler has proven that no reference reaches
// back more than w-1 planes.
package value

import (
	"fmt"
	"math"

	"repro/internal/types"
)

// Error is the panic payload for runtime value errors (subscripts out of
// range, strict-mode violations); executors recover it at module
// boundaries and surface it as an ordinary error.
type Error string

// Error implements the error interface.
func (e Error) Error() string { return string(e) }

func errf(format string, args ...any) Error {
	return Error(fmt.Sprintf(format, args...))
}

// Axis describes one array dimension at run time.
type Axis struct {
	Lo, Hi int64 // inclusive logical bounds
	// Window is 0 for a physically allocated dimension, else the number
	// of live planes.
	Window int
}

// Extent is the logical number of elements along the axis.
func (ax Axis) Extent() int64 { return ax.Hi - ax.Lo + 1 }

// Phys is the allocated number of planes along the axis.
func (ax Axis) Phys() int64 {
	if ax.Window > 0 && int64(ax.Window) < ax.Extent() {
		return int64(ax.Window)
	}
	return ax.Extent()
}

// Array is an n-dimensional PS array. The element kind selects the typed
// backing store; only one of F, I, B, S is non-nil.
type Array struct {
	Kind types.Kind
	Axes []Axis
	// Strides and PhysDims are the physical layout, exported for the
	// interpreter's inlined element addressing.
	Strides  []int64
	PhysDims []int64
	F        []float64
	I        []int64 // also backs char and enum ordinals
	B        []bool
	S        []any // strings and records (boxed)

	// defined, when non-nil, tracks definedness per element to detect
	// reads of undefined elements and single-assignment violations.
	defined []bool

	// pooled marks a backing slice handed out by an Arena, so Release
	// knows the storage may be recycled.
	pooled bool
}

// NewArray allocates an array of the given element kind and axes.
func NewArray(kind types.Kind, axes []Axis) *Array {
	a := &Array{Kind: kind, Axes: axes}
	size := int64(1)
	a.Strides = make([]int64, len(axes))
	a.PhysDims = make([]int64, len(axes))
	for i := len(axes) - 1; i >= 0; i-- {
		a.Strides[i] = size
		a.PhysDims[i] = axes[i].Phys()
		size *= axes[i].Phys()
	}
	if size < 0 {
		panic("value: negative array size")
	}
	switch kind {
	case types.RealKind:
		a.F = make([]float64, size)
	case types.IntKind, types.SubrangeKind, types.CharKind, types.EnumKind, types.BoolKind:
		if kind == types.BoolKind {
			a.B = make([]bool, size)
		} else {
			a.I = make([]int64, size)
		}
	default:
		a.S = make([]any, size)
	}
	return a
}

// EnableStrict turns on definedness tracking (single-assignment checking).
func (a *Array) EnableStrict() {
	if a.defined == nil {
		a.defined = make([]bool, a.Len())
	}
}

// Strict reports whether definedness tracking is active.
func (a *Array) Strict() bool { return a.defined != nil }

// Len returns the allocated element count.
func (a *Array) Len() int64 {
	n := int64(1)
	for _, ax := range a.Axes {
		n *= ax.Phys()
	}
	return n
}

// Rank returns the number of dimensions.
func (a *Array) Rank() int { return len(a.Axes) }

// Offset maps logical indices to the physical element offset, applying
// window wrap-around on virtual axes. It panics with a descriptive error
// on out-of-range indices.
func (a *Array) Offset(idx []int64) int64 {
	if len(idx) != len(a.Axes) {
		panic(errf("value: %d subscripts for rank-%d array", len(idx), len(a.Axes)))
	}
	var off int64
	for d, x := range idx {
		ax := a.Axes[d]
		if x < ax.Lo || x > ax.Hi {
			panic(errf("value: subscript %d out of range %d..%d in dimension %d", x, ax.Lo, ax.Hi, d+1))
		}
		p := x - ax.Lo
		if w := ax.Phys(); p >= w {
			p %= w
		}
		off += p * a.Strides[d]
	}
	return off
}

// OffsetChecked is Offset returning an error instead of panicking.
func (a *Array) OffsetChecked(idx []int64) (int64, error) {
	if len(idx) != len(a.Axes) {
		return 0, fmt.Errorf("value: %d subscripts for rank-%d array", len(idx), len(a.Axes))
	}
	for d, x := range idx {
		ax := a.Axes[d]
		if x < ax.Lo || x > ax.Hi {
			return 0, fmt.Errorf("value: subscript %d out of range %d..%d in dimension %d", x, ax.Lo, ax.Hi, d+1)
		}
	}
	return a.Offset(idx), nil
}

// GetF reads a real element.
func (a *Array) GetF(idx []int64) float64 { return a.F[a.checkedRead(idx)] }

// SetF writes a real element.
func (a *Array) SetF(idx []int64, v float64) { a.F[a.checkedWrite(idx)] = v }

// GetI reads an integer-backed element (int, subrange, char, enum).
func (a *Array) GetI(idx []int64) int64 { return a.I[a.checkedRead(idx)] }

// SetI writes an integer-backed element.
func (a *Array) SetI(idx []int64, v int64) { a.I[a.checkedWrite(idx)] = v }

// GetB reads a bool element.
func (a *Array) GetB(idx []int64) bool { return a.B[a.checkedRead(idx)] }

// SetB writes a bool element.
func (a *Array) SetB(idx []int64, v bool) { a.B[a.checkedWrite(idx)] = v }

// Get reads an element as a boxed value.
func (a *Array) Get(idx []int64) any {
	off := a.checkedRead(idx)
	switch {
	case a.F != nil:
		return a.F[off]
	case a.I != nil:
		return a.I[off]
	case a.B != nil:
		return a.B[off]
	default:
		return a.S[off]
	}
}

// Set writes a boxed value, converting integers to reals when needed.
func (a *Array) Set(idx []int64, v any) {
	off := a.checkedWrite(idx)
	switch {
	case a.F != nil:
		a.F[off] = ToFloat(v)
	case a.I != nil:
		a.I[off] = ToInt(v)
	case a.B != nil:
		a.B[off] = v.(bool)
	default:
		a.S[off] = v
	}
}

func (a *Array) checkedRead(idx []int64) int64 {
	off := a.Offset(idx)
	if a.defined != nil && !a.defined[off] {
		// The message deliberately omits idx: formatting the slice would
		// force every caller's subscript buffer onto the heap, even on
		// the never-panicking path (escape analysis is static).
		panic(errf("value: read of undefined element (physical offset %d)", off))
	}
	return off
}

func (a *Array) checkedWrite(idx []int64) int64 {
	off := a.Offset(idx)
	if a.defined != nil {
		if a.defined[off] && !a.windowed() {
			panic(errf("value: element defined twice (single assignment violated; physical offset %d)", off))
		}
		a.defined[off] = true
	}
	return off
}

// windowed reports whether any axis is virtual (window reuse makes
// re-writing a physical slot legal).
func (a *Array) windowed() bool {
	for _, ax := range a.Axes {
		if ax.Window > 0 && int64(ax.Window) < ax.Extent() {
			return true
		}
	}
	return false
}

// Fill sets every element of a real array (test helper).
func (a *Array) Fill(v float64) {
	for i := range a.F {
		a.F[i] = v
	}
	if a.defined != nil {
		for i := range a.defined {
			a.defined[i] = true
		}
	}
}

// Equal reports element-wise equality of two arrays of identical shape.
func (a *Array) Equal(b *Array) bool {
	if a.Kind != b.Kind || len(a.Axes) != len(b.Axes) {
		return false
	}
	for i := range a.Axes {
		if a.Axes[i].Lo != b.Axes[i].Lo || a.Axes[i].Hi != b.Axes[i].Hi {
			return false
		}
	}
	idx := make([]int64, len(a.Axes))
	for d := range idx {
		idx[d] = a.Axes[d].Lo
	}
	for {
		if a.Get(idx) != b.Get(idx) {
			return false
		}
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] <= a.Axes[d].Hi {
				break
			}
			idx[d] = a.Axes[d].Lo
			d--
		}
		if d < 0 {
			return true
		}
	}
}

// MaxAbsDiff returns the maximum absolute element difference of two real
// arrays of identical shape (for numerical comparisons).
func (a *Array) MaxAbsDiff(b *Array) float64 {
	var worst float64
	for i := range a.F {
		d := math.Abs(a.F[i] - b.F[i])
		if d > worst {
			worst = d
		}
	}
	return worst
}

// Record is a PS record value: field values in declaration order.
type Record struct {
	Type   *types.Record
	Fields []any
}

// Field returns the named field's value.
func (r *Record) Field(name string) any {
	for i, f := range r.Type.Fields {
		if f.Name == name {
			return r.Fields[i]
		}
	}
	panic(errf("value: record has no field %s", name))
}

// ToFloat converts a numeric boxed value to float64.
func ToFloat(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	case int:
		return float64(x)
	}
	panic(errf("value: cannot convert %T to real", v))
}

// ToInt converts a numeric boxed value to int64.
func ToInt(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case float64:
		return int64(x)
	}
	panic(errf("value: cannot convert %T to int", v))
}
