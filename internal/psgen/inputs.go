package psgen

import (
	"encoding/json"

	"repro/internal/types"
	"repro/internal/value"
)

// Inputs builds the generated module's argument list (declaration
// order: Seed, then W when IntInput). Values are a pure function of
// the spec's seed, finite, sign-varied and dyadic-scaled so the
// decimal round-trip through the repro sidecar is exact.
func (sp *Spec) Inputs() []any {
	r := &rng{s: sp.Seed ^ 0xda3e39cb94b95bdb}
	axes := make([]value.Axis, len(sp.Dims))
	for i, d := range sp.Dims {
		axes[i] = value.Axis{Lo: d.Lo, Hi: d.Hi}
	}
	seed := value.NewArray(types.RealKind, axes)
	sp.eachPoint(func(idx []int64) {
		// Dyadic values in [-4, 4): exact in decimal and float64.
		seed.SetF(idx, float64(int64(r.next()%256))/32.0-4.0)
	})
	args := []any{seed}
	if sp.IntInput {
		d := sp.Dims[0]
		w := value.NewArray(types.IntKind, []value.Axis{{Lo: d.Lo, Hi: d.Hi}})
		for i := d.Lo; i <= d.Hi; i++ {
			w.SetI([]int64{i}, int64(r.next()%7)-3)
		}
		args = append(args, w)
	}
	return args
}

// eachPoint visits the full iteration box in row-major order.
func (sp *Spec) eachPoint(f func(idx []int64)) {
	idx := make([]int64, len(sp.Dims))
	for i, d := range sp.Dims {
		idx[i] = d.Lo
	}
	for {
		f(idx)
		k := len(idx) - 1
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] <= sp.Dims[k].Hi {
				break
			}
			idx[k] = sp.Dims[k].Lo
		}
		if k < 0 {
			return
		}
	}
}

// InputsJSON encodes the inputs as the nested-list JSON ps.ArgsFromJSON
// accepts, keyed by parameter name — the repro sidecar format written
// next to minimized programs in testdata/fuzz/.
func (sp *Spec) InputsJSON() ([]byte, error) {
	args := sp.Inputs()
	m := map[string]any{"Seed": arrayToNested(args[0].(*value.Array))}
	if sp.IntInput {
		m["W"] = arrayToNested(args[1].(*value.Array))
	}
	return json.MarshalIndent(m, "", "  ")
}

// arrayToNested converts an array to nested lists, outer dimension
// first.
func arrayToNested(a *value.Array) any {
	var build func(prefix []int64, dim int) any
	build = func(prefix []int64, dim int) any {
		ax := a.Axes[dim]
		out := make([]any, 0, ax.Hi-ax.Lo+1)
		for i := ax.Lo; i <= ax.Hi; i++ {
			idx := append(append([]int64{}, prefix...), i)
			if dim == len(a.Axes)-1 {
				switch {
				case a.F != nil:
					out = append(out, a.GetF(idx))
				case a.I != nil:
					out = append(out, a.GetI(idx))
				default:
					out = append(out, a.Get(idx))
				}
			} else {
				out = append(out, build(idx, dim+1))
			}
		}
		return out
	}
	if len(a.Axes) == 0 {
		return nil
	}
	return build(nil, 0)
}

// ParamNames lists the generated module's parameter names in order.
func (sp *Spec) ParamNames() []string {
	if sp.IntInput {
		return []string{"Seed", "W"}
	}
	return []string{"Seed"}
}

// Box returns the iteration box volume.
func (sp *Spec) Box() int64 {
	n := int64(1)
	for _, d := range sp.Dims {
		n *= d.extent()
	}
	return n
}
