package ps_test

// The JSON wire format as it stood before the typed scanner replaced
// it, kept verbatim as the oracles the fuzz targets compare the
// replacement against. The array half, for FuzzArrayJSON: nested []any
// through encoding/json, written element by element through the boxed
// value.Array.Set, and boxed back into []any trees for encoding. The
// scalar half, for FuzzScalarJSON: one json.Unmarshal per scalar into
// its Go type.

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/types"
	"repro/internal/value"
)

const (
	jsonNaN    = "NaN"
	jsonInf    = "Infinity"
	jsonNegInf = "-Infinity"
)

// floatToJSON boxes a real for JSON encoding, spelling non-finite
// values as strings.
func floatToJSON(f float64) any {
	switch {
	case math.IsNaN(f):
		return jsonNaN
	case math.IsInf(f, 1):
		return jsonInf
	case math.IsInf(f, -1):
		return jsonNegInf
	}
	return f
}

// floatFromJSONString maps the non-finite spellings back to floats.
func floatFromJSONString(s string) (float64, bool) {
	switch s {
	case jsonNaN:
		return math.NaN(), true
	case jsonInf:
		return math.Inf(1), true
	case jsonNegInf:
		return math.Inf(-1), true
	}
	return 0, false
}

func scalarFromJSON(raw json.RawMessage, t types.Type) (any, error) {
	switch t.Kind() {
	case types.RealKind:
		var v float64
		if err := json.Unmarshal(raw, &v); err != nil {
			var s string
			if serr := json.Unmarshal(raw, &s); serr == nil {
				if f, ok := floatFromJSONString(s); ok {
					return f, nil
				}
			}
			return nil, err
		}
		return v, nil
	case types.IntKind, types.SubrangeKind, types.CharKind, types.EnumKind:
		var v int64
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, err
		}
		return v, nil
	case types.BoolKind:
		var v bool
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, err
		}
		return v, nil
	case types.StringKind:
		var v string
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, err
		}
		return v, nil
	}
	return nil, fmt.Errorf("unsupported parameter type %s", t)
}

func arrayFromJSON(raw json.RawMessage, elem types.Type, axes []value.Axis) (*value.Array, error) {
	if raw == nil {
		return nil, fmt.Errorf("missing array input")
	}
	var nested any
	if err := json.Unmarshal(raw, &nested); err != nil {
		return nil, err
	}
	arr := value.NewArray(elem.Kind(), axes)
	idx := make([]int64, len(axes))
	var fill func(v any, d int) error
	fill = func(v any, d int) error {
		list, ok := v.([]any)
		if !ok {
			return fmt.Errorf("expected a list at depth %d", d)
		}
		n := axes[d].Extent()
		if int64(len(list)) != n {
			return fmt.Errorf("dimension %d has %d elements, want %d", d+1, len(list), n)
		}
		for k, item := range list {
			idx[d] = axes[d].Lo + int64(k)
			if d == len(axes)-1 {
				num, ok := item.(float64)
				if !ok {
					if b, isB := item.(bool); isB && elem.Kind() == types.BoolKind {
						arr.Set(idx, b)
						continue
					}
					if s, isS := item.(string); isS && elem.Kind() == types.RealKind {
						if f, isFin := floatFromJSONString(s); isFin {
							arr.Set(idx, f)
							continue
						}
					}
					return fmt.Errorf("element %v is not a number", idx)
				}
				switch elem.Kind() {
				case types.RealKind:
					arr.Set(idx, num)
				default:
					arr.Set(idx, int64(num))
				}
			} else if err := fill(item, d+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := fill(nested, 0); err != nil {
		return nil, err
	}
	return arr, nil
}

func arrayToJSON(a *value.Array, prefix []int64) any {
	d := len(prefix)
	ax := a.Axes[d]
	out := make([]any, 0, ax.Extent())
	for x := ax.Lo; x <= ax.Hi; x++ {
		idx := append(prefix, x)
		if d == a.Rank()-1 {
			v := a.Get(idx)
			if f, isF := v.(float64); isF {
				v = floatToJSON(f)
			}
			out = append(out, v)
		} else {
			out = append(out, arrayToJSON(a, idx))
		}
	}
	return out
}
