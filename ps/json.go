package ps

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/jsonscan"
	"repro/internal/types"
	"repro/internal/value"
)

// JSON has no encoding for non-finite floats — encoding/json fails on
// them — so the wire format spells them as the strings below, in both
// directions. This is the same convention most scientific JSON APIs
// settle on, and it keeps NaN results (e.g. a 0.0/0.0 in an equation)
// servable instead of a 500.
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

// ArgsFromJSON converts JSON parameter values, keyed by exactly the
// module's parameter names, into its argument list. Scalars and array
// elements decode alike: reals are numbers or the non-finite spellings,
// integer-backed values (int, subranges, char and enum ordinals) exact
// int64 literals, bools true or false, and null is refused. Arrays are
// nested row-major lists with the bounds a run declares for the scalars
// in the same map. Arrays of strings or records are refused.
func ArgsFromJSON(p *Program, module string, inputs map[string]json.RawMessage) ([]any, error) {
	m := p.Module(module)
	if m == nil {
		return nil, &Error{Phase: PhaseRun, Module: module, Err: fmt.Errorf("no module %q", module)}
	}
	raws, err := positional(m, inputs)
	if err != nil {
		return nil, err
	}
	params := m.sem.Params
	inputErr := func(i int, err error) *Error {
		return &Error{Phase: PhaseRun, Module: m.Name(), Err: fmt.Errorf("input %s: %w", params[i].Name, err)}
	}

	// Scalars first: the array bounds are evaluated over them.
	args := make([]any, len(params))
	for i, sym := range params {
		if types.Rank(sym.Type) > 0 {
			continue
		}
		if args[i], err = scalarLeaf(raws[i], sym.Type); err != nil {
			return nil, inputErr(i, err)
		}
	}
	axes, err := p.ip.ParamAxes(m.Name(), args)
	if err != nil {
		return nil, runError(m.Name(), err)
	}
	for i, ax := range axes {
		if ax == nil {
			continue
		}
		if args[i], err = arrayFromJSON(raws[i], params[i].Type.(*types.Array).Elem, ax); err != nil {
			return nil, inputErr(i, err)
		}
	}
	return args, nil
}

// ResultsToJSON converts module results into JSON-encodable values keyed
// by result name. An array becomes nested rows whose innermost rows are
// typed slices viewing the result's own storage ([]float64, []int64,
// []bool), so encoding/json writes them without boxing; the views alias
// the results, so encode the map before mutating them.
func ResultsToJSON(p *Program, module string, results []any) (map[string]any, error) {
	m := p.Module(module)
	if m == nil {
		return nil, &Error{Phase: PhaseRun, Module: module, Err: fmt.Errorf("no module %q", module)}
	}
	out := make(map[string]any, len(results))
	for i, sym := range m.sem.Results {
		switch v := results[i].(type) {
		case *value.Array:
			out[sym.Name] = arrayToJSON(v, 0, 0)
		case float64:
			out[sym.Name] = floatToJSON(v)
		default:
			out[sym.Name] = results[i]
		}
	}
	return out, nil
}

// scalarLeaf decodes one scalar argument with the array leaves' scanner;
// a string decodes as encoding/json decodes it.
func scalarLeaf(raw json.RawMessage, t types.Type) (v any, err error) {
	s := arrayScanner{Scanner: jsonscan.Scanner{Data: raw}}
	s.Space()
	switch t.Kind() {
	case types.RealKind:
		v, err = s.real()
	case types.IntKind, types.SubrangeKind, types.CharKind, types.EnumKind:
		v, err = s.integer()
	case types.BoolKind:
		v, err = s.boolean()
	case types.StringKind:
		if s.Consume('"') {
			v, err = s.StringBody()
		} else {
			err = badLeaf("is not a string")
		}
	default:
		return nil, fmt.Errorf("unsupported parameter type %s", t)
	}
	if bad, isBad := err.(badLeaf); isBad {
		return nil, fmt.Errorf("value %s", string(bad))
	}
	if s.Space(); err == nil && s.Pos < len(s.Data) {
		err = s.SyntaxError()
	}
	return v, err
}

// arrayFromJSON decodes one array argument: nested lists, one level per
// axis, each exactly as long as its axis, with the leaves in row-major
// order. It scans raw once, writing each leaf straight into the typed
// backing at a running offset, which is exact because NewArray's axes
// are never windowed. It accepts exactly the JSON encoding/json would
// (number grammar, string escapes, literals, whitespace, nothing after
// the value), with leaves decoded as the scalars are: a real is a
// number or a non-finite spelling, an integer-backed element an exact
// integer literal, a bool true or false.
func arrayFromJSON(raw json.RawMessage, elem types.Type, axes []value.Axis) (*value.Array, error) {
	kind := elem.Kind()
	switch kind {
	case types.RealKind, types.BoolKind, types.IntKind, types.SubrangeKind, types.CharKind, types.EnumKind:
	default:
		return nil, fmt.Errorf("arrays of %s are not supported over JSON", elem)
	}
	// Inverted bounds would make NewArray panic. n counts the list items
	// at depth d; each takes at least one byte of raw, so bounds too
	// large for the input are refused before they can allocate.
	n := int64(1)
	for d, ax := range axes {
		ext := ax.Extent()
		if ext < 0 {
			return nil, fmt.Errorf("dimension %d has bounds %d .. %d", d+1, ax.Lo, ax.Hi)
		}
		if n != 0 && ext > int64(len(raw))/n {
			return nil, fmt.Errorf("dimension %d has %d elements, more than %d bytes of input can hold", d+1, ext, len(raw))
		}
		n *= ext
	}
	s := arrayScanner{Scanner: jsonscan.Scanner{Data: raw}, arr: value.NewArray(kind, axes)}
	s.Space()
	if err := s.list(0); err != nil {
		return nil, err
	}
	if s.Space(); s.Pos < len(s.Data) {
		return nil, s.SyntaxError()
	}
	return s.arr, nil
}

// arrayScanner is arrayFromJSON's cursor: the input and read position,
// and the array being filled with the row-major offset of its next
// element.
type arrayScanner struct {
	jsonscan.Scanner
	arr *value.Array
	off int64
}

// list scans the list at depth d, its elements and their sublists.
func (s *arrayScanner) list(d int) error {
	if !s.Consume('[') {
		return fmt.Errorf("expected a list at depth %d", d)
	}
	n := s.arr.Axes[d].Extent()
	leaf := d == len(s.arr.Axes)-1
	s.Space()
	if s.Consume(']') {
		if n != 0 {
			return fmt.Errorf("dimension %d has 0 elements, want %d", d+1, n)
		}
		return nil
	}
	for k := int64(1); ; k++ {
		if k > n {
			return fmt.Errorf("dimension %d has more than %d elements", d+1, n)
		}
		var err error
		if leaf {
			err = s.element()
		} else {
			err = s.list(d + 1)
		}
		if err != nil {
			return err
		}
		s.Space()
		switch {
		case s.Consume(','):
			s.Space()
		case s.Consume(']'):
			if k != n {
				return fmt.Errorf("dimension %d has %d elements, want %d", d+1, k, n)
			}
			return nil
		default:
			return s.SyntaxError()
		}
	}
}

// element scans one leaf into the next slot of the backing.
func (s *arrayScanner) element() (err error) {
	a := s.arr
	switch {
	case a.F != nil:
		a.F[s.off], err = s.real()
	case a.B != nil:
		a.B[s.off], err = s.boolean()
	default:
		a.I[s.off], err = s.integer()
	}
	if bad, isBad := err.(badLeaf); isBad {
		return s.elementError(string(bad))
	}
	s.off++
	return err
}

// badLeaf is a leaf that is well-formed JSON but not a value of the
// kind scanned; the caller names the leaf.
type badLeaf string

func (b badLeaf) Error() string { return string(b) }

// real scans a real leaf: a number or a non-finite spelling.
func (s *arrayScanner) real() (float64, error) {
	if s.Consume('"') {
		str, err := s.StringBody()
		if err != nil {
			return 0, err
		}
		if f, ok := floatFromJSONString(str); ok {
			return f, nil
		}
		return 0, badLeaf("is not a number")
	}
	lit, _ := s.Number()
	if lit == nil {
		return 0, badLeaf("is not a number")
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		// Only a range error gets here: lit is valid JSON.
		return 0, badLeaf("is out of range")
	}
	return f, nil
}

// integer scans an integer-backed leaf: an exact int64 literal.
func (s *arrayScanner) integer() (int64, error) {
	lit, isInt := s.Number()
	if !isInt {
		return 0, badLeaf("is not an integer")
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return 0, badLeaf("is out of range")
	}
	return v, nil
}

// boolean scans a bool leaf: true or false.
func (s *arrayScanner) boolean() (bool, error) {
	switch {
	case s.Literal("true"):
		return true, nil
	case s.Literal("false"):
		return false, nil
	}
	return false, badLeaf("is not a bool")
}

// elementError reports the element being scanned by its logical index.
func (s *arrayScanner) elementError(what string) error {
	a := s.arr
	idx := make([]int64, a.Rank())
	for d, ax := range a.Axes {
		idx[d] = ax.Lo + s.off/a.Strides[d]%ax.Extent()
	}
	return fmt.Errorf("element %v %s", idx, what)
}

// arrayToJSON renders a result array for encoding/json as nested rows
// without boxing its elements: each innermost row is a slice of the
// typed backing itself (a view, not a copy), and the outer axes are
// []any of rows. The offsets are exact because results are never
// virtual. A real row holding a NaN or an infinity is boxed instead,
// so those elements take their string spellings.
func arrayToJSON(a *value.Array, d int, off int64) any {
	n := a.Axes[d].Extent()
	if d < a.Rank()-1 {
		rows := make([]any, n)
		for k := range rows {
			rows[k] = arrayToJSON(a, d+1, off+int64(k)*a.Strides[d])
		}
		return rows
	}
	end := off + n
	switch {
	case a.F != nil:
		return realRow(a.F[off:end:end])
	case a.I != nil:
		return a.I[off:end:end]
	case a.B != nil:
		return a.B[off:end:end]
	}
	return a.S[off:end:end]
}

// realRow returns row itself when every element is finite, else a
// boxed copy with the non-finite elements spelled as strings.
func realRow(row []float64) any {
	for _, f := range row {
		if f-f != 0 { // NaN or ±Inf
			boxed := make([]any, len(row))
			for k, f := range row {
				boxed[k] = floatToJSON(f)
			}
			return boxed
		}
	}
	return row
}
