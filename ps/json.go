package ps

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/token"
	"repro/internal/types"
	"repro/internal/value"
)

// JSON has no encoding for non-finite floats — encoding/json fails on
// them — so the wire format spells them as the strings below, in both
// directions. This is the same convention most scientific JSON APIs
// settle on, and it keeps NaN results (e.g. reads of FillNaN-seeded
// debug arrays) servable instead of a 500.
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

// ArgsFromJSON converts a map of JSON parameter values into the argument
// list for the named module: scalars as numbers/booleans/strings, arrays
// as nested row-major lists shaped to the declared dimensions (whose
// bounds may reference the scalar parameters in the same map). Real
// elements are numbers or the non-finite spellings; elements of
// integer-backed types (int, subranges, char and enum ordinals) must be
// exact int64 literals, as int scalars must; bool elements are true or
// false. Arrays of strings or records are refused.
func ArgsFromJSON(p *Program, module string, inputs map[string]json.RawMessage) ([]any, error) {
	m := p.Module(module)
	if m == nil {
		return nil, &Error{Phase: PhaseRun, Module: module, Err: fmt.Errorf("no module %q", module)}
	}
	sm := m.sem
	inputErr := func(sym string, err error) *Error {
		return &Error{Phase: PhaseRun, Module: sm.Name, Err: fmt.Errorf("input %s: %w", sym, err)}
	}

	// First pass: scalar parameters, needed to evaluate array bounds.
	env := make(map[string]int64)
	args := make([]any, len(sm.Params))
	for i, sym := range sm.Params {
		raw, ok := inputs[sym.Name]
		if !ok {
			return nil, &Error{Phase: PhaseRun, Module: sm.Name, Err: fmt.Errorf("missing input %s", sym.Name)}
		}
		if types.Rank(sym.Type) > 0 {
			continue
		}
		var err error
		args[i], err = scalarFromJSON(raw, sym.Type)
		if err != nil {
			return nil, inputErr(sym.Name, err)
		}
		if v, isInt := args[i].(int64); isInt {
			env[sym.Name] = v
		}
	}

	// Second pass: arrays, with bounds evaluated against the scalars.
	for i, sym := range sm.Params {
		arrT, isArr := sym.Type.(*types.Array)
		if !isArr {
			continue
		}
		axes := make([]value.Axis, len(arrT.Dims))
		for d, sr := range arrT.Dims {
			lo, err := evalBound(sr.Lo, env)
			if err != nil {
				return nil, inputErr(sym.Name, fmt.Errorf("bounds: %w", err))
			}
			hi, err := evalBound(sr.Hi, env)
			if err != nil {
				return nil, inputErr(sym.Name, fmt.Errorf("bounds: %w", err))
			}
			axes[d] = value.Axis{Lo: lo, Hi: hi}
		}
		arr, err := arrayFromJSON(inputs[sym.Name], arrT.Elem, axes)
		if err != nil {
			return nil, inputErr(sym.Name, err)
		}
		args[i] = arr
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
	case types.IntKind, types.SubrangeKind:
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
	if raw == nil {
		return nil, fmt.Errorf("missing array input")
	}
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
	s := arrayScanner{data: raw, arr: value.NewArray(kind, axes)}
	s.space()
	if err := s.list(0); err != nil {
		return nil, err
	}
	if s.space(); s.pos < len(s.data) {
		return nil, s.syntaxError()
	}
	return s.arr, nil
}

// arrayScanner is arrayFromJSON's cursor: the input, the read position,
// and the array being filled with the row-major offset of its next
// element.
type arrayScanner struct {
	data []byte
	pos  int
	arr  *value.Array
	off  int64
}

// list scans the list at depth d, its elements and their sublists.
func (s *arrayScanner) list(d int) error {
	if !s.consume('[') {
		return fmt.Errorf("expected a list at depth %d", d)
	}
	n := s.arr.Axes[d].Extent()
	leaf := d == len(s.arr.Axes)-1
	s.space()
	if s.consume(']') {
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
		s.space()
		switch {
		case s.consume(','):
			s.space()
		case s.consume(']'):
			if k != n {
				return fmt.Errorf("dimension %d has %d elements, want %d", d+1, k, n)
			}
			return nil
		default:
			return s.syntaxError()
		}
	}
}

// element scans one leaf into the next slot of the backing.
func (s *arrayScanner) element() error {
	a := s.arr
	switch {
	case a.F != nil:
		var f float64
		if s.consume('"') {
			str, err := s.stringBody()
			if err != nil {
				return err
			}
			var ok bool
			if f, ok = floatFromJSONString(str); !ok {
				return s.elementError("is not a number")
			}
		} else {
			lit, _ := s.number()
			if lit == nil {
				return s.elementError("is not a number")
			}
			var err error
			if f, err = strconv.ParseFloat(string(lit), 64); err != nil {
				// Only a range error gets here: lit is valid JSON.
				return s.elementError("is out of range")
			}
		}
		a.F[s.off] = f
	case a.B != nil:
		switch {
		case s.literal("true"):
			a.B[s.off] = true
		case s.literal("false"):
			a.B[s.off] = false
		default:
			return s.elementError("is not a bool")
		}
	default:
		lit, isInt := s.number()
		if !isInt {
			return s.elementError("is not an integer")
		}
		v, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil {
			return s.elementError("is out of range")
		}
		a.I[s.off] = v
	}
	s.off++
	return nil
}

// number scans a number in JSON's grammar, the only one strconv is
// handed, returning its literal and whether it is an integer (no
// fraction or exponent). lit is nil when the input does not continue
// with a well-formed number.
func (s *arrayScanner) number() (lit []byte, isInt bool) {
	d, i := s.data, s.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		return nil, false
	}
	isInt = true
	if i < len(d) && d[i] == '.' {
		isInt = false
		j := digits(d, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		isInt = false
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	lit, s.pos = d[s.pos:i], i
	return lit, isInt
}

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// stringBody scans the rest of a string whose opening quote was
// consumed and returns its value. A string without escapes is returned
// as it stands, unvalidated: the caller only matches it against the
// non-finite spellings, and a string encoding/json would refuse never
// equals one. Escapes are left to encoding/json.
func (s *arrayScanner) stringBody() (string, error) {
	start, escaped := s.pos, false
	for i := start; i < len(s.data); i++ {
		switch s.data[i] {
		case '"':
			s.pos = i + 1
			if !escaped {
				return string(s.data[start:i]), nil
			}
			var str string
			if err := json.Unmarshal(s.data[start-1:i+1], &str); err != nil {
				return "", err
			}
			return str, nil
		case '\\':
			escaped = true
			i++
		}
	}
	s.pos = len(s.data)
	return "", s.syntaxError()
}

// literal consumes word if the input continues with it.
func (s *arrayScanner) literal(word string) bool {
	if len(s.data)-s.pos >= len(word) && string(s.data[s.pos:s.pos+len(word)]) == word {
		s.pos += len(word)
		return true
	}
	return false
}

// consume consumes c if it is the next byte.
func (s *arrayScanner) consume(c byte) bool {
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (s *arrayScanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// syntaxError reports the byte at the read position.
func (s *arrayScanner) syntaxError() error {
	if s.pos >= len(s.data) {
		return fmt.Errorf("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", s.data[s.pos], s.pos)
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

// evalBound evaluates a subrange bound expression over scalar parameter
// values.
func evalBound(e ast.Expr, env map[string]int64) (int64, error) {
	if v, ok := sem.EvalConstInt(e); ok {
		return v, nil
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := env[x.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("bound references %s, which is not a scalar input", x.Name)
	case *ast.Unary:
		v, err := evalBound(x.X, env)
		if err != nil {
			return 0, err
		}
		if x.Op == token.MINUS {
			return -v, nil
		}
		return v, nil
	case *ast.Binary:
		l, err := evalBound(x.X, env)
		if err != nil {
			return 0, err
		}
		r, err := evalBound(x.Y, env)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case token.PLUS:
			return l + r, nil
		case token.MINUS:
			return l - r, nil
		case token.STAR:
			return l * r, nil
		case token.DIV:
			if r == 0 {
				return 0, fmt.Errorf("division by zero in bound")
			}
			return l / r, nil
		case token.MOD:
			if r == 0 {
				return 0, fmt.Errorf("division by zero in bound")
			}
			return l % r, nil
		}
	}
	return 0, fmt.Errorf("cannot evaluate bound %s", ast.ExprString(e))
}
