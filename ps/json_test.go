package ps_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/types"
	"repro/internal/value"
	"repro/ps"
)

// jsonTypes exercises every JSON-convertible parameter and result
// type: real/int/bool scalars and arrays, with the identity dataflow
// so values survive a round trip bit-for-bit.
const jsonTypes = `
Types: module (R: real; N: int; B: bool;
               Xs: array[I] of real; Ks: array[I] of int; Fs: array[I] of bool):
       [S: real; Q: int; C: bool;
        Ys: array [I] of real; Ms: array[I] of int; Gs: array[I] of bool];
type I = 1 .. N;
define
    S = R;
    Q = N;
    C = B;
    Ys[I] = Xs[I];
    Ms[I] = Ks[I];
    Gs[I] = Fs[I];
end Types;
`

// TestJSONAllTypesRoundTrip pushes every value type through ArgsFromJSON → Run
// → ResultsToJSON → json.Marshal and back, including the non-finite
// reals JSON cannot natively encode: NaN and ±Inf travel as the
// strings "NaN"/"Infinity"/"-Infinity" in both directions (this was a
// real gap — json.Marshal fails outright on non-finite float64s).
func TestJSONAllTypesRoundTrip(t *testing.T) {
	prog, err := newEngine(t).Compile("types.ps", jsonTypes)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]json.RawMessage{
		"R":  json.RawMessage(`"NaN"`),
		"N":  json.RawMessage(`4`),
		"B":  json.RawMessage(`true`),
		"Xs": json.RawMessage(`[1.5, "NaN", "Infinity", "-Infinity"]`),
		"Ks": json.RawMessage(`[1, -2, 3, -4]`),
		"Fs": json.RawMessage(`[true, false, true, false]`),
	}
	args, err := ps.ArgsFromJSON(prog, "Types", inputs)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := args[0].(float64); !math.IsNaN(r) {
		t.Fatalf("scalar NaN input decoded as %v", args[0])
	}
	xs := args[3].(*ps.Array)
	if v := xs.GetF([]int64{3}); !math.IsInf(v, 1) {
		t.Fatalf("Xs[3] = %v, want +Inf", v)
	}
	if v := xs.GetF([]int64{4}); !math.IsInf(v, -1) {
		t.Fatalf("Xs[4] = %v, want -Inf", v)
	}

	results, err := runOnce(prog, "Types", args, ps.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ps.ResultsToJSON(prog, "Types", results)
	if err != nil {
		t.Fatal(err)
	}
	// The encodable map must actually encode — the NaN/Inf gap fails
	// here without the string spelling.
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("json.Marshal of results: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["S"] != "NaN" {
		t.Errorf("S encoded as %v, want \"NaN\"", decoded["S"])
	}
	if decoded["Q"] != float64(4) || decoded["C"] != true {
		t.Errorf("scalar results Q=%v C=%v", decoded["Q"], decoded["C"])
	}
	ys := decoded["Ys"].([]any)
	if ys[0] != 1.5 || ys[1] != "NaN" || ys[2] != "Infinity" || ys[3] != "-Infinity" {
		t.Errorf("Ys encoded as %v", ys)
	}
	ms := decoded["Ms"].([]any)
	if ms[1] != float64(-2) {
		t.Errorf("Ms encoded as %v", ms)
	}
	gs := decoded["Gs"].([]any)
	if gs[0] != true || gs[1] != false {
		t.Errorf("Gs encoded as %v", gs)
	}

	// Close the loop: the encoded results, renamed to the parameter
	// names, must decode back into identical arguments.
	back := map[string]json.RawMessage{
		"N": json.RawMessage(`4`),
		"B": mustRaw(t, decoded["C"]),
		"R": mustRaw(t, decoded["S"]),
	}
	back["Xs"] = mustRaw(t, decoded["Ys"])
	back["Ks"] = mustRaw(t, decoded["Ms"])
	back["Fs"] = mustRaw(t, decoded["Gs"])
	args2, err := ps.ArgsFromJSON(prog, "Types", back)
	if err != nil {
		t.Fatal(err)
	}
	xs2 := args2[3].(*ps.Array)
	for i := int64(1); i <= 4; i++ {
		a, b := xs.GetF([]int64{i}), xs2.GetF([]int64{i})
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Errorf("round-trip Xs[%d]: %v != %v", i, a, b)
		}
	}
	if !args2[4].(*ps.Array).Equal(args[4].(*ps.Array)) {
		t.Error("round-trip int array differs")
	}
	if !args2[5].(*ps.Array).Equal(args[5].(*ps.Array)) {
		t.Error("round-trip bool array differs")
	}
}

// TestJSONAllTypesErrors pins the error paths: missing inputs, shape
// mismatches, and non-numeric garbage (a string that is not one of the
// non-finite spellings must still be rejected).
func TestJSONAllTypesErrors(t *testing.T) {
	prog, err := newEngine(t).Compile("types.ps", jsonTypes)
	if err != nil {
		t.Fatal(err)
	}
	base := func() map[string]json.RawMessage {
		return map[string]json.RawMessage{
			"R":  json.RawMessage(`1.0`),
			"N":  json.RawMessage(`2`),
			"B":  json.RawMessage(`false`),
			"Xs": json.RawMessage(`[1, 2]`),
			"Ks": json.RawMessage(`[1, 2]`),
			"Fs": json.RawMessage(`[true, true]`),
		}
	}

	in := base()
	delete(in, "Ks")
	if _, err := ps.ArgsFromJSON(prog, "Types", in); err == nil {
		t.Error("missing array input accepted")
	}

	in = base()
	in["Xs"] = json.RawMessage(`[1, 2, 3]`)
	if _, err := ps.ArgsFromJSON(prog, "Types", in); err == nil {
		t.Error("wrong-length array accepted")
	}

	in = base()
	in["Xs"] = json.RawMessage(`[1, "bogus"]`)
	if _, err := ps.ArgsFromJSON(prog, "Types", in); err == nil {
		t.Error("non-finite spelling \"bogus\" accepted")
	}

	in = base()
	in["R"] = json.RawMessage(`"bogus"`)
	if _, err := ps.ArgsFromJSON(prog, "Types", in); err == nil {
		t.Error("scalar string \"bogus\" accepted as real")
	}

	// A null scalar is refused, as a null element is; encoding/json
	// would leave the zero value.
	for _, name := range []string{"N", "R", "B"} {
		in = base()
		in[name] = json.RawMessage(` null `)
		_, err = ps.ArgsFromJSON(prog, "Types", in)
		var pe *ps.Error
		if !errors.As(err, &pe) || !strings.HasPrefix(pe.Err.Error(), "input "+name+": value is not") {
			t.Errorf("%s = null: %v", name, err)
		}
	}

	// Every name must be a declared parameter, as for RunNamed.
	in = base()
	in["Bogus"] = json.RawMessage(`1`)
	if _, err := ps.ArgsFromJSON(prog, "Types", in); err == nil || !strings.Contains(err.Error(), `unknown argument "Bogus"`) {
		t.Errorf("undeclared input: %v", err)
	}

	// A number in a bool array is an input error, not a panic.
	in = base()
	in["Fs"] = json.RawMessage(`[1, 0]`)
	_, err = ps.ArgsFromJSON(prog, "Types", in)
	var pe *ps.Error
	if !errors.As(err, &pe) || pe.Err.Error() != "input Fs: element [1] is not a bool" {
		t.Errorf("numeric bool element: %v", err)
	}

	// Int elements decode exactly, as int scalars do: a fraction or an
	// exponent is refused rather than truncated, and a literal beyond
	// float64's 53 bits survives.
	for _, ks := range []string{`[1.5, 2]`, `[1, 1e300]`, `[1, 9223372036854775808]`} {
		in = base()
		in["Ks"] = json.RawMessage(ks)
		if _, err := ps.ArgsFromJSON(prog, "Types", in); err == nil {
			t.Errorf("int elements %s accepted", ks)
		}
	}
	in = base()
	in["Ks"] = json.RawMessage(`[9007199254740993, -9223372036854775808]`)
	args, err := ps.ArgsFromJSON(prog, "Types", in)
	if err != nil {
		t.Fatal(err)
	}
	ks := args[4].(*ps.Array)
	if got := ks.GetI([]int64{1}); got != 9007199254740993 {
		t.Errorf("Ks[1] = %d, want 9007199254740993", got)
	}
	if got := ks.GetI([]int64{2}); got != math.MinInt64 {
		t.Errorf("Ks[2] = %d, want MinInt64", got)
	}

	// Bounds the input cannot fill are refused before anything is
	// allocated: inverted ones, and ones larger than the input.
	for _, n := range []string{`-3`, `1000000000000`} {
		in = base()
		in["N"] = json.RawMessage(n)
		if _, err := ps.ArgsFromJSON(prog, "Types", in); err == nil {
			t.Errorf("N = %s accepted", n)
		}
	}

	if _, err := ps.ArgsFromJSON(prog, "NoSuch", base()); err == nil {
		t.Error("unknown module accepted")
	}

	// A bound that fails to evaluate is an input error, not a panic.
	quot, err := newEngine(t).Compile("quot.ps", `
Quot: module (N: int; Xs: array[I] of real): [Ys: array[I] of real];
type I = 1 .. 10 div N;
define
    Ys[I] = Xs[I];
end Quot;
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ps.ArgsFromJSON(quot, "Quot", map[string]json.RawMessage{
		"N": json.RawMessage(`0`), "Xs": json.RawMessage(`[]`),
	})
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("bound dividing by N = 0: %v", err)
	}

	// String and record elements have no JSON form.
	strs, err := newEngine(t).Compile("strs.ps", `
Strs: module (N: int; Ws: array[I] of string): [Vs: array[I] of string];
type I = 1 .. N;
define
    Vs[I] = Ws[I];
end Strs;
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ps.ArgsFromJSON(strs, "Strs", map[string]json.RawMessage{
		"N": json.RawMessage(`1`), "Ws": json.RawMessage(`["a"]`),
	})
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "not supported over JSON") {
		t.Errorf("string array: %v", err)
	}
}

// TestJSONCharEnumScalars pins char and enum scalar parameters over
// JSON: like their array elements, they travel as exact int64
// ordinals, decoded the way int scalars are, and come back out as
// numbers.
func TestJSONCharEnumScalars(t *testing.T) {
	prog, err := newEngine(t).Compile("tags.ps", `
Tags: module (C: char; L: Light): [D: char; O: int; R: bool];
type
    Light = (green, yellow, red);
define
    D = C;
    O = ord(C);
    R = L = red;
end Tags;
`)
	if err != nil {
		t.Fatal(err)
	}
	args, err := ps.ArgsFromJSON(prog, "Tags", map[string]json.RawMessage{
		"C": json.RawMessage(`113`), "L": json.RawMessage(`2`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if args[0] != int64('q') || args[1] != int64(2) {
		t.Fatalf("decoded C = %v, L = %v; want %d, 2", args[0], args[1], 'q')
	}
	results, err := runOnce(prog, "Tags", args)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ps.ResultsToJSON(prog, "Tags", results)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), `{"D":113,"O":113,"R":true}`; got != want {
		t.Errorf("results encoded as %s, want %s", got, want)
	}
	for _, in := range []map[string]json.RawMessage{
		{"C": json.RawMessage(`113.5`), "L": json.RawMessage(`2`)},
		{"C": json.RawMessage(`"q"`), "L": json.RawMessage(`2`)},
		{"C": json.RawMessage(`113`), "L": json.RawMessage(`true`)},
	} {
		if _, err := ps.ArgsFromJSON(prog, "Tags", in); err == nil {
			t.Errorf("inputs C = %s, L = %s accepted", in["C"], in["L"])
		}
	}
}

func mustRaw(t *testing.T, v any) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// arrayElems are the element types FuzzArrayJSON covers, one per typed
// backing.
var arrayElems = []types.Type{types.Real, types.Int, types.Bool}

// compileCopy compiles module M, which copies its array parameter A to
// its result B; axis d runs over Ld .. Hd, both int parameters.
func compileCopy(tb testing.TB, elem types.Type, rank int) *ps.Program {
	tb.Helper()
	var params, decls, subs []string
	for d := 1; d <= rank; d++ {
		params = append(params, fmt.Sprintf("L%d: int; H%d: int", d, d))
		decls = append(decls, fmt.Sprintf("I%d = L%d .. H%d;", d, d, d))
		subs = append(subs, fmt.Sprintf("I%d", d))
	}
	arr := fmt.Sprintf("array[%s] of %s", strings.Join(subs, ", "), elem)
	src := fmt.Sprintf("M: module (%s; A: %s): [B: %s];\ntype %s\ndefine\n    B[%[5]s] = A[%[5]s];\nend M;\n",
		strings.Join(params, "; "), arr, arr, strings.Join(decls, " "), strings.Join(subs, ", "))
	prog, err := newEngine(tb).Compile("copy.ps", src)
	if err != nil {
		tb.Fatalf("%v\n%s", err, src)
	}
	return prog
}

// boundInputs is the scalar half of M's inputs for the given axes.
func boundInputs(axes []value.Axis) map[string]json.RawMessage {
	in := make(map[string]json.RawMessage, 2*len(axes)+1)
	for d, ax := range axes {
		in[fmt.Sprintf("L%d", d+1)] = json.RawMessage(strconv.FormatInt(ax.Lo, 10))
		in[fmt.Sprintf("H%d", d+1)] = json.RawMessage(strconv.FormatInt(ax.Hi, 10))
	}
	return in
}

// oracleDecode runs the old decoder, which panics on a number in a bool
// array.
func oracleDecode(raw []byte, elem types.Type, axes []value.Axis) (arr *value.Array, panicked bool, err error) {
	defer func() {
		if recover() != nil {
			arr, panicked, err = nil, true, nil
		}
	}()
	arr, err = arrayFromJSON(raw, elem, axes)
	return arr, false, err
}

// inexactIntLeaf reports whether a valid JSON array holds a number that
// is not an exact int64 literal: the old decoder truncated those through
// float64, the scanner refuses them.
func inexactIntLeaf(raw []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if dec.Decode(&v) != nil {
		return false
	}
	var walk func(v any) bool
	walk = func(v any) bool {
		switch x := v.(type) {
		case []any:
			for _, item := range x {
				if walk(item) {
					return true
				}
			}
		case json.Number:
			_, err := strconv.ParseInt(string(x), 10, 64)
			return err != nil
		}
		return false
	}
	return walk(v)
}

// checkEncode compares the JSON of ResultsToJSON's row views of arr
// with that of the old boxed tree, byte for byte.
func checkEncode(t *testing.T, prog *ps.Program, arr *value.Array) {
	t.Helper()
	out, err := ps.ResultsToJSON(prog, "M", []any{arr})
	if err != nil {
		t.Fatal(err)
	}
	got, gerr := json.Marshal(out)
	want, werr := json.Marshal(map[string]any{"B": arrayToJSON(arr, make([]int64, 0, arr.Rank()))})
	if !bytes.Equal(got, want) || (gerr == nil) != (werr == nil) {
		t.Fatalf("encoding differs:\n got  %s (%v)\n want %s (%v)", got, gerr, want, werr)
	}
}

// FuzzArrayJSON holds the array scanner and the row-view encoder to the
// old nested-[]any path (json_oracle_test.go). kind picks real, int or
// bool elements; shape packs the rank (1 + bits 0-1 mod 3) and, per
// axis d, an extent 0..3 (bits 2+4d, 3+4d) and a lower bound -1..2
// (bits 4+4d, 5+4d). The scanner must accept exactly what the oracle
// accepts, into a bitwise-equal array, except for the oracle's two bugs,
// which it must refuse: a number in a bool array (the oracle panics)
// and an int element that is not an exact integer literal (the oracle
// truncated it through float64). Encoding must match byte for byte, both
// for accepted arrays and for the array filled with data's raw bits.
func FuzzArrayJSON(f *testing.F) {
	var progs [3][3]*ps.Program
	for k, elem := range arrayElems {
		for r := range progs[k] {
			progs[k][r] = compileCopy(f, elem, r+1)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, kind uint8, shape uint16) {
		k, rank := int(kind)%3, 1+int(shape&3)%3
		elem, prog := arrayElems[k], progs[k][rank-1]
		axes := make([]value.Axis, rank)
		for d := range axes {
			ext, lo := int64(shape>>(2+4*d)&3), int64(shape>>(4+4*d)&3)-1
			axes[d] = value.Axis{Lo: lo, Hi: lo + ext - 1}
		}
		in := boundInputs(axes)
		in["A"] = data

		want, panicked, werr := oracleDecode(data, elem, axes)
		args, err := ps.ArgsFromJSON(prog, "M", in)
		switch {
		case err != nil && panicked:
			if elem != types.Bool {
				t.Fatalf("oracle panicked on %s elements", elem)
			}
			return
		case err != nil && werr == nil:
			if elem != types.Int || !inexactIntLeaf(data) {
				t.Fatalf("refused what the oracle accepts: %v", err)
			}
			return
		case err != nil:
			return
		case werr != nil || panicked:
			t.Fatalf("accepted what the oracle refuses (%v, panicked %v)", werr, panicked)
		}

		got := args[len(args)-1].(*value.Array)
		for i := range want.F {
			a, b := got.F[i], want.F[i]
			if math.Float64bits(a) != math.Float64bits(b) && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("element %d: %v (%#x), oracle %v (%#x)", i, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		}
		for i := range want.I {
			// The oracle's int64(float64(v)) only differs where v has no
			// exact float64.
			if a := got.I[i]; a != want.I[i] && int64(float64(a)) == a {
				t.Fatalf("element %d: %d, oracle %d", i, a, want.I[i])
			}
		}
		for i := range want.B {
			if got.B[i] != want.B[i] {
				t.Fatalf("element %d: %v, oracle %v", i, got.B[i], want.B[i])
			}
		}
		checkEncode(t, prog, got)

		// The same shape over data's raw bits: NaN payloads, subnormals,
		// every int64.
		raw := value.NewArray(elem.Kind(), axes)
		word := func(i int) uint64 {
			var w uint64
			for j := 0; j < 8 && len(data) > 0; j++ {
				w = w<<8 | uint64(data[(8*i+j)%len(data)])
			}
			return w
		}
		for i := range raw.F {
			raw.F[i] = math.Float64frombits(word(i))
		}
		for i := range raw.I {
			raw.I[i] = int64(word(i))
		}
		for i := range raw.B {
			raw.B[i] = word(i)&1 == 1
		}
		checkEncode(t, prog, raw)
	})
}

// scalarParams are the parameters FuzzScalarJSON covers, one per scalar
// kind, with a valid input for each; their types stand in for the
// declared ones, whose kinds are all the oracle reads.
var scalarParams = []struct {
	name string
	typ  types.Type
	ok   string
}{
	{"R", types.Real, `1.5`},
	{"N", types.Int, `2`},
	{"B", types.Bool, `true`},
	{"C", types.Char, `113`},
	{"L", &types.Enum{Name: "Light", Consts: []string{"green", "yellow", "red"}}, `2`},
	{"W", types.String, `"w"`},
}

// FuzzScalarJSON holds the scalar decoder, the leaf scanner of the
// arrays, to the old one json.Unmarshal per scalar
// (json_oracle_test.go). kind picks the real, int, bool, char, enum or
// string parameter, which gets data as its input. The decoder must
// accept exactly what the oracle accepts, into an equal value, except
// null, which the oracle reads as the zero value and the decoder must
// refuse.
func FuzzScalarJSON(f *testing.F) {
	prog, err := newEngine(f).Compile("scalars.ps", `
S: module (R: real; N: int; B: bool; C: char; L: Light; W: string): [Z: int];
type
    Light = (green, yellow, red);
define
    Z = N;
end S;
`)
	if err != nil {
		f.Fatal(err)
	}
	for k, p := range scalarParams {
		for _, seed := range []string{p.ok, ` null `, `"NaN"`, `"\u004eaN"`, `1e400`, `-0`, `1.0`, "\"\xff\"", `"a\u00e9\ud800"`, `false `} {
			f.Add([]byte(seed), uint8(k))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, kind uint8) {
		k := int(kind) % len(scalarParams)
		in := make(map[string]json.RawMessage, len(scalarParams))
		for _, p := range scalarParams {
			in[p.name] = json.RawMessage(p.ok)
		}
		p := scalarParams[k]
		in[p.name] = data

		want, werr := scalarFromJSON(data, p.typ)
		args, err := ps.ArgsFromJSON(prog, "S", in)
		if strings.Trim(string(data), " \t\r\n") == "null" {
			if err == nil {
				t.Fatalf("%s: null accepted as %v", p.name, args[k])
			}
			return
		}
		if (err == nil) != (werr == nil) {
			t.Fatalf("%s: error %v, oracle %v", p.name, err, werr)
		}
		if err != nil {
			return
		}
		got := args[k]
		if a, isF := got.(float64); isF {
			b := want.(float64)
			if math.Float64bits(a) != math.Float64bits(b) && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("%s: %v (%#x), oracle %v (%#x)", p.name, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		} else if got != want {
			t.Fatalf("%s: %#v, oracle %#v", p.name, got, want)
		}
	})
}

// BenchmarkArrayJSON times both halves of the array wire format on the
// corpus's transport sizes: 2 050 reals in one row, and a 34×34 grid.
// Decode is ArgsFromJSON; encode is ResultsToJSON plus json.Marshal.
func BenchmarkArrayJSON(b *testing.B) {
	for _, c := range []struct {
		name string
		axes []value.Axis
	}{
		{"2050", []value.Axis{{Lo: 1, Hi: 2050}}},
		{"34x34", []value.Axis{{Lo: 0, Hi: 33}, {Lo: 0, Hi: 33}}},
	} {
		prog := compileCopy(b, types.Real, len(c.axes))
		arr := value.NewArray(types.RealKind, c.axes)
		for i := range arr.F {
			arr.F[i] = float64(i%97)/97 - 0.25
		}
		data, err := json.Marshal(map[string]any{"B": arrayToJSON(arr, nil)})
		if err != nil {
			b.Fatal(err)
		}
		var out map[string]json.RawMessage
		if err := json.Unmarshal(data, &out); err != nil {
			b.Fatal(err)
		}
		in := boundInputs(c.axes)
		in["A"] = out["B"]

		b.Run("decode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ps.ArgsFromJSON(prog, "M", in); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				res, err := ps.ResultsToJSON(prog, "M", []any{arr})
				if err == nil {
					_, err = json.Marshal(res)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
