package interp_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/value"
)

// TestScalarEquations covers modules computing only scalars.
func TestScalarEquations(t *testing.T) {
	src := `
Scalars: module (x: real; n: int): [y: real; m: int; flag: bool];
define
    y = sqrt(x) + float(n) / 2.0;
    m = n * n - 1;
    flag = (x > 1.0) and not (n = 0);
end Scalars;
`
	ip := compileSrc(t, src)
	res, err := ip.Run("Scalars", []any{4.0, 6}, interp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if y := res[0].(float64); y != 2.0+3.0 {
		t.Errorf("y = %g, want 5", y)
	}
	if m := res[1].(int64); m != 35 {
		t.Errorf("m = %d, want 35", m)
	}
	if flag := res[2].(bool); !flag {
		t.Error("flag = false, want true")
	}
}

// TestScalarDependencyOrder verifies scalar chains execute in dependence
// order regardless of source order.
func TestScalarDependencyOrder(t *testing.T) {
	src := `
Chain: module (x: int): [d: int];
var a, b, c: int;
define
    d = c + 1;
    c = b * 2;
    a = x + 1;
    b = a + a;
end Chain;
`
	ip := compileSrc(t, src)
	res, err := ip.Run("Chain", []any{3}, interp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// a=4, b=8, c=16, d=17.
	if d := res[0].(int64); d != 17 {
		t.Errorf("d = %d, want 17", d)
	}
}

// TestEnumValues covers enum constants, comparisons and array storage.
func TestEnumValues(t *testing.T) {
	src := `
Lights: module (n: int): [firstRed: int];
type
    Color = (green, yellow, red);
    I = 1 .. n;
var
    Seq: array [1 .. n] of Color;
    Hits: array [1 .. n] of int;
define
    Seq[I] = if I mod 3 = 0 then red elsif I mod 3 = 1 then green else yellow;
    Hits[I] = if Seq[I] = red then I else 0;
    firstRed = Hits[3];
end Lights;
`
	ip := compileSrc(t, src)
	res, err := ip.Run("Lights", []any{9}, interp.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int64); got != 3 {
		t.Errorf("firstRed = %d, want 3", got)
	}
}

// TestCharAndString covers the remaining scalar kinds.
func TestCharAndString(t *testing.T) {
	src := `
Chars: module (c: char; s: string): [up: bool; same: bool; o: int];
define
    up = (c >= 'a') and (c <= 'z');
    same = s = 'hello';
    o = ord(c);
end Chars;
`
	ip := compileSrc(t, src)
	res, err := ip.Run("Chars", []any{int64('q'), "hello"}, interp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].(bool) || !res[1].(bool) {
		t.Errorf("up=%v same=%v", res[0], res[1])
	}
	if res[2].(int64) != int64('q') {
		t.Errorf("ord = %d", res[2])
	}
}

// TestRecordParams covers record-typed parameters and field selection.
func TestRecordParams(t *testing.T) {
	src := `
Mag: module (p: Point): [r: real];
type Point = record x, y: real end;
define
    r = sqrt(p.x * p.x + p.y * p.y);
end Mag;
`
	ip := compileSrc(t, src)
	rt := &types.Record{Fields: []*types.RecField{
		{Name: "x", Type: types.Real}, {Name: "y", Type: types.Real},
	}}
	rec := &value.Record{Type: rt, Fields: []any{3.0, 4.0}}
	res, err := ip.Run("Mag", []any{rec}, interp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := res[0].(float64); r != 5.0 {
		t.Errorf("r = %g, want 5", r)
	}
}

// TestMultiResultCall covers multi-target equations.
func TestMultiResultCall(t *testing.T) {
	src := `
Main: module (x: real): [hi: real; lo: real];
define
    hi, lo = MinMax(x);
end Main;
MinMax: module (x: real): [a: real; b: real];
define
    a = x + 1.0;
    b = x - 1.0;
end MinMax;
`
	ip := compileSrc(t, src)
	res, err := ip.Run("Main", []any{10.0}, interp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(float64) != 11 || res[1].(float64) != 9 {
		t.Errorf("got %v, %v", res[0], res[1])
	}
}

// TestExpressionLevelModuleCall covers scalar module calls inside
// expressions (evaluated per element), one per scalar result kind: a
// bool-returning call used to fail to compile.
func TestExpressionLevelModuleCall(t *testing.T) {
	src := `
Caller: module (N: int): [Ys: array [I] of real; Ns: array [I] of int; Bs: array [I] of real];
type I = 1 .. N;
define
    Ys[I] = Square(float(I)) + 0.5;
    Ns[I] = Twice(I) + 1;
    Bs[I] = if IsBig(float(I)) then 1.0 else 0.0;
end Caller;
Square: module (x: real): [y: real];
define
    y = x * x;
end Square;
Twice: module (n: int): [m: int];
define
    m = 2 * n;
end Twice;
IsBig: module (x: real): [b: bool];
define
    b = x > 2.5;
end IsBig;
`
	ip := compileSrc(t, src)
	res, err := ip.Run("Caller", []any{4}, interp.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ys, ns, bs := res[0].(*value.Array), res[1].(*value.Array), res[2].(*value.Array)
	for i := int64(1); i <= 4; i++ {
		idx := []int64{i}
		if got, want := ys.GetF(idx), float64(i*i)+0.5; got != want {
			t.Errorf("Ys[%d] = %g, want %g", i, got, want)
		}
		if got, want := ns.GetI(idx), 2*i+1; got != want {
			t.Errorf("Ns[%d] = %d, want %d", i, got, want)
		}
		want := 0.0
		if i >= 3 {
			want = 1.0
		}
		if got := bs.GetF(idx); got != want {
			t.Errorf("Bs[%d] = %g, want %g", i, got, want)
		}
	}
	// Module calls stay outside the direct addressing mode.
	for _, ks := range ip.Kernels("Caller", plan.Options{}) {
		if ks.Specialized || !strings.Contains(ks.Reason, "is not a specializable builtin") {
			t.Errorf("%s: specialized=%v reason=%q, want a module-call bail", ks.Eq, ks.Specialized, ks.Reason)
		}
	}
}

// TestBuiltinValues spot-checks builtin evaluation.
func TestBuiltinValues(t *testing.T) {
	src := `
B: module (x: real; n: int): [a: real; b: real; c: int; d: int; e: real];
define
    a = max(min(x, 10.0), -10.0);
    b = pow(2.0, float(n)) + exp(0.0) + ln(1.0) + sin(0.0) + cos(0.0);
    c = trunc(3.9) + round(3.4) + abs(-5);
    d = min(max(n, 0), 100);
    e = abs(-2.5);
end B;
`
	ip := compileSrc(t, src)
	res, err := ip.Run("B", []any{42.0, 3}, interp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(float64) != 10 {
		t.Errorf("a = %v", res[0])
	}
	if res[1].(float64) != 8+1+0+0+1 {
		t.Errorf("b = %v", res[1])
	}
	if res[2].(int64) != 3+3+5 {
		t.Errorf("c = %v", res[2])
	}
	if res[3].(int64) != 3 {
		t.Errorf("d = %v", res[3])
	}
	if res[4].(float64) != 2.5 {
		t.Errorf("e = %v", res[4])
	}
}

// TestDivisionByZero covers runtime integer division errors.
func TestDivisionByZero(t *testing.T) {
	src := `
D: module (n: int): [y: int];
define y = 10 div n; end D;
`
	ip := compileSrc(t, src)
	if _, err := ip.Run("D", []any{0}, interp.Options{Workers: 1}); err == nil {
		t.Error("division by zero not reported")
	} else if !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("unexpected error %v", err)
	}
	if res, err := ip.Run("D", []any{3}, interp.Options{Workers: 1}); err != nil || res[0].(int64) != 3 {
		t.Errorf("10 div 3: %v, %v", res, err)
	}
}

// TestArgumentValidation covers Run argument checking.
func TestArgumentValidation(t *testing.T) {
	src := `
V: module (x: real): [y: real];
define y = x; end V;
`
	ip := compileSrc(t, src)
	if _, err := ip.Run("V", []any{}, interp.Options{}); err == nil {
		t.Error("missing arguments accepted")
	}
	if _, err := ip.Run("V", []any{"nope"}, interp.Options{}); err == nil {
		t.Error("wrong-typed argument accepted")
	}
	if _, err := ip.Run("NoSuch", []any{1.0}, interp.Options{}); err == nil {
		t.Error("missing module accepted")
	}
}

// TestIntToRealWidening covers implicit widening in mixed arithmetic.
func TestIntToRealWidening(t *testing.T) {
	src := `
W: module (n: int): [y: real];
define y = n + 0.5; end W;
`
	ip := compileSrc(t, src)
	res, err := ip.Run("W", []any{7}, interp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(float64); math.Abs(got-7.5) > 0 {
		t.Errorf("y = %g", got)
	}
}

// TestBoolArrays covers boolean element storage end to end.
func TestBoolArrays(t *testing.T) {
	src := `
Flags: module (N: int): [Odd: array [I] of bool];
type I = 0 .. N;
define Odd[I] = I mod 2 = 1; end Flags;
`
	ip := compileSrc(t, src)
	res, err := ip.Run("Flags", []any{6}, interp.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	odd := res[0].(*value.Array)
	for i := int64(0); i <= 6; i++ {
		if odd.GetB([]int64{i}) != (i%2 == 1) {
			t.Errorf("Odd[%d] wrong", i)
		}
	}
}

// TestIntArrays covers integer element arrays and int expressions.
func TestIntArrays(t *testing.T) {
	src := `
Tri: module (N: int): [T: array [I] of int];
type I = 1 .. N; I2 = 2 .. N;
define
    T[1] = 1;
    T[I2] = T[I2-1] + I2;
end Tri;
`
	ip := compileSrc(t, src)
	res, err := ip.Run("Tri", []any{6}, interp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tri := res[0].(*value.Array)
	for i := int64(1); i <= 6; i++ {
		if got := tri.GetI([]int64{i}); got != i*(i+1)/2 {
			t.Errorf("T[%d] = %d, want %d", i, got, i*(i+1)/2)
		}
	}
}
