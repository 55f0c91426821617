package interp_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/value"
)

// fusedShapes lists one expression per operand shape of a fused node,
// with the operator as %[1]s: R a direct read (X[I], Y[I]), T a subtree,
// L a literal (3 is an integer widened to real), S a hoisted scalar (s).
// Leaf pairs without a shape of their own (L ⊕ S, S ⊕ L, S ⊕ S) fuse as
// leaf ⊕ subtree, T ⊕ T fuses nothing, and the last case puts T ⊕ L
// below the root, where it does not fold into the store.
var fusedShapes = []string{
	"X[I] %[1]s Y[I]",               // R ⊕ R
	"(X[I] * Y[I]) %[1]s Y[I]",      // T ⊕ R
	"X[I] %[1]s (Y[I] - X[I])",      // R ⊕ T
	"X[I] %[1]s 1.5",                // R ⊕ L
	"1.5 %[1]s Y[I]",                // L ⊕ R
	"(X[I] + Y[I]) %[1]s 3",         // T ⊕ L
	"3 %[1]s (X[I] + Y[I])",         // L ⊕ T
	"X[I] %[1]s s",                  // R ⊕ S
	"s %[1]s Y[I]",                  // S ⊕ R
	"(X[I] - Y[I]) %[1]s s",         // T ⊕ S
	"s %[1]s (X[I] * Y[I])",         // S ⊕ T
	"2.0 %[1]s s",                   // L ⊕ S
	"s %[1]s 0.5",                   // S ⊕ L
	"s %[1]s s",                     // S ⊕ S
	"-X[I] %[1]s (Y[I] + 1.0)",      // T ⊕ T
	"0.0 + ((X[I] + Y[I]) %[1]s 3)", // T ⊕ L below the root
}

// fusedIntShapes is fusedShapes for integer comparisons: P[I], Q[I] int
// reads, t an int scalar, literals and integer subtrees.
var fusedIntShapes = []string{
	"P[I] %[1]s Q[I]",
	"(P[I] + 1) %[1]s Q[I]",
	"P[I] %[1]s (Q[I] - 1)",
	"P[I] %[1]s 2",
	"2 %[1]s Q[I]",
	"(P[I] * Q[I]) %[1]s 3",
	"3 %[1]s (P[I] * Q[I])",
	"P[I] %[1]s t",
	"t %[1]s Q[I]",
	"(P[I] - Q[I]) %[1]s t",
	"t %[1]s (P[I] + Q[I])",
	"1 %[1]s t",
	"-P[I] %[1]s (Q[I] + 0)",
}

// fusedModule builds one equation per operator family — real arithmetic,
// min/max, real and integer comparisons — whose K-th arm is the K-th
// case; the guards K = c are stationary along an I span, so each span
// runs one arm.
func fusedModule() (src string, cases, unfused [4]int) {
	var families [4][]string
	for _, op := range []string{"+", "-", "*", "/"} {
		for _, sh := range fusedShapes {
			families[0] = append(families[0], fmt.Sprintf(sh, op))
		}
	}
	for _, fn := range []string{"min", "max"} {
		for _, sh := range fusedShapes[:len(fusedShapes)-1] {
			l, r, _ := strings.Cut(fmt.Sprintf(sh, ","), ",")
			families[1] = append(families[1], fmt.Sprintf("%s(%s, %s)", fn, l, r))
		}
	}
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for _, sh := range fusedShapes[:len(fusedShapes)-1] {
			families[2] = append(families[2], fmt.Sprintf("if %s then 1.0 else -1.0", fmt.Sprintf(sh, op)))
		}
		for _, sh := range fusedIntShapes {
			families[3] = append(families[3], fmt.Sprintf("if %s then 1.0 else -1.0", fmt.Sprintf(sh, op)))
		}
	}
	var b strings.Builder
	b.WriteString(`Fused: module (X: array[I] of real; Y: array[I] of real; P: array[I] of int; Q: array[I] of int;
    N: int; s: real; t: int):
    [Ar: array[K1, I] of real; Mm: array[K2, I] of real; Cr: array[K3, I] of real; Ci: array[K4, I] of real];
type
    I = 1 .. N;
`)
	for f, fam := range families {
		cases[f] = len(fam)
		fmt.Fprintf(&b, "    K%d = 1 .. %d;\n", f+1, len(fam))
	}
	b.WriteString("define\n")
	for f, fam := range families {
		target := []string{"Ar", "Mm", "Cr", "Ci"}[f]
		fmt.Fprintf(&b, "    %s[K%d, I] =", target, f+1)
		for c, e := range fam[:len(fam)-1] {
			kw := "elsif"
			if c == 0 {
				kw = "if"
			}
			fmt.Fprintf(&b, "\n        %s K%d = %d then %s", kw, f+1, c+1, e)
		}
		fmt.Fprintf(&b, "\n        else %s;\n", fam[len(fam)-1])
	}
	b.WriteString("end Fused;\n")
	// One T ⊕ T arm per operator.
	return b.String(), cases, [4]int{4, 2, 6, 6}
}

// fusedInputs are the operands: NaNs of three payloads, ±Inf, ±0,
// subnormals, overflow, and ordinary values, each X beside a Y that
// exercises its edge (NaN ⊕ NaN with different payloads, Inf − Inf,
// −0 + 0, 0/0, a subnormal halved); P and Q agree and disagree in sign
// and order.
func fusedInputs() []any {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	negNaN := math.Float64frombits(0xfff8000000000003)
	inf, negZero, sub := math.Inf(1), math.Copysign(0, -1), math.SmallestNonzeroFloat64
	xs := []float64{nan1, nan1, negNaN, inf, inf, -inf, negZero, negZero, 0, sub, -sub, 4 * sub,
		1e308, -1e308, 2.2250738585072014e-308, 1.5, -2.5, 3, 0.1, 7}
	ys := []float64{nan2, 1, 2, inf, -inf, nan2, 0, negZero, 0, sub, 0.5, 0.25,
		1e308, 1e-308, 0.5, 1.5, 3, -3, 0.2, negZero}
	ps := []int64{0, 1, -1, 5, -5, 3, 3, 1 << 40, -(1 << 40), 7, 2, -2, 9, 0, 4, 6, -7, 1, 8, -3}
	qs := []int64{0, 2, -1, -5, 5, 3, -3, 1 << 40, 1 << 40, 6, 2, 2, -9, 1, 3, 6, 7, -1, 8, 3}
	n := int64(len(xs))
	ax := []value.Axis{{Lo: 1, Hi: n}}
	x, y := value.NewArray(types.RealKind, ax), value.NewArray(types.RealKind, ax)
	copy(x.F, xs)
	copy(y.F, ys)
	p, q := value.NewArray(types.IntKind, ax), value.NewArray(types.IntKind, ax)
	copy(p.I, ps)
	copy(q.I, qs)
	return []any{x, y, p, q, n, 0.75, int64(3)}
}

// TestFusedNodeParity compiles every fused operand shape of every
// operator — real + − × ÷, min, max, the six comparisons over reals and
// over integers — and requires each row of the jammed-span matrix to be
// bitwise equal to Sequential() on the checked kernels without the arena,
// on NaNs, infinities, signed zeros and subnormals. As everywhere in the
// parity contract, NaNs of any payload are equal: which payload x + y
// keeps when both are NaN is the machine's choice of destination
// register, which Go leaves to its register allocator. An operand swapped
// or reassociated anywhere else changes a zero's sign, an overflow or a
// rounding. Every instance of the default rows runs specialized and none
// of the others do, and every kernel reports fused nodes.
func TestFusedNodeParity(t *testing.T) {
	src, cases, unfused := fusedModule()
	ip := compileSrc(t, src)
	for _, ks := range ip.Kernels("Fused", plan.Options{}) {
		if !ks.Specialized {
			t.Fatalf("%s (%s) left the specializable fragment: %s", ks.Eq, ks.Target, ks.Reason)
		}
		// Every arm but T ⊕ T fuses its root or a node below it.
		f := strings.Index("ArMmCrCi", ks.Target) / 2
		if ks.Fused < cases[f]-unfused[f] {
			t.Errorf("%s (%s): %d fused nodes over %d arms", ks.Eq, ks.Target, ks.Fused, cases[f])
		}
	}
	args := fusedInputs()
	var refStats interp.Stats
	want, err := ip.Run("Fused", args, interp.Options{Sequential: true, NoSpecialize: true, NoArena: true, Stats: &refStats})
	if err != nil {
		t.Fatal(err)
	}
	eqs := refStats.EqInstances.Load()
	if n := int64(len(args[0].(*value.Array).F)); eqs != n*int64(cases[0]+cases[1]+cases[2]+cases[3]) {
		t.Fatalf("reference ran %d instances", eqs)
	}
	for _, row := range jamRows(t) {
		var st interp.Stats
		opts := row.opts
		opts.Stats = &st
		got, err := ip.Run("Fused", args, opts)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		for r := range want {
			g, w := got[r].(*value.Array), want[r].(*value.Array)
			for i := range w.F {
				if gb, wb := math.Float64bits(g.F[i]), math.Float64bits(w.F[i]); gb != wb && !(math.IsNaN(g.F[i]) && math.IsNaN(w.F[i])) {
					t.Errorf("%s: result %d element %d = %#x, want %#x", row.name, r, i, math.Float64bits(g.F[i]), math.Float64bits(w.F[i]))
				}
			}
		}
		if got := st.EqInstances.Load(); got != eqs {
			t.Errorf("%s ran %d equation instances, the reference %d", row.name, got, eqs)
		}
		spec, wantSpec := st.Specialized.Load(), int64(0)
		if row.spec {
			wantSpec = eqs
		}
		if spec != wantSpec {
			t.Errorf("%s: Specialized = %d, want %d of %d", row.name, spec, wantSpec, eqs)
		}
	}
}
