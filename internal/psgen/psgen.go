// Package psgen is a seeded, eligibility-aware random generator of
// well-typed PS programs, plus the differential harness that
// cross-checks every execution variant (and the emitted C) on the
// programs it generates.
//
// "Eligibility-aware" means generation is organized by target backend:
// each Class composes DO nests, constant-offset recurrences and
// boundary initializers whose dependence-vector sets deterministically
// land the scheduler selection cascade in one backend — DOALL,
// single-equation wavefront, multi-equation wavefront, doacross-
// favoured wavefront geometry, or rejected/sequential — so a bounded
// campaign provably reaches every executor path. Orthogonal knobs add §5-fusable sibling pairs, integer inputs,
// and deliberate escapes from the specializer's recognized body grammar
// (non-affine subscripts, non-finite arithmetic) so the generic checked
// kernels and the non-finite JSON/C conventions are exercised too.
//
// Everything is a pure function of (Seed, Class): Generate is
// deterministic, and Render emits the same source for the same Spec,
// which is what makes shrunken counterexamples reproducible from a
// one-line seed.
package psgen

import (
	"fmt"
	"strconv"
	"strings"
)

// Class selects the scheduler-cascade backend a generated program is
// constructed to reach.
type Class int

const (
	// ClassDOALL generates pointwise programs with no loop-carried
	// dependence: every nest lowers to a (possibly fused) DOALL.
	ClassDOALL Class = iota
	// ClassWavefront generates a single-equation constant-offset
	// recurrence whose dependence vectors make every dimension of the
	// nest sequential and admit a hyperplane time vector.
	ClassWavefront
	// ClassMultiWavefront generates two mutually recursive equations
	// whose union dependence set admits one time vector — the §4
	// multi-equation analysis (and, for the split-nest pattern, the
	// cascade's fusion step).
	ClassMultiWavefront
	// ClassDoacross is wavefront-eligible geometry with wider planes,
	// so that the Grain(1) rows put the nest on the doacross (tile)
	// schedule.
	ClassDoacross
	// ClassPipeline generates a recurrence with a reflected-column read
	// (not a constant offset, so the wavefront analysis refuses and the
	// nest stays sequential) plus downstream DOALL consumers of its rows.
	// It is named for the decoupled-pipeline backend that shape once
	// targeted; it remains the generator's only sequential producer with
	// a non-affine read feeding DOALL consumers, the shape behind the
	// pinned §3.4 window regression (testdata/fuzz/seed5_pipeline).
	ClassPipeline
	// ClassSequential generates a 1-D first- or (odd Pattern) second-
	// order recurrence with a boundary initializer equation and a
	// consumer iterating a different subrange: every backend declines and
	// the DO loop survives (the cascade's rejected/sequential witness). Its
	// single-equation DO runs as one span under Sequential.
	ClassSequential
	// NumClasses is the number of generator classes.
	NumClasses
)

// String names the class the way the generation report counts it.
func (c Class) String() string {
	switch c {
	case ClassDOALL:
		return "doall"
	case ClassWavefront:
		return "wavefront"
	case ClassMultiWavefront:
		return "multi-wavefront"
	case ClassDoacross:
		return "doacross"
	case ClassPipeline:
		return "pipeline"
	case ClassSequential:
		return "sequential"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Escape selects a deliberate exit from the specializer's recognized
// body grammar (or from finite arithmetic), applied to a consumer
// equation so the class's backend eligibility is preserved.
type Escape int

const (
	// EscapeNone leaves every body inside the specializable grammar.
	EscapeNone Escape = iota
	// EscapeReflect reads the seed through a reflected subscript
	// (lo+hi-J): slope −1 along the row, the negative-slope case of the
	// direct kernels, whose accesses walk the row backwards.
	EscapeReflect
	// EscapeNaN adds a (s-s)/(s-s) term: NaN at every point,
	// exercising the non-finite JSON spellings and C printf parity.
	EscapeNaN
	// EscapeMinMaxNaN feeds a NaN operand to min(): the regression
	// witness for Go math.Min (NaN-propagating) vs C fmin
	// (NaN-ignoring) semantics in generated code.
	EscapeMinMaxNaN
	// EscapeWrap reads the seed through a mod subscript kept in range
	// ((J+1-lo) mod ext + lo): not affine, so the specializer bails and
	// the equation runs on the generic checked kernel.
	EscapeWrap
	// NumEscapes is the number of escape kinds.
	NumEscapes
)

// String names the escape for reports.
func (e Escape) String() string {
	switch e {
	case EscapeNone:
		return "none"
	case EscapeReflect:
		return "reflect"
	case EscapeNaN:
		return "nan"
	case EscapeMinMaxNaN:
		return "minmax-nan"
	case EscapeWrap:
		return "wrap"
	}
	return fmt.Sprintf("escape(%d)", int(e))
}

// Dim is one iteration dimension of the generated nest, with literal
// bounds (literal bounds keep the C-side geometry static and make the
// shrinker a pure Spec rewrite).
type Dim struct {
	Name   string
	Lo, Hi int64
}

func (d Dim) extent() int64 { return d.Hi - d.Lo + 1 }

// Spec is the full description of one generated program: rendering it
// (Render) and building its inputs (Inputs) are deterministic, so a
// Spec — or just its (Seed, Class) pair — is a complete repro.
type Spec struct {
	Seed  uint64
	Class Class
	// Dims are the main nest's dimensions, outermost first.
	Dims []Dim
	// Deps are the recurrence's dependence distance vectors (one per
	// self-read), in the Dims order. Empty for ClassDOALL.
	Deps [][]int64
	// Coefs are the body's dyadic constants (k/8, exact in decimal and
	// in float64, so source round-trips bitwise).
	Coefs [4]float64
	// Pattern selects among the class's body shapes.
	Pattern int
	// Sibling adds a §5-fusable sibling output equation over the same
	// nest.
	Sibling bool
	// SiblingRead makes the sibling read the primary output Out: 0 not at
	// all, 1 at distance 0 (the cascade fuses the two DOALLs), 2 one
	// iteration back along the first dimension (fusing them would race
	// across chunks, so they must stay apart).
	SiblingRead int
	// IntInput adds an integer array parameter read through float()
	// (ClassDOALL only).
	IntInput bool
	// Consumers is the number of downstream DOALL consumer equations
	// (ClassPipeline: 1 or 2; the recurrence classes always have 1).
	Consumers int
	// Escape is the specializer/finite-arithmetic escape applied to a
	// consumer equation.
	Escape Escape
	// Guard selects the form of the recurrences' boundary guards, all
	// span-affine so the span splitter cuts them: 0 equality disjuncts
	// (I = lo) or …, 1 ranges (I <= lo+p-1) or (I >= hi-n+1), 2 the
	// negated interior not ((I > …) and (I < …) and …), 3 an elsif
	// chain with one arm per dimension.
	Guard int
}

// rng is splitmix64: tiny, seedable, and stable across Go versions —
// the properties a repro seed needs (math/rand makes no cross-version
// stream guarantee).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangeI returns a value in [lo, hi] inclusive.
func (r *rng) rangeI(lo, hi int64) int64 { return lo + int64(r.next()%uint64(hi-lo+1)) }

// coef returns a dyadic constant in (0, 2] with denominator 8.
func (r *rng) coef() float64 { return float64(1+r.intn(16)) / 8.0 }

var dimNames = []string{"I", "J", "K"}

// depPools2D are the 2-D dependence-vector sets known to keep both
// nest levels sequential (every dimension carries a dependence) while
// admitting a hyperplane time vector; the harness reads the actual π
// back from the lowered plan rather than predicting it.
var depPools2D = [][][]int64{
	{{1, 0}, {0, 1}},
	{{1, 0}, {0, 1}, {1, 1}},
	{{1, -1}, {0, 1}},
	{{1, 1}, {0, 1}},
	{{2, 1}, {0, 1}},
	{{1, -1}, {1, 1}, {0, 1}},
}

// depPools3D is the 3-D analogue: each dimension k has a vector whose
// first nonzero component is at k, so the §3.3 recursion keeps the
// whole nest iterative.
var depPools3D = [][][]int64{
	{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
	{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}},
	{{1, 0, 0}, {0, 1, -1}, {0, 0, 1}},
}

// skewPools, by nest depth, are dependence sets whose tiling skew adds
// an outer coordinate with a factor other than 0 or 1 ({(1,−2),(0,1)}
// needs J+2I), or skews several coordinates at once (Gauss–Seidel's
// union needs (K, I+K, J+K)).
var skewPools = map[int][][]int64{
	2: {{1, -2}, {0, 1}},
	3: {{1, 0, -1}, {1, -1, 0}, {0, 1, 0}, {0, 0, 1}},
}

// Generate builds the Spec for one (seed, class) pair. The same pair
// always yields the same Spec.
func Generate(seed uint64, class Class) Spec {
	r := &rng{s: seed ^ uint64(class)*0xa5a5a5a5a5a5a5a5}
	sp := Spec{Seed: seed, Class: class, Consumers: 1}
	for i := range sp.Coefs {
		sp.Coefs[i] = r.coef()
	}
	sp.Pattern = r.intn(4)
	sp.Sibling = r.intn(3) == 0
	lo := int64(r.intn(2)) // 0 or 1

	dims := func(n int, minExt, maxExt int64) {
		for k := 0; k < n; k++ {
			sp.Dims = append(sp.Dims, Dim{Name: dimNames[k], Lo: lo, Hi: lo + r.rangeI(minExt, maxExt) - 1})
		}
	}

	switch class {
	case ClassDOALL:
		dims(1+r.intn(3), 4, 7)
		sp.IntInput = r.intn(2) == 0
		sp.Escape = Escape(r.intn(int(NumEscapes)))
	case ClassWavefront, ClassDoacross:
		n := 2
		if class == ClassWavefront && r.intn(3) == 0 {
			n = 3
		}
		if n == 2 {
			if class == ClassDoacross {
				dims(2, 8, 12) // wider planes: several tiles per plane
			} else {
				dims(2, 4, 7)
			}
			sp.Deps = depPools2D[r.intn(len(depPools2D))]
		} else {
			dims(3, 4, 5)
			sp.Deps = depPools3D[r.intn(len(depPools3D))]
		}
		sp.Escape = consumerEscape(r)
	case ClassMultiWavefront:
		dims(2, 4, 7)
		sp.Pattern = r.intn(2) // 0: coupled cross-reads; 1: split nests the cascade fuses
		sp.Escape = consumerEscape(r)
	case ClassPipeline:
		dims(2, 4, 7)
		sp.Consumers = 1 + r.intn(2)
		sp.Escape = consumerEscape(r)
	case ClassSequential:
		dims(1, 6, 10)
		sp.Escape = consumerEscape(r)
	}
	// Drawn last, so every earlier draw — and every pinned spec, which
	// loads with Guard 0 and SiblingRead 0 — renders as before.
	sp.Guard = r.intn(4)
	sp.SiblingRead = r.intn(3)
	// Drawn after SiblingRead for the same reason.
	if r.intn(4) == 0 && (class == ClassWavefront || class == ClassDoacross) {
		sp.Deps = skewPools[len(sp.Dims)]
	}
	return sp
}

// consumerEscape picks the escape for recurrence classes; weighted
// toward none so most programs stay on the specialized kernels.
func consumerEscape(r *rng) Escape {
	if r.intn(2) == 0 {
		return EscapeNone
	}
	return Escape(1 + r.intn(int(NumEscapes)-1))
}

// RandomSpec derives both the class and the knobs from one seed.
func RandomSpec(seed uint64) Spec {
	r := rng{s: seed}
	return Generate(seed, Class(r.intn(int(NumClasses))))
}

// ModuleName is the module every generated program declares.
const ModuleName = "Gen"

// lit renders a real constant as a PS real literal (the coefficient
// pool is dyadic, so the decimal form is exact).
func lit(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// sub renders an index term Name±offset for a dependence component.
func sub(name string, off int64) string {
	switch {
	case off > 0:
		return fmt.Sprintf("%s-%d", name, off)
	case off < 0:
		return fmt.Sprintf("%s+%d", name, -off)
	}
	return name
}

// idxList renders "I,J,K" for the spec's dims.
func (sp *Spec) idxList() string {
	names := make([]string, len(sp.Dims))
	for i, d := range sp.Dims {
		names[i] = d.Name
	}
	return strings.Join(names, ",")
}

// readAt renders Arr[I-d0, J-d1, ...] for a dependence vector.
func (sp *Spec) readAt(arr string, dep []int64) string {
	terms := make([]string, len(sp.Dims))
	for i, d := range sp.Dims {
		terms[i] = sub(d.Name, dep[i])
	}
	return fmt.Sprintf("%s[%s]", arr, strings.Join(terms, ","))
}

// guardDims renders the boundary predicate covering every read of the
// given dependence vectors, one entry per dimension that needs one: the
// first maxPositive points (reads at D-p) and the last maxNegative
// points (reads at D+n). Guard 0 and 3 write equality disjuncts, 1 two
// ranges, and 2 the interior conjuncts its caller negates. The bounds
// are literal, so every comparison is literal.
func (sp *Spec) guardDims(deps [][]int64) []string {
	var dims []string
	for k, d := range sp.Dims {
		var pos, neg int64
		for _, dep := range deps {
			if dep[k] > pos {
				pos = dep[k]
			}
			if -dep[k] > neg {
				neg = -dep[k]
			}
		}
		var terms []string
		switch sp.Guard {
		case 1:
			if pos > 0 {
				terms = append(terms, fmt.Sprintf("(%s <= %d)", d.Name, d.Lo+pos-1))
			}
			if neg > 0 {
				terms = append(terms, fmt.Sprintf("(%s >= %d)", d.Name, d.Hi-neg+1))
			}
		case 2:
			if pos > 0 {
				terms = append(terms, fmt.Sprintf("(%s > %d)", d.Name, d.Lo+pos-1))
			}
			if neg > 0 {
				terms = append(terms, fmt.Sprintf("(%s < %d)", d.Name, d.Hi-neg+1))
			}
		default:
			for o := int64(0); o < pos; o++ {
				terms = append(terms, fmt.Sprintf("(%s = %d)", d.Name, d.Lo+o))
			}
			for o := int64(0); o < neg; o++ {
				terms = append(terms, fmt.Sprintf("(%s = %d)", d.Name, d.Hi-o))
			}
		}
		if len(terms) > 0 {
			join := " or "
			if sp.Guard == 2 {
				join = " and "
			}
			dims = append(dims, strings.Join(terms, join))
		}
	}
	return dims
}

// guard renders the whole boundary predicate for deps.
func (sp *Spec) guard(deps [][]int64) string {
	dims := sp.guardDims(deps)
	switch {
	case len(dims) == 0:
		return "false"
	case sp.Guard == 2:
		return fmt.Sprintf("not (%s)", strings.Join(dims, " and "))
	}
	return strings.Join(dims, " or ")
}

// boundary renders "if <guard> then <then>" for deps — under Guard 3 an
// elsif chain, one arm per dimension — with sep before each keyword
// after the first; the caller appends the else arm.
func (sp *Spec) boundary(deps [][]int64, then, sep string) string {
	dims := sp.guardDims(deps)
	if sp.Guard != 3 || len(dims) < 2 {
		return fmt.Sprintf("if %s%sthen %s", sp.guard(deps), sep, then)
	}
	arms := make([]string, len(dims))
	for i, g := range dims {
		arms[i] = fmt.Sprintf("%s%sthen %s", g, sep, then)
	}
	return "if " + strings.Join(arms, sep+"elsif ")
}

// escapeTerm renders the escape's contribution to a consumer body
// whose base expression is base (a real-valued expression over the
// full nest).
func (sp *Spec) escapeTerm(base string) string {
	switch sp.Escape {
	case EscapeReflect, EscapeWrap:
		last := sp.Dims[len(sp.Dims)-1]
		terms := make([]string, len(sp.Dims))
		for i, d := range sp.Dims {
			terms[i] = d.Name
		}
		if sp.Escape == EscapeReflect {
			terms[len(terms)-1] = fmt.Sprintf("%d-%s", last.Lo+last.Hi, last.Name)
		} else {
			terms[len(terms)-1] = fmt.Sprintf("(%s) mod %d + %d", sub(last.Name, last.Lo-1), last.Hi-last.Lo+1, last.Lo)
		}
		return fmt.Sprintf("%s + %s * Seed[%s]", base, lit(sp.Coefs[3]), strings.Join(terms, ","))
	case EscapeNaN:
		nan := fmt.Sprintf("(%s - %s) / (%s - %s)", base, base, base, base)
		return fmt.Sprintf("%s + %s", base, nan)
	case EscapeMinMaxNaN:
		nan := fmt.Sprintf("(%s - %s) / (%s - %s)", base, base, base, base)
		return fmt.Sprintf("min(%s, %s)", base, nan)
	}
	return base
}

// Render emits the program source for the spec.
func (sp *Spec) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(* psgen seed=%d class=%s escape=%s *)\n", sp.Seed, sp.Class, sp.Escape)
	idx := sp.idxList()

	// Header: params, results.
	params := []string{fmt.Sprintf("Seed: array[%s] of real", idx)}
	if sp.IntInput {
		params = append(params, fmt.Sprintf("W: array[%s] of int", sp.Dims[0].Name))
	}
	results := []string{fmt.Sprintf("Out: array[%s] of real", idx)}
	if sp.Sibling {
		results = append(results, fmt.Sprintf("Out2: array[%s] of real", idx))
	}
	if sp.Class == ClassPipeline && sp.Consumers > 1 {
		results = append(results, fmt.Sprintf("Out3: array[%s] of real", idx))
	}
	fmt.Fprintf(&b, "%s: module (%s):\n    [%s];\n", ModuleName, strings.Join(params, "; "), strings.Join(results, "; "))

	// Subranges. ClassSequential adds the shifted consumer subrange.
	b.WriteString("type\n")
	for _, d := range sp.Dims {
		fmt.Fprintf(&b, "    %s = %d .. %d;\n", d.Name, d.Lo, d.Hi)
	}
	if sp.Class == ClassSequential {
		d := sp.Dims[0]
		fmt.Fprintf(&b, "    I2 = %d .. %d;\n", d.Lo+1, d.Hi)
	}

	// Locals.
	locals := sp.localArrays()
	if len(locals) > 0 {
		b.WriteString("var\n")
		for _, v := range locals {
			fmt.Fprintf(&b, "    %s: array[%s] of real;\n", v, idx)
		}
	}

	b.WriteString("define\n")
	sp.renderBody(&b)
	fmt.Fprintf(&b, "end %s;\n", ModuleName)
	return b.String()
}

// localArrays names the spec's local recurrence arrays.
func (sp *Spec) localArrays() []string {
	switch sp.Class {
	case ClassWavefront, ClassDoacross, ClassSequential:
		return []string{"X"}
	case ClassMultiWavefront, ClassPipeline:
		return []string{"X", "Y"}
	}
	return nil
}

// renderBody emits the define section per class.
func (sp *Spec) renderBody(b *strings.Builder) {
	idx := sp.idxList()
	c := sp.Coefs
	seed := fmt.Sprintf("Seed[%s]", idx)

	switch sp.Class {
	case ClassDOALL:
		var body string
		switch sp.Pattern {
		case 0:
			body = fmt.Sprintf("%s * %s + %s", lit(c[0]), seed, lit(c[1]))
		case 1:
			body = fmt.Sprintf("sqrt(abs(%s)) + %s", seed, lit(c[0]))
		case 2:
			body = fmt.Sprintf("min(%s, %s) + max(%s, %s)", seed, lit(c[0]), seed, lit(c[1]))
		default:
			body = fmt.Sprintf("if %s > %s then %s * %s else %s - %s",
				seed, lit(c[0]), lit(c[1]), seed, seed, lit(c[2]))
		}
		if sp.IntInput {
			body = fmt.Sprintf("%s + float(W[%s]) * %s", body, sp.Dims[0].Name, lit(c[3]))
		}
		fmt.Fprintf(b, "    Out[%s] = %s;\n", idx, sp.escapeTerm(body))

	case ClassWavefront, ClassDoacross:
		reads := make([]string, 0, len(sp.Deps)+1)
		for _, dep := range sp.Deps {
			reads = append(reads, sp.readAt("X", dep))
		}
		reads = append(reads, seed)
		rec := fmt.Sprintf("(%s) / %s.0", strings.Join(reads, " + "), strconv.Itoa(len(reads)))
		if sp.Pattern%2 == 1 {
			// Weighted variant: coefficients instead of the mean.
			parts := make([]string, len(reads))
			for i, rd := range reads {
				parts[i] = fmt.Sprintf("%s * %s", lit(c[i%3]/2), rd)
			}
			rec = strings.Join(parts, " + ")
		}
		fmt.Fprintf(b, "    X[%s] = %s\n             else %s;\n",
			idx, sp.boundary(sp.Deps, seed, "\n             "), rec)
		fmt.Fprintf(b, "    Out[%s] = %s;\n", idx, sp.escapeTerm(fmt.Sprintf("X[%s]", idx)))

	case ClassMultiWavefront:
		var uDeps, vDeps [][]int64
		var uReads, vReads []string
		if sp.Pattern == 0 {
			// Coupled cross-reads: union {(1,-1),(0,1)}, both equations
			// in one inner body.
			uDeps = [][]int64{{1, -1}, {0, 1}}
			vDeps = uDeps
			uReads = []string{sp.readAt("X", []int64{1, -1}), sp.readAt("Y", []int64{0, 1})}
			vReads = []string{sp.readAt("Y", []int64{1, -1}), sp.readAt("X", []int64{0, 1})}
		} else {
			// Mutual split-nest: each equation self-depends at the inner
			// level and cross-reads the other at (1,0), so the scheduler
			// splits the component into sibling sequential nests; the
			// cascade's fusion step rejoins them because the union
			// {(1,0),(0,1)} admits a π.
			uDeps = [][]int64{{1, 0}, {0, 1}}
			vDeps = uDeps
			uReads = []string{sp.readAt("Y", []int64{1, 0}), sp.readAt("X", []int64{0, 1})}
			vReads = []string{sp.readAt("X", []int64{1, 0}), sp.readAt("Y", []int64{0, 1})}
		}
		deps := append(append([][]int64{}, uDeps...), vDeps...)
		fmt.Fprintf(b, "    X[%s] = %s\n             else (%s + %s) / %d.0;\n",
			idx, sp.boundary(deps, seed, " "), strings.Join(uReads, " + "), seed, len(uReads)+1)
		fmt.Fprintf(b, "    Y[%s] = %s\n             else (%s + %s) / %d.0;\n",
			idx, sp.boundary(deps, lit(c[0])+" * "+seed, " "), strings.Join(vReads, " + "), seed, len(vReads)+1)
		fmt.Fprintf(b, "    Out[%s] = %s;\n", idx, sp.escapeTerm(fmt.Sprintf("X[%s] + Y[%s]", idx, idx)))

	case ClassPipeline:
		last := sp.Dims[1]
		reflect := fmt.Sprintf("X[%s, %d-%s]", sub(sp.Dims[0].Name, 1), last.Lo+last.Hi, last.Name)
		deps := [][]int64{{1, 0}, {0, 1}}
		fmt.Fprintf(b, "    X[%s] = %s\n             else (%s + %s) / 2.0;\n",
			idx, sp.boundary(deps, seed, " "), sp.readAt("X", []int64{1, 0}), sp.readAt("Y", []int64{0, 1}))
		fmt.Fprintf(b, "    Y[%s] = %s\n             else (%s + %s + %s) / 3.0;\n",
			idx, sp.boundary(deps, lit(c[0])+" * "+seed, " "), sp.readAt("Y", []int64{1, 0}), sp.readAt("X", []int64{0, 1}), reflect)
		fmt.Fprintf(b, "    Out[%s] = %s;\n", idx, sp.escapeTerm(fmt.Sprintf("%s * X[%s]", lit(c[1]), idx)))
		if sp.Consumers > 1 {
			fmt.Fprintf(b, "    Out3[%s] = Y[%s] + %s;\n", idx, idx, lit(c[2]))
		}

	case ClassSequential:
		d := sp.Dims[0]
		fmt.Fprintf(b, "    X[%d] = Seed[%d];\n", d.Lo, d.Lo)
		if sp.Pattern%2 == 1 {
			// Second order: the recurrence carries distances 1 and 2 along
			// its DO, and its first point is a boundary the span's
			// certificate excludes (X[I2-2] is below the array there).
			fmt.Fprintf(b, "    X[I2] = if I2 = %d then %s * X[I2-1] + Seed[I2]\n             else %s * X[I2-1] - %s * X[I2-2] + Seed[I2];\n",
				d.Lo+1, lit(c[0]), lit(c[0]), lit(c[1]))
		} else {
			fmt.Fprintf(b, "    X[I2] = %s * X[I2-1] + Seed[I2];\n", lit(c[0]))
		}
		fmt.Fprintf(b, "    Out[%s] = %s;\n", d.Name, sp.escapeTerm(fmt.Sprintf("X[%s]", d.Name)))
	}

	if sp.Sibling {
		body := fmt.Sprintf("%s * Seed[%s] - %s", lit(sp.Coefs[2]), idx, lit(sp.Coefs[3]))
		switch sp.SiblingRead {
		case 1:
			body = fmt.Sprintf("%s + Out[%s]", body, idx)
		case 2:
			back := make([]int64, len(sp.Dims))
			back[0] = 1
			body = fmt.Sprintf("if %s = %d then %s else %s + %s",
				sp.Dims[0].Name, sp.Dims[0].Lo, body, body, sp.readAt("Out", back))
		}
		fmt.Fprintf(b, "    Out2[%s] = %s;\n", idx, body)
	}
}
