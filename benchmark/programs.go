package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/ps"
)

// The ten PS sources are frozen copies: the benchmark's inputs change
// only in a benchmark PR, never because testdata/ or internal/psrc moved.
//
//go:embed programs/*.ps
var programFS embed.FS

// param is one module argument in a form every consumer can use: the
// references read the flat slices, Runner workloads get *ps.Array
// values from args, and the JSON paths (cold_start, serve_open, psrun)
// get the nested-list encoding from inputsJSON.
type param struct {
	name   string
	scalar int64     // the value when axes is nil
	axes   []ps.Axis // array bounds, row-major
	f      []float64 // real elements, or
	i      []int64   // integer elements
}

// program is one PS module with its seeded input generator and its
// independent reference.
type program struct {
	name    string // programs/<name>.ps, and the per-program metric suffix
	module  string
	results []string // result names in declaration order
	// gen builds the arguments at a size; ref computes the expected
	// results from them with plain Go loops (reference.go).
	gen func(rng *rand.Rand, size []int64) []param
	ref func(in []param) [][]float64
}

func (p *program) source() string {
	data, err := programFS.ReadFile("programs/" + p.name + ".ps")
	if err != nil {
		panic(err) // embedded at build time; absence is a build bug
	}
	return string(data)
}

func scalar(name string, v int64) param { return param{name: name, scalar: v} }

func realArray(rng *rand.Rand, name string, axes ...ps.Axis) param {
	n := int64(1)
	for _, ax := range axes {
		n *= ax.Extent()
	}
	f := make([]float64, n)
	for k := range f {
		f[k] = rng.Float64()
	}
	return param{name: name, axes: axes, f: f}
}

// symbols draws from a four-letter alphabet so the sequence comparisons
// of the two alignment programs hit both matches and mismatches.
func symbols(rng *rand.Rand, name string, ax ps.Axis) param {
	s := make([]int64, ax.Extent())
	for k := range s {
		s[k] = int64(rng.Intn(4))
	}
	return param{name: name, axes: []ps.Axis{ax}, i: s}
}

func grid(rng *rand.Rand, name string, lo, hi int64) param {
	return realArray(rng, name, ps.Axis{Lo: lo, Hi: hi}, ps.Axis{Lo: lo, Hi: hi})
}

var programs = map[string]*program{
	"relaxation": {
		name: "relaxation", module: "Relaxation", results: []string{"newA"},
		gen: func(rng *rand.Rand, s []int64) []param {
			return []param{grid(rng, "InitialA", 0, s[0]+1), scalar("M", s[0]), scalar("maxK", s[1])}
		},
		ref: refRelaxation,
	},
	"gauss_seidel": {
		name: "gauss_seidel", module: "Relaxation", results: []string{"newA"},
		gen: func(rng *rand.Rand, s []int64) []param {
			return []param{grid(rng, "InitialA", 0, s[0]+1), scalar("M", s[0]), scalar("maxK", s[1])}
		},
		ref: refGaussSeidel,
	},
	"heat3d": {
		name: "heat3d", module: "Heat3D", results: []string{"Out"},
		gen: func(rng *rand.Rand, s []int64) []param {
			ax := ps.Axis{Lo: 0, Hi: s[0]}
			return []param{realArray(rng, "G", ax, ax, ax), scalar("N", s[0])}
		},
		ref: refHeat3D,
	},
	"edit_distance": {
		name: "edit_distance", module: "EditDistance", results: []string{"Dist"},
		gen: func(rng *rand.Rand, s []int64) []param {
			return []param{
				symbols(rng, "A", ps.Axis{Lo: 1, Hi: s[0]}), symbols(rng, "B", ps.Axis{Lo: 1, Hi: s[1]}),
				scalar("N", s[0]), scalar("M2", s[1]),
			}
		},
		ref: refEditDistance,
	},
	"reflect": {
		name: "reflect", module: "Reflect", results: []string{"OutX", "OutY"},
		gen: func(rng *rand.Rand, s []int64) []param {
			return []param{grid(rng, "Seed", 1, s[0]), scalar("N", s[0])}
		},
		ref: refReflect,
	},
	"mutual": {
		name: "mutual", module: "Mutual", results: []string{"OutX", "OutY"},
		gen: func(rng *rand.Rand, s []int64) []param {
			return []param{grid(rng, "Seed", 0, s[0]+1), scalar("N", s[0])}
		},
		ref: refMutual,
	},
	"act_chain": {
		name: "act_chain", module: "ActChain", results: []string{"Out"},
		gen: func(rng *rand.Rand, s []int64) []param {
			return []param{grid(rng, "X", 1, s[0]), scalar("N", s[0])}
		},
		ref: refActChain,
	},
	"smooth": {
		name: "smooth", module: "Smooth", results: []string{"Ys"},
		gen: func(rng *rand.Rand, s []int64) []param {
			return []param{realArray(rng, "Xs", ps.Axis{Lo: 0, Hi: s[0] + 1}), scalar("N", s[0])}
		},
		ref: refSmooth,
	},
	"coupled": {
		name: "coupled", module: "Coupled", results: []string{"OutU", "OutV"},
		gen: func(rng *rand.Rand, s []int64) []param {
			return []param{grid(rng, "Seed", 1, s[0]), scalar("N", s[0])}
		},
		ref: refCoupled,
	},
	"smith_waterman": {
		name: "smith_waterman", module: "SmithWaterman", results: []string{"H"},
		gen: func(rng *rand.Rand, s []int64) []param {
			return []param{
				symbols(rng, "A", ps.Axis{Lo: 0, Hi: s[0]}), symbols(rng, "B", ps.Axis{Lo: 0, Hi: s[1]}),
				scalar("N", s[0]), scalar("M2", s[1]),
			}
		},
		ref: refSmithWaterman,
	},
}

// sized names a program at a fixed problem size. Sizes never depend on
// the seed, so the work per op is the same for every seed.
type sized struct {
	prog string
	size []int64
}

var (
	// corpusSet is 1.77 M equation instances per sweep: large enough
	// that kernels and plane synchronisation dominate an activation.
	corpusSet = []sized{
		{"relaxation", []int64{192, 6}}, {"gauss_seidel", []int64{192, 6}}, {"heat3d", []int64{56}},
		{"edit_distance", []int64{384, 448}}, {"reflect", []int64{256}}, {"mutual", []int64{256}},
	}
	// smallSet is ≈0.1 ms per activation: bounds evaluation, the arena
	// and pool dispatch dominate, which is what a served request pays.
	smallSet = []sized{
		{"act_chain", []int64{32}}, {"smooth", []int64{2048}}, {"relaxation", []int64{16, 4}},
		{"gauss_seidel", []int64{16, 4}}, {"heat3d", []int64{8}}, {"edit_distance", []int64{24, 24}},
	}
	// coldSet adds the two remaining cascade shapes (a two-kernel
	// wavefront with a negative T⁻¹ coefficient, an int-reading DP) so
	// the front end sees every lowering path.
	coldSet = append(append([]sized{}, smallSet...),
		sized{"coupled", []int64{16}}, sized{"smith_waterman", []int64{24, 24}})
	// serveSet is the request mix: one DOALL over a 2 k-element array
	// (JSON dominates) and one small wavefront.
	serveSet = []sized{{"smooth", []int64{2048}}, {"gauss_seidel", []int64{32, 4}}}
)

// activation is one program instance: seeded inputs and the reference
// results they must produce.
type activation struct {
	prog *program
	src  string // the program's source text, read once
	in   []param
	want [][]float64
}

// newActivations draws every program's inputs from one generator, in
// set order, so equal seeds give equal inputs.
func newActivations(rng *rand.Rand, set []sized) []*activation {
	acts := make([]*activation, len(set))
	for k, s := range set {
		p := programs[s.prog]
		in := p.gen(rng, s.size)
		acts[k] = &activation{prog: p, src: p.source(), in: in, want: p.ref(in)}
	}
	return acts
}

// args converts the inputs to Runner arguments.
func (a *activation) args() []any {
	out := make([]any, len(a.in))
	for k, p := range a.in {
		switch {
		case p.axes == nil:
			out[k] = p.scalar
		case p.f != nil:
			arr := ps.NewRealArray(p.axes...)
			copy(arr.F, p.f)
			out[k] = arr
		default:
			arr := ps.NewIntArray(p.axes...)
			copy(arr.I, p.i)
			out[k] = arr
		}
	}
	return out
}

// inputsJSON encodes the inputs the way psrun's -in file and serve's
// "inputs" object carry them: nested lists shaped to the dimensions.
func (a *activation) inputsJSON() map[string]json.RawMessage {
	out := make(map[string]json.RawMessage, len(a.in))
	for _, p := range a.in {
		var v any = p.scalar
		if p.axes != nil {
			pos := 0
			v = nestJSON(&p, 0, &pos)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			panic(err) // finite numbers and lists always encode
		}
		out[p.name] = raw
	}
	return out
}

func nestJSON(p *param, d int, pos *int) []any {
	n := int(p.axes[d].Extent())
	list := make([]any, n)
	for k := range list {
		switch {
		case d < len(p.axes)-1:
			list[k] = nestJSON(p, d+1, pos)
		case p.f != nil:
			list[k] = p.f[*pos]
			*pos++
		default:
			list[k] = p.i[*pos]
			*pos++
		}
	}
	return list
}

// checkArrays compares Runner results with the reference, bit for bit.
func (a *activation) checkArrays(results []any) error {
	if len(results) != len(a.want) {
		return fmt.Errorf("%s: %d results, want %d", a.prog.name, len(results), len(a.want))
	}
	for r, want := range a.want {
		arr, ok := results[r].(*ps.Array)
		if !ok {
			return fmt.Errorf("%s: result %s is %T, not an array", a.prog.name, a.prog.results[r], results[r])
		}
		if err := equalBits(arr.F, want); err != nil {
			return fmt.Errorf("%s.%s: %w", a.prog.name, a.prog.results[r], err)
		}
	}
	return nil
}

// checkJSON compares a decoded JSON result object (ResultsToJSON after
// a marshal round trip, a psrun stdout, a serve response) with the
// reference. encoding/json writes the shortest text that parses back to
// the same float64, so the comparison stays bitwise.
func (a *activation) checkJSON(results map[string]json.RawMessage) error {
	if len(results) != len(a.want) {
		return fmt.Errorf("%s: %d results, want %d", a.prog.name, len(results), len(a.want))
	}
	for r, want := range a.want {
		name := a.prog.results[r]
		got, err := scanFloats(results[name], make([]float64, 0, len(want)))
		if err == nil {
			err = equalBits(got, want)
		}
		if err != nil {
			return fmt.Errorf("%s.%s: %w", a.prog.name, name, err)
		}
	}
	return nil
}

// scanFloats reads the numbers of a nested JSON list in document order,
// which is row-major order. It replaces json.Unmarshal into []any for
// speed: serve_open checks every response on the goroutine that sends
// the next request. Anything but numbers, brackets and commas (the
// "NaN" spelling, an error object) fails to parse and so fails the op.
var listSyntax = []byte("[], \n")

func scanFloats(raw []byte, out []float64) ([]float64, error) {
	for i := 0; i < len(raw); {
		if bytes.IndexByte(listSyntax, raw[i]) >= 0 {
			i++
			continue
		}
		j := i
		for j < len(raw) && bytes.IndexByte(listSyntax, raw[j]) < 0 {
			j++
		}
		f, err := strconv.ParseFloat(string(raw[i:j]), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
		i = j
	}
	return out, nil
}

func equalBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d elements, want %d", len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			return fmt.Errorf("element %d is %v, want %v", k, got[k], want[k])
		}
	}
	return nil
}
