// Variant parity tests: each program of variantPrograms, all from the
// testdata/*.ps corpus (rows labelled psrc/ run a second input size),
// must produce identical results under every execution variant — sequential, parallel at several widths and
// grains, strict, and with virtual windows ablated. Parallel runs execute
// the cascade plan (§5 fusion and the automatic §4 hyperplane
// scheduling), sequential runs the schedule as emitted.
// The sequential run is the reference; all others are compared element
// for element through the JSON encoding. Run under -race (CI does) this
// also shakes out data races in the DOALL and wavefront dispatch paths.
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/ps"
)

// newEngine returns an engine closed when the test ends.
func newEngine(tb testing.TB) *ps.Engine {
	eng := ps.NewEngine()
	tb.Cleanup(eng.Close)
	return eng
}

// noVirtual allocates every §3.4 window physically: the storage
// reference the NoVirtual rows diff against. It is an interp.Options
// field, not an exported run option.
var noVirtual = ps.RunOption(func(o *interp.Options) { o.NoVirtual = true })

// grain sets g of the dispatch rule, also an interp.Options field: a step
// tiles when its average plane holds g × workers points.
func grain(n int64) ps.RunOption { return func(o *interp.Options) { o.Grain = n } }

// variantProgram is one source + module + concrete arguments.
type variantProgram struct {
	name   string
	src    string
	module string
	args   []any
}

func grid2D(m int64) *ps.Array {
	a := ps.NewRealArray(ps.Axis{Lo: 0, Hi: m + 1}, ps.Axis{Lo: 0, Hi: m + 1})
	for i := int64(0); i <= m+1; i++ {
		for j := int64(0); j <= m+1; j++ {
			var v float64
			if i > 0 && i <= m && j > 0 && j <= m {
				v = float64((i*31+j*17)%19) / 19.0
			}
			a.SetF([]int64{i, j}, v)
		}
	}
	return a
}

func vector(lo, hi int64) *ps.Array {
	a := ps.NewRealArray(ps.Axis{Lo: lo, Hi: hi})
	for i := lo; i <= hi; i++ {
		a.SetF([]int64{i}, float64((i*13+5)%23)/7.0)
	}
	return a
}

// gridRange builds a 2-D seed over [lo,hi]×[lo,hi].
func gridRange(lo, hi int64) *ps.Array {
	a := ps.NewRealArray(ps.Axis{Lo: lo, Hi: hi}, ps.Axis{Lo: lo, Hi: hi})
	for i := lo; i <= hi; i++ {
		for j := lo; j <= hi; j++ {
			a.SetF([]int64{i, j}, float64((i*29+j*11)%13)/13.0)
		}
	}
	return a
}

// grid3D builds an (n+1)³ cube over [0,n]³ (the Heat3D domain).
func grid3D(n int64) *ps.Array {
	a := ps.NewRealArray(ps.Axis{Lo: 0, Hi: n}, ps.Axis{Lo: 0, Hi: n}, ps.Axis{Lo: 0, Hi: n})
	for i := int64(0); i <= n; i++ {
		for j := int64(0); j <= n; j++ {
			for k := int64(0); k <= n; k++ {
				a.SetF([]int64{i, j, k}, float64((i*31+j*17+k*7)%19)/19.0)
			}
		}
	}
	return a
}

// intVector builds a 1-D int array over [lo,hi] with small repeating
// values, so sequence comparisons hit both matches and mismatches.
func intVector(lo, hi int64) *ps.Array {
	a := ps.NewIntArray(ps.Axis{Lo: lo, Hi: hi})
	for i := lo; i <= hi; i++ {
		a.SetI([]int64{i}, (i*5+3)%4)
	}
	return a
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func variantPrograms(t *testing.T) []variantProgram {
	t.Helper()
	return []variantProgram{
		{"testdata/relaxation", Source("relaxation"), "Relaxation",
			[]any{grid2D(6), int64(6), int64(5)}},
		{"testdata/gauss_seidel", Source("gauss_seidel"), "Relaxation",
			[]any{grid2D(6), int64(6), int64(5)}},
		{"testdata/smooth", Source("smooth"), "Smooth",
			[]any{vector(0, 17), int64(16)}},
		{"psrc/Relaxation", Source("relaxation"), "Relaxation",
			[]any{grid2D(5), int64(5), int64(4)}},
		{"psrc/RelaxationGS", Source("gauss_seidel"), "Relaxation",
			[]any{grid2D(5), int64(5), int64(4)}},
		{"psrc/Heat1D", Source("heat1d"), "Heat1D",
			[]any{vector(0, 13), int64(12), int64(6), 0.1}},
		{"psrc/Prefix", Source("prefix"), "Prefix",
			[]any{vector(1, 20), int64(20)}},
		{"psrc/Smooth", Source("smooth"), "Smooth",
			[]any{vector(0, 17), int64(16)}},
		{"psrc/Pipeline", Source("pipeline"), "Pipeline",
			[]any{vector(0, 17), int64(16)}},
		{"psrc/Wavefront2D", Source("wavefront2d"), "Wavefront2D",
			[]any{grid2D(7), int64(7)}},
		{"testdata/skew_stencil", Source("skew_stencil"), "SkewStencil",
			[]any{grid2D(7), int64(7)}},
		{"testdata/diag_chain", Source("diag_chain"), "DiagChain",
			[]any{gridRange(1, 9), int64(9)}},
		{"testdata/mutual", Source("mutual"), "Mutual",
			[]any{grid2D(6), int64(6)}},
		{"testdata/coupled", Source("coupled"), "Coupled",
			[]any{gridRange(1, 9), int64(9)}},
		{"testdata/fuse_pair", Source("fuse_pair"), "FusePair",
			[]any{grid2D(6), int64(6)}},
		{"testdata/reflect", Source("reflect"), "Reflect",
			[]any{gridRange(1, 8), int64(8)}},
		{"psrc/CoupledGrid", Source("coupled_grid"), "CoupledGrid",
			[]any{grid2D(7), int64(7), int64(3)}},
		{"testdata/smith_waterman", Source("smith_waterman"), "SmithWaterman",
			[]any{intVector(0, 9), intVector(0, 12), int64(9), int64(12)}},
		{"testdata/heat3d", Source("heat3d"), "Heat3D",
			[]any{grid3D(6), int64(6)}},
		{"testdata/edit_distance", Source("edit_distance"), "EditDistance",
			[]any{intVector(1, 8), intVector(1, 11), int64(8), int64(11)}},
		{"testdata/twin", Source("twin"), "Twin",
			[]any{vector(0, 40), int64(40)}},
		{"testdata/shift_pair", Source("shift_pair"), "ShiftPair",
			[]any{vector(0, 4000), int64(4000)}},
	}
}

// TestVariantParity asserts that every execution variant of every corpus
// program matches its sequential reference exactly.
func TestVariantParity(t *testing.T) {
	// The parallel variants execute the cascade plan: nests fused where
	// the merge yields a parallel step, and wavefronts wherever a nest is
	// eligible. The rows cross it with width, grain, strictness and window
	// ablation.
	variants := []struct {
		name string
		opts []ps.RunOption
	}{
		{"Par1", []ps.RunOption{ps.Workers(1)}},
		{"Par2", []ps.RunOption{ps.Workers(2)}},
		{"Par4", []ps.RunOption{ps.Workers(4)}},
		{"Par3Grain8", []ps.RunOption{ps.Workers(3), grain(8)}},
		{"Par2Grain4", []ps.RunOption{ps.Workers(2), grain(4)}},
		{"StrictSeq", []ps.RunOption{ps.Sequential(), ps.Strict()}},
		{"StrictPar2", []ps.RunOption{ps.Workers(2), ps.Strict()}},
		{"NoVirtualSeq", []ps.RunOption{ps.Sequential(), noVirtual}},
		{"NoVirtualPar4", []ps.RunOption{ps.Workers(4), noVirtual}},
		// Dispatch rows. A DOALL or wavefront step runs on the tile
		// executor when its average plane holds grain × workers points (a
		// DOALL is one plane) and inline otherwise, so at these sizes the
		// default rows above run most steps inline. The Doacross rows set
		// grain(1), which tiles every step whose planes can occupy the
		// workers, alone and crossed with strictness; the Barrier row sets
		// a grain no plane fills, pinning the inline path on a four-worker
		// pool.
		{"BarrierPar4", []ps.RunOption{ps.Workers(4), grain(1 << 20)}},
		{"DoacrossPar2", []ps.RunOption{ps.Workers(2), grain(1)}},
		{"DoacrossPar4", []ps.RunOption{ps.Workers(4), grain(1)}},
		{"DoacrossStrictPar2", []ps.RunOption{ps.Workers(2), ps.Strict(), grain(1)}},
		// Test IDs of deleted executors and options — the doacross and
		// pipeline backends, the fusion knob and the hyperplane-off mode.
		// Each repeats the options of a row above (the Hyper* rows those
		// of their row without the deleted mode; HyperOffSeq reruns the
		// sequential reference) and stays only as a stable test ID.
		{"HyperOffSeq", []ps.RunOption{ps.Sequential()}},
		{"HyperOffPar2", []ps.RunOption{ps.Workers(2)}},
		{"HyperOffPar4", []ps.RunOption{ps.Workers(4)}},
		{"HyperOffPar3Grain8", []ps.RunOption{ps.Workers(3), grain(8)}},
		{"DoacrossPar3Grain8", []ps.RunOption{ps.Workers(3), grain(8)}},
		{"DoacrossHyperOffPar4", []ps.RunOption{ps.Workers(4), grain(1)}},
		{"PipelinePar1", []ps.RunOption{ps.Workers(1)}},
		{"PipelinePar2", []ps.RunOption{ps.Workers(2)}},
		{"PipelinePar4", []ps.RunOption{ps.Workers(4)}},
		{"PipelineFusedPar4", []ps.RunOption{ps.Workers(4)}},
		{"PipelineStrictPar2", []ps.RunOption{ps.Workers(2), ps.Strict()}},
		{"PipelineHyperOffPar4", []ps.RunOption{ps.Workers(4)}},
		{"FusedSeq", []ps.RunOption{ps.Workers(1)}},
		{"FusedPar4", []ps.RunOption{ps.Workers(4)}},
		{"HyperOffFusedPar4", []ps.RunOption{ps.Workers(4)}},
		{"DoacrossFusedPar4", []ps.RunOption{ps.Workers(4), grain(1)}},
	}
	runOnce := func(prog *ps.Program, module string, args []any, opts ...ps.RunOption) ([]any, error) {
		r, err := prog.Prepare(module, opts...)
		if err != nil {
			return nil, err
		}
		res, _, err := r.Run(context.Background(), args)
		return res, err
	}
	for _, tp := range variantPrograms(t) {
		t.Run(tp.name, func(t *testing.T) {
			prog, err := newEngine(t).Compile(tp.name+".ps", tp.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			ref, err := runOnce(prog, tp.module, tp.args, ps.Sequential())
			if err != nil {
				t.Fatalf("sequential reference: %v", err)
			}
			want, err := ps.ResultsToJSON(prog, tp.module, ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range variants {
				v := v
				t.Run(v.name, func(t *testing.T) {
					res, err := runOnce(prog, tp.module, tp.args, v.opts...)
					if err != nil {
						t.Fatalf("%s: %v", v.name, err)
					}
					got, err := ps.ResultsToJSON(prog, tp.module, res)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s diverges from sequential reference:\ngot  %v\nwant %v", v.name, got, want)
					}
				})
			}
		})
	}
}

// TestAutoHyperplaneEligibility pins down which backend the lowering
// cascade picks per corpus program. Recurrence nests with
// constant-offset dependences and a valid time vector become wavefront
// steps — through the cascade's fusion step, that includes components
// the scheduler split into adjacent inner nests whose unioned
// dependences still admit a π (mutual). Nests the wavefront analysis
// rejects (reflect's non-constant read, 1-D recurrences,
// already-parallel nests) keep their sequential DO loops. The compact
// plan of the default (auto) variant is the witness.
func TestAutoHyperplaneEligibility(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		module  string
		backend string // "wavefront" or "sequential"
		pi      string // expected pi rendering for wavefront cases
	}{
		{"testdata/gauss_seidel", Source("gauss_seidel"), "Relaxation", "wavefront", "pi=(2,1,1)"},
		{"testdata/skew_stencil", Source("skew_stencil"), "SkewStencil", "wavefront", "pi=(1,1)"},
		{"testdata/diag_chain", Source("diag_chain"), "DiagChain", "wavefront", "pi=(2,1)"},
		{"psrc/Wavefront2D", Source("wavefront2d"), "Wavefront2D", "wavefront", "pi=(1,1)"},
		// Multi-equation positives: one time vector for the union of the
		// group's dependence vectors.
		{"testdata/coupled", Source("coupled"), "Coupled", "wavefront", "pi=(2,1)"},
		{"psrc/CoupledGrid", Source("coupled_grid"), "CoupledGrid", "wavefront", "pi=(1,1)"},
		{"testdata/fuse_pair", Source("fuse_pair"), "FusePair", "wavefront", "pi=(1,1)"}, // one fused two-kernel wavefront
		{"testdata/smith_waterman", Source("smith_waterman"), "SmithWaterman", "wavefront", "pi=(1,1)"},
		// The 3-D positive: the time vector must span all three
		// dimensions of the cube.
		{"testdata/heat3d", Source("heat3d"), "Heat3D", "wavefront", "pi=(1,1,1)"},
		// Boundary equations as their own DOALLs ahead of the interior
		// anti-diagonal wavefront.
		{"testdata/edit_distance", Source("edit_distance"), "EditDistance", "wavefront", "pi=(1,1)"},
		// Fusion positive: the scheduler splits mutual's component into
		// two adjacent inner nests; the cascade's fusion step merges them
		// because the union analysis wavefronts the merged nest.
		{"testdata/mutual", Source("mutual"), "Mutual", "wavefront", "pi=(1,1)"},
		// Negative cases: the DO loops must survive untransformed. The
		// reflected-column read X[I-1, N+1-J] is not a constant-offset
		// dependence, so the wavefront analysis refuses reflect's nest.
		{"testdata/reflect", Source("reflect"), "Reflect", "sequential", ""},
		{"psrc/Prefix", Source("prefix"), "Prefix", "sequential", ""},             // 1-D recurrence: no plane
		{"psrc/Relaxation", Source("relaxation"), "Relaxation", "sequential", ""}, // inner loops already DOALL
		{"psrc/Heat1D", Source("heat1d"), "Heat1D", "sequential", ""},             // inner loop already DOALL
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := newEngine(t).Compile(tc.name+".ps", tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			m := prog.Module(tc.module)
			compact := m.PlanCompact()
			off := m.PlanCompactWith(ps.PlanOptions{Sequential: true})
			if strings.Contains(off, "WAVEFRONT") {
				t.Errorf("sequential plan restructured: %q", off)
			}
			switch tc.backend {
			case "wavefront":
				if !strings.Contains(compact, "WAVEFRONT") {
					t.Errorf("expected a wavefront step in auto plan, got %q", compact)
				}
				if !strings.Contains(compact, tc.pi) {
					t.Errorf("plan %q missing time vector %q", compact, tc.pi)
				}
				run, err := prog.Prepare(tc.module, ps.Workers(2))
				if err != nil {
					t.Fatal(err)
				}
				explain := run.Explain()
				if !strings.Contains(explain, "auto-hyperplane") || !strings.Contains(explain, "wavefront") {
					t.Errorf("Explain does not surface the wavefront decision:\n%s", explain)
				}
			default:
				if strings.Contains(compact, "WAVEFRONT") {
					t.Errorf("ineligible program was transformed: %q", compact)
				}
				// Fusion may merge the DOALLs; the sequential nests stay.
				if strings.Count(off, "DO ") != strings.Count(compact, "DO ") {
					t.Errorf("auto plan changed the sequential nests of an ineligible program:\n auto %q\n seq  %q", compact, off)
				}
				run, err := prog.Prepare(tc.module, ps.Workers(2))
				if err != nil {
					t.Fatal(err)
				}
				explain := run.Explain()
				for _, want := range []string{"cascade:", "-> sequential", "wavefront rejected:"} {
					if !strings.Contains(explain, want) {
						t.Errorf("Explain does not surface the cascade decision (missing %q):\n%s", want, explain)
					}
				}
			}
		})
	}
}

// TestMultiEquationWavefront pins the multi-equation tentpole shapes:
// a coupled two-recurrence component lowers to a single wavefront step
// carrying both kernels, the splittable corpus programs fuse into one
// multi-kernel wavefront in the default plan, and a prepared Runner's
// Explain lists the equations sharing the group's π under the wavefront
// step.
func TestMultiEquationWavefront(t *testing.T) {
	countWavefronts := func(compact string) int { return strings.Count(compact, "WAVEFRONT") }

	eng := newEngine(t)
	coupled, err := eng.Compile("coupled.ps", Source("coupled"))
	if err != nil {
		t.Fatal(err)
	}
	m := coupled.Module("Coupled")
	compact := m.PlanCompact()
	if countWavefronts(compact) != 1 || !strings.Contains(compact, "WAVEFRONT[pi=(2,1)] I×J (eq.2; eq.1)") {
		t.Errorf("coupled auto plan is not a single two-kernel wavefront: %q", compact)
	}
	if pl := m.Plan(); !strings.Contains(pl, "kernels 2") {
		t.Errorf("coupled plan listing missing the kernel-count marker:\n%s", pl)
	}

	run, err := coupled.Prepare("Coupled", ps.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	explain := run.Explain()
	for _, want := range []string{"kernels 2", "eq.2 -> V", "eq.1 -> U", "pi = (2,1)"} {
		if !strings.Contains(explain, want) {
			t.Errorf("Explain does not surface the equations sharing pi (missing %q):\n%s", want, explain)
		}
	}

	// Fusion synergy: the cascade merges mutual's two inner nests (the
	// component the scheduler split) and fuse_pair's two top-level
	// recurrence nests, each into one two-kernel wavefront, because the
	// merged nest admits a π. The schedule as emitted keeps them apart.
	for _, tc := range []struct {
		file, module string
		offNests     int
		fusedCompact string
	}{
		{"testdata/mutual.ps", "Mutual", 1, "WAVEFRONT[pi=(1,1)] I×J (eq.2; eq.1)"},
		{"testdata/fuse_pair.ps", "FusePair", 2, "WAVEFRONT[pi=(1,1)] I×J (eq.1; eq.2)"},
	} {
		prog, err := eng.Compile(tc.file, mustRead(t, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		mod := prog.Module(tc.module)
		if fused := mod.PlanCompact(); countWavefronts(fused) != 1 || !strings.Contains(fused, tc.fusedCompact) {
			t.Errorf("%s default plan is not a single multi-kernel wavefront: %q", tc.module, fused)
		}
		off := mod.PlanCompactWith(ps.PlanOptions{Sequential: true})
		if got := strings.Count(off, "DO I"); got != tc.offNests {
			t.Errorf("%s sequential plan has %d DO I nests, want %d: %q", tc.module, got, tc.offNests, off)
		}
	}
}

// TestParallelPlanFuses pins the cascade's §5 step on the default
// parallel plan: sibling DOALLs reading each other only at distance 0
// merge into one leaf DOALL (one fork/join instead of several), and
// sibling recurrence nests merge when the merged nest is a wavefront.
func TestParallelPlanFuses(t *testing.T) {
	eng := newEngine(t)
	prog, err := eng.Compile("json_types.ps", Source("json_types"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := prog.Module("Types").PlanCompact(), "eq.3; eq.2; DOALL I (eq.6; eq.5; eq.4); eq.1"; got != want {
		t.Errorf("json_types default plan %q, want one DOALL with 3 kernels, %q", got, want)
	}
	if got := strings.Count(prog.Module("Types").PlanCompactWith(ps.PlanOptions{Sequential: true}), "DOALL I ("); got != 3 {
		t.Errorf("json_types sequential plan has %d DOALLs, want the 3 the schedule emits", got)
	}
	var inputs map[string]json.RawMessage
	if err := json.Unmarshal([]byte(mustRead(t, "testdata/json_types.inputs.json")), &inputs); err != nil {
		t.Fatal(err)
	}
	args, err := ps.ArgsFromJSON(prog, "Types", inputs)
	if err != nil {
		t.Fatal(err)
	}
	// The inputs' DOALLs are below the default 64-point threshold at two
	// workers; grain(1) dispatches any DOALL of two or more points, and
	// the fused DOALL dispatches once where the schedule emits three.
	run, err := prog.Prepare("Types", ps.Workers(2), grain(1))
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := run.Run(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	if st.DOALLChunks == 0 {
		t.Error("DOALLChunks = 0: the fused DOALL did not run on the pool")
	}

	for _, tc := range []struct{ file, module, want string }{
		{"testdata/reflect.ps", "Reflect", "DOALL I×J (eq.3; eq.4)"},
		{"testdata/mutual.ps", "Mutual", "DOALL I×J (eq.3; eq.4)"},
		{"testdata/coupled.ps", "Coupled", "DOALL I×J (eq.3; eq.4)"},
		{"testdata/fuse_pair.ps", "FusePair", "WAVEFRONT[pi=(1,1)] I×J (eq.1; eq.2); DOALL I×J (eq.3; eq.4)"},
	} {
		prog, err := eng.Compile(tc.file, mustRead(t, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := prog.Module(tc.module).PlanCompact(); !strings.Contains(got, tc.want) {
			t.Errorf("%s default plan %q, want %q", tc.module, got, tc.want)
		}
	}
}

// TestCascadeKeepsLeafSpans pins a merge the cascade refuses: twin's two
// 1-D recurrences stay two leaf DOs, each one span, because merged they
// would gain no parallel step; every instance runs on a specialized
// kernel.
func TestCascadeKeepsLeafSpans(t *testing.T) {
	twin, err := newEngine(t).Compile("twin.ps", Source("twin"))
	if err != nil {
		t.Fatal(err)
	}
	if pl := twin.Module("Twin").Plan(); strings.Count(pl, "do I leaf\n") != 2 {
		t.Errorf("twin default plan does not keep two leaf DOs:\n%s", pl)
	}
	run, err := twin.Prepare("Twin", ps.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	if ex := run.Explain(); strings.Contains(ex, "point-wise") {
		t.Errorf("twin Explain reports a point-wise kernel:\n%s", ex)
	}
	_, st, err := run.Run(context.Background(), []any{vector(0, 40), int64(40)})
	if err != nil {
		t.Fatal(err)
	}
	if st.SpecializedKernels != st.EquationInstances {
		t.Errorf("twin: %d of %d instances specialized", st.SpecializedKernels, st.EquationInstances)
	}
}

// TestVariantParityConcurrent runs the default parallel plan of every
// corpus program from several goroutines over one shared prepared
// Runner, the service shape; under -race this guards the pooled
// worker-state reuse introduced with the plan executor.
func TestVariantParityConcurrent(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(4))
	defer eng.Close()
	for _, tp := range variantPrograms(t) {
		tp := tp
		t.Run(tp.name, func(t *testing.T) {
			prog, err := eng.Compile(tp.name+".ps", tp.src)
			if err != nil {
				t.Fatal(err)
			}
			seqRun, err := prog.Prepare(tp.module, ps.Sequential())
			if err != nil {
				t.Fatal(err)
			}
			seqRef, _, err := seqRun.Run(context.Background(), tp.args)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ps.ResultsToJSON(prog, tp.module, seqRef)
			if err != nil {
				t.Fatal(err)
			}
			run, err := prog.Prepare(tp.module)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 4
			errc := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				go func() {
					res, _, err := run.Run(nil, tp.args)
					if err != nil {
						errc <- err
						return
					}
					got, err := ps.ResultsToJSON(prog, tp.module, res)
					if err != nil {
						errc <- err
						return
					}
					if !reflect.DeepEqual(got, want) {
						errc <- fmt.Errorf("concurrent run diverges from sequential reference")
						return
					}
					errc <- nil
				}()
			}
			for g := 0; g < goroutines; g++ {
				if err := <-errc; err != nil {
					t.Error(err)
				}
			}
		})
	}
}
