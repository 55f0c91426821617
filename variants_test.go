// Variant parity tests: every program in testdata/ and the psrc corpus
// (the sources the examples run) must produce identical results under
// every execution variant — sequential, parallel at several widths and
// grains, loop-fused, strict, with virtual windows ablated, and with
// the automatic §4 hyperplane (wavefront) scheduling both on and off.
// The sequential run is the reference; all others are compared element
// for element through the JSON encoding. Run under -race (CI does) this
// also shakes out data races in the DOALL and wavefront dispatch paths.
package repro

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/psrc"
	"repro/ps"
)

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
		{"testdata/relaxation", mustRead(t, "testdata/relaxation.ps"), "Relaxation",
			[]any{grid2D(6), int64(6), int64(5)}},
		{"testdata/gauss_seidel", mustRead(t, "testdata/gauss_seidel.ps"), "Relaxation",
			[]any{grid2D(6), int64(6), int64(5)}},
		{"testdata/smooth", mustRead(t, "testdata/smooth.ps"), "Smooth",
			[]any{vector(0, 17), int64(16)}},
		{"psrc/Relaxation", psrc.Relaxation, "Relaxation",
			[]any{grid2D(5), int64(5), int64(4)}},
		{"psrc/RelaxationGS", psrc.RelaxationGS, "Relaxation",
			[]any{grid2D(5), int64(5), int64(4)}},
		{"psrc/Heat1D", psrc.Heat1D, "Heat1D",
			[]any{vector(0, 13), int64(12), int64(6), 0.1}},
		{"psrc/Prefix", psrc.Prefix, "Prefix",
			[]any{vector(1, 20), int64(20)}},
		{"psrc/Smooth", psrc.Smooth, "Smooth",
			[]any{vector(0, 17), int64(16)}},
		{"psrc/Pipeline", psrc.Pipeline, "Pipeline",
			[]any{vector(0, 17), int64(16)}},
		{"psrc/Wavefront2D", psrc.Wavefront2D, "Wavefront2D",
			[]any{grid2D(7), int64(7)}},
		{"testdata/skew_stencil", mustRead(t, "testdata/skew_stencil.ps"), "SkewStencil",
			[]any{grid2D(7), int64(7)}},
		{"testdata/diag_chain", mustRead(t, "testdata/diag_chain.ps"), "DiagChain",
			[]any{gridRange(1, 9), int64(9)}},
		{"testdata/mutual", mustRead(t, "testdata/mutual.ps"), "Mutual",
			[]any{grid2D(6), int64(6)}},
		{"testdata/coupled", mustRead(t, "testdata/coupled.ps"), "Coupled",
			[]any{gridRange(1, 9), int64(9)}},
		{"testdata/fuse_pair", mustRead(t, "testdata/fuse_pair.ps"), "FusePair",
			[]any{grid2D(6), int64(6)}},
		{"testdata/reflect", mustRead(t, "testdata/reflect.ps"), "Reflect",
			[]any{gridRange(1, 8), int64(8)}},
		{"psrc/CoupledGrid", psrc.CoupledGrid, "CoupledGrid",
			[]any{grid2D(7), int64(7), int64(3)}},
		{"testdata/smith_waterman", mustRead(t, "testdata/smith_waterman.ps"), "SmithWaterman",
			[]any{intVector(0, 9), intVector(0, 12), int64(9), int64(12)}},
		{"testdata/heat3d", mustRead(t, "testdata/heat3d.ps"), "Heat3D",
			[]any{grid3D(6), int64(6)}},
		{"testdata/edit_distance", mustRead(t, "testdata/edit_distance.ps"), "EditDistance",
			[]any{intVector(1, 8), intVector(1, 11), int64(8), int64(11)}},
	}
}

// TestVariantParity asserts that every execution variant of every corpus
// program matches its sequential reference exactly.
func TestVariantParity(t *testing.T) {
	// The parallel variants run with the default HyperplaneAuto mode, so
	// they execute the wavefront plan wherever a nest is eligible; the
	// HyperOff rows pin the untransformed nests at the same widths, and
	// the remaining rows cross auto-hyperplane with grain, fusion,
	// strictness and window ablation.
	variants := []struct {
		name string
		opts []ps.RunOption
	}{
		{"Par1", []ps.RunOption{ps.Workers(1)}},
		{"Par2", []ps.RunOption{ps.Workers(2)}},
		{"Par4", []ps.RunOption{ps.Workers(4)}},
		{"Par3Grain8", []ps.RunOption{ps.Workers(3), ps.Grain(8)}},
		{"Par2Grain4", []ps.RunOption{ps.Workers(2), ps.Grain(4)}},
		{"FusedSeq", []ps.RunOption{ps.Sequential(), ps.Fused()}},
		{"FusedPar4", []ps.RunOption{ps.Workers(4), ps.Fused()}},
		{"StrictSeq", []ps.RunOption{ps.Sequential(), ps.Strict()}},
		{"StrictPar2", []ps.RunOption{ps.Workers(2), ps.Strict()}},
		{"NoVirtualSeq", []ps.RunOption{ps.Sequential(), ps.NoVirtual()}},
		{"NoVirtualPar4", []ps.RunOption{ps.Workers(4), ps.NoVirtual()}},
		{"HyperOffSeq", []ps.RunOption{ps.Sequential(), ps.WithHyperplane(ps.HyperplaneOff)}},
		{"HyperOffPar2", []ps.RunOption{ps.Workers(2), ps.WithHyperplane(ps.HyperplaneOff)}},
		{"HyperOffPar4", []ps.RunOption{ps.Workers(4), ps.WithHyperplane(ps.HyperplaneOff)}},
		{"HyperOffPar3Grain8", []ps.RunOption{ps.Workers(3), ps.Grain(8), ps.WithHyperplane(ps.HyperplaneOff)}},
		{"HyperOffFusedPar4", []ps.RunOption{ps.Workers(4), ps.Fused(), ps.WithHyperplane(ps.HyperplaneOff)}},
		// Dispatch rows. A wavefront nest runs on the tile executor when
		// its average plane holds grain × workers points and sweeps inline
		// otherwise, so at these sizes the default rows above all sweep
		// inline. The Doacross rows set Grain(1), which tiles every nest
		// whose planes can occupy the workers, alone and crossed with
		// fusion, strictness and hyperplane-off (no wavefront step: the
		// grain only chunks DOALLs); the Barrier row sets a grain no plane
		// fills, pinning the inline sweep on a four-worker pool. The row
		// names predate the single executor and are kept as stable test
		// IDs; DoacrossPar3Grain8 has the options of Par3Grain8.
		{"BarrierPar4", []ps.RunOption{ps.Workers(4), ps.Grain(1 << 20)}},
		{"DoacrossPar2", []ps.RunOption{ps.Workers(2), ps.Grain(1)}},
		{"DoacrossPar4", []ps.RunOption{ps.Workers(4), ps.Grain(1)}},
		{"DoacrossPar3Grain8", []ps.RunOption{ps.Workers(3), ps.Grain(8)}},
		{"DoacrossFusedPar4", []ps.RunOption{ps.Workers(4), ps.Fused(), ps.Grain(1)}},
		{"DoacrossStrictPar2", []ps.RunOption{ps.Workers(2), ps.Strict(), ps.Grain(1)}},
		{"DoacrossHyperOffPar4", []ps.RunOption{ps.Workers(4), ps.WithHyperplane(ps.HyperplaneOff), ps.Grain(1)}},
		// Pipeline rows: the pipeline-first cascade (PS-DSWP decoupled
		// stages over bounded channels) must match the sequential
		// reference bitwise, alone and crossed with workers, fusion,
		// strictness and hyperplane-off (where the schedule is inert).
		{"PipelinePar1", []ps.RunOption{ps.Workers(1), ps.WithSchedule(ps.SchedulePipeline)}},
		{"PipelinePar2", []ps.RunOption{ps.Workers(2), ps.WithSchedule(ps.SchedulePipeline)}},
		{"PipelinePar4", []ps.RunOption{ps.Workers(4), ps.WithSchedule(ps.SchedulePipeline)}},
		{"PipelineFusedPar4", []ps.RunOption{ps.Workers(4), ps.Fused(), ps.WithSchedule(ps.SchedulePipeline)}},
		{"PipelineStrictPar2", []ps.RunOption{ps.Workers(2), ps.Strict(), ps.WithSchedule(ps.SchedulePipeline)}},
		{"PipelineHyperOffPar4", []ps.RunOption{ps.Workers(4), ps.WithHyperplane(ps.HyperplaneOff), ps.WithSchedule(ps.SchedulePipeline)}},
	}
	for _, tp := range variantPrograms(t) {
		t.Run(tp.name, func(t *testing.T) {
			prog, err := ps.CompileProgram(tp.name+".ps", tp.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			ref, err := prog.Run(tp.module, tp.args, ps.Sequential())
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
					res, err := prog.Run(tp.module, tp.args, v.opts...)
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
// steps — since the sibling re-merge pre-pass, that includes components
// the scheduler split into adjacent inner nests whose unioned
// dependences still admit a π (mutual). Nests the wavefront analysis
// rejects fall through to the PS-DSWP pipeline backend when downstream
// DOALL consumers stream the nest's outer dimension (reflect). Shapes
// neither backend accepts (1-D recurrences, already-parallel nests)
// keep their sequential DO loops. The compact plan of the default
// (auto) variant is the witness.
func TestAutoHyperplaneEligibility(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		module  string
		backend string // "wavefront", "pipeline" or "sequential"
		pi      string // expected pi rendering for wavefront cases
	}{
		{"testdata/gauss_seidel", mustRead(t, "testdata/gauss_seidel.ps"), "Relaxation", "wavefront", "pi=(2,1,1)"},
		{"testdata/skew_stencil", mustRead(t, "testdata/skew_stencil.ps"), "SkewStencil", "wavefront", "pi=(1,1)"},
		{"testdata/diag_chain", mustRead(t, "testdata/diag_chain.ps"), "DiagChain", "wavefront", "pi=(2,1)"},
		{"psrc/Wavefront2D", psrc.Wavefront2D, "Wavefront2D", "wavefront", "pi=(1,1)"},
		// Multi-equation positives: one time vector for the union of the
		// group's dependence vectors.
		{"testdata/coupled", mustRead(t, "testdata/coupled.ps"), "Coupled", "wavefront", "pi=(2,1)"},
		{"psrc/CoupledGrid", psrc.CoupledGrid, "CoupledGrid", "wavefront", "pi=(1,1)"},
		{"testdata/fuse_pair", mustRead(t, "testdata/fuse_pair.ps"), "FusePair", "wavefront", "pi=(1,1)"}, // two singleton wavefronts unfused
		{"testdata/smith_waterman", mustRead(t, "testdata/smith_waterman.ps"), "SmithWaterman", "wavefront", "pi=(1,1)"},
		// The 3-D positive: the time vector must span all three
		// dimensions of the cube.
		{"testdata/heat3d", mustRead(t, "testdata/heat3d.ps"), "Heat3D", "wavefront", "pi=(1,1,1)"},
		// Boundary equations as their own DOALLs ahead of the interior
		// anti-diagonal wavefront.
		{"testdata/edit_distance", mustRead(t, "testdata/edit_distance.ps"), "EditDistance", "wavefront", "pi=(1,1)"},
		// Re-merge positive: the scheduler splits mutual's component into
		// two adjacent inner nests; the pre-pass re-merges them and the
		// union analysis wavefronts the base schedule.
		{"testdata/mutual", mustRead(t, "testdata/mutual.ps"), "Mutual", "wavefront", "pi=(1,1)"},
		// Pipeline positive: the reflected-column read X[I-1, N+1-J] is
		// not a constant-offset dependence, so the wavefront analysis
		// refuses — but the downstream OutX/OutY DOALLs stream rows of
		// the recurrence, so the cascade decouples the nest PS-DSWP-style.
		{"testdata/reflect", mustRead(t, "testdata/reflect.ps"), "Reflect", "pipeline", ""},
		// Negative cases: the DO loops must survive untransformed.
		{"psrc/Prefix", psrc.Prefix, "Prefix", "sequential", ""},             // 1-D recurrence: no plane, and its consumer iterates I, not the streamed I2
		{"psrc/Relaxation", psrc.Relaxation, "Relaxation", "sequential", ""}, // inner loops already DOALL
		{"psrc/Heat1D", psrc.Heat1D, "Heat1D", "sequential", ""},             // inner loop already DOALL
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := ps.CompileProgram(tc.name+".ps", tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			m := prog.Module(tc.module)
			compact := m.PlanCompact()
			off := m.PlanCompactWith(ps.PlanOptions{Hyperplane: ps.HyperplaneOff})
			if strings.Contains(off, "WAVEFRONT") || strings.Contains(off, "PIPELINE") {
				t.Errorf("hyperplane-off plan still restructured: %q", off)
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
			case "pipeline":
				if strings.Contains(compact, "WAVEFRONT") {
					t.Errorf("wavefront-ineligible program was transformed: %q", compact)
				}
				if !strings.Contains(compact, "PIPELINE") {
					t.Errorf("expected a pipeline step in auto plan, got %q", compact)
				}
				run, err := prog.Prepare(tc.module, ps.Workers(2))
				if err != nil {
					t.Fatal(err)
				}
				explain := run.Explain()
				for _, want := range []string{"auto-pipeline", "cascade:", "-> pipeline", "wavefront rejected:"} {
					if !strings.Contains(explain, want) {
						t.Errorf("Explain does not surface the cascade decision (missing %q):\n%s", want, explain)
					}
				}
			default:
				if strings.Contains(compact, "WAVEFRONT") || strings.Contains(compact, "PIPELINE") {
					t.Errorf("ineligible program was transformed: %q", compact)
				}
				if off != compact {
					t.Errorf("auto and off plans differ for ineligible program:\n auto %q\n off  %q", compact, off)
				}
			}
		})
	}
}

// TestMultiEquationWavefront pins the multi-equation tentpole shapes:
// a coupled two-recurrence component lowers to a single wavefront step
// carrying both kernels, the §5-fused variants of the splittable
// corpus programs collapse their merged bodies into one multi-kernel
// wavefront, and a prepared Runner's Explain lists the equations
// sharing the group's π under the wavefront step.
func TestMultiEquationWavefront(t *testing.T) {
	countWavefronts := func(compact string) int { return strings.Count(compact, "WAVEFRONT") }

	coupled, err := ps.CompileProgram("coupled.ps", mustRead(t, "testdata/coupled.ps"))
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

	// Fusion synergy: mutual's base variant wavefronts too since the
	// re-merge pre-pass rejoins the two inner nests the scheduler split
	// (so base and fused agree); fuse_pair's top-level siblings are NOT
	// re-merged — it keeps two singleton wavefronts until §5 fusion
	// merges them into one two-kernel wavefront.
	for _, tc := range []struct {
		file, module string
		baseWF       int
		fusedCompact string
	}{
		{"testdata/mutual.ps", "Mutual", 1, "WAVEFRONT[pi=(1,1)] I×J (eq.2; eq.1)"},
		{"testdata/fuse_pair.ps", "FusePair", 2, "WAVEFRONT[pi=(1,1)] I×J (eq.1; eq.2)"},
	} {
		prog, err := ps.CompileProgram(tc.file, mustRead(t, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		mod := prog.Module(tc.module)
		if got := countWavefronts(mod.PlanCompact()); got != tc.baseWF {
			t.Errorf("%s base plan has %d wavefront steps, want %d: %q", tc.module, got, tc.baseWF, mod.PlanCompact())
		}
		fused := mod.PlanCompactWith(ps.PlanOptions{Fused: true})
		if countWavefronts(fused) != 1 || !strings.Contains(fused, tc.fusedCompact) {
			t.Errorf("%s fused plan is not a single multi-kernel wavefront: %q", tc.module, fused)
		}
	}
}

// TestVariantParityConcurrent runs the parallel fused variant of every
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
			seqRef, err := prog.Run(tp.module, tp.args, ps.Sequential())
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
