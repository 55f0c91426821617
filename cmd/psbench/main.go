// Command psbench measures the wavefront execution variants on the
// dependence-carrying corpus modules and writes the results as
// machine-readable JSON, so the performance trajectory of the §4
// schedules (sequential baseline, untransformed nest, the default
// wavefront plan, pipeline-first) can be tracked across commits without
// parsing `go test -bench` text.
//
// Usage:
//
//	psbench [-out BENCH_wavefront.json] [-workers N] [-benchtime 200ms]
//	        [-samples N] [-compare old.json] [-compare-threshold 0.10]
//	        [-compare-noise 100us] [-compare-min-runs 5]
//	        [-cpuprofile f] [-memprofile f]
//
// The output maps benchmark names (module/Variant) to ns/op and
// allocations per run:
//
//	{"workers": 4, "benchmarks": [
//	  {"name": "gauss_seidel/Seq", "ns_per_op": 1842003, "allocs_per_op": 12, "runs": 8},
//	  {"name": "gauss_seidel/AutoPar4", "ns_per_op": 612345, "allocs_per_op": 90, "runs": 21},
//	  ...]}
//
// Each variant is measured -samples times and the fastest sample is
// reported: benchmark noise is additive, so min-of-runs rejects it.
// The TracedAutoPar variant runs under the execution recorder
// (Runner.TraceRun) so the recording-on cost is tracked alongside the
// untraced schedules; -compare reports it but never gates on it.
//
// -compare reads a previous psbench output and fails (exit 1) when any
// benchmark present in both files regressed past -compare-threshold
// ns/op — the CI guard against performance backsliding. Pairs where
// both sides sit under -compare-noise, or where either side ran fewer
// than -compare-min-runs iterations, are reported but never fail the
// gate: such measurements are jitter, not signal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/psrc"
	"repro/ps"
)

// benchResult is one measured variant.
type benchResult struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	Runs        int    `json:"runs"`
}

// benchFile is the JSON document psbench writes.
type benchFile struct {
	Workers    int           `json:"workers"`
	NumCPU     int           `json:"num_cpu"`
	BenchTime  string        `json:"bench_time"`
	Samples    int           `json:"samples,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// workload is one module with concrete arguments.
type workload struct {
	name   string
	src    string
	module string
	args   func() []any
}

// activationChain is the repeated-activation workload: a pipeline of
// local stage arrays whose allocation (not computation) dominates the
// run, so the arena's effect on allocs/op is directly visible in the
// Seq vs SeqNoArena pair.
const activationChain = `
ActChain: module (X: array[I,J] of real; N: int): [Out: array[I,J] of real];
type
    I, J = 1 .. N;
var
    S1, S2, S3, S4, S5, S6, S7, S8, S9, S10, S11, S12: array[I,J] of real;
define
    S1[I,J] = X[I,J] + 1.0;
    S2[I,J] = S1[I,J] * 0.5;
    S3[I,J] = S2[I,J] + S1[I,J];
    S4[I,J] = S3[I,J] * 0.25;
    S5[I,J] = S4[I,J] - S2[I,J];
    S6[I,J] = S5[I,J] * S3[I,J];
    S7[I,J] = S6[I,J] + S4[I,J];
    S8[I,J] = S7[I,J] * 0.125;
    S9[I,J] = S8[I,J] + S6[I,J];
    S10[I,J] = S9[I,J] * S7[I,J];
    S11[I,J] = S10[I,J] - S8[I,J];
    S12[I,J] = S11[I,J] * 0.5;
    Out[I,J] = S12[I,J] + S1[I,J];
end ActChain;
`

// seedGrid builds an (m+2)×(m+2) grid with zero boundary.
func seedGrid(m int64) *ps.Array {
	a := ps.NewRealArray(ps.Axis{Lo: 0, Hi: m + 1}, ps.Axis{Lo: 0, Hi: m + 1})
	for i := int64(1); i <= m; i++ {
		for j := int64(1); j <= m; j++ {
			a.SetF([]int64{i, j}, float64((i*31+j*17)%19)/19.0)
		}
	}
	return a
}

// seedCube builds an (n+1)³ grid over [0,n]³ (the Heat3D domain).
func seedCube(n int64) *ps.Array {
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

// seedSymbols builds a 1-D int array over [1,n] with a small alphabet,
// so the edit-distance comparisons hit both matches and mismatches.
func seedSymbols(n int64) *ps.Array {
	a := ps.NewIntArray(ps.Axis{Lo: 1, Hi: n})
	for i := int64(1); i <= n; i++ {
		a.SetI([]int64{i}, (i*5+3)%4)
	}
	return a
}

// seedSquare builds an n×n grid over [1,n]² (the Reflect domain).
func seedSquare(n int64) *ps.Array {
	a := ps.NewRealArray(ps.Axis{Lo: 1, Hi: n}, ps.Axis{Lo: 1, Hi: n})
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			a.SetF([]int64{i, j}, float64((i*7+j*3)%11)/11.0)
		}
	}
	return a
}

func main() {
	// testing.Init registers the -test.* flags so testing.Benchmark can
	// be steered; -benchtime below maps onto -test.benchtime.
	testing.Init()
	out := flag.String("out", "BENCH_wavefront.json", "output JSON path (- for stdout)")
	workers := flag.Int("workers", 0, "parallel worker count (0 = all CPUs, min 2)")
	benchtime := flag.Duration("benchtime", 200*time.Millisecond, "minimum measuring time per variant")
	serveMode := flag.Bool("serve", false, "benchmark the HTTP serving layer (requests/s at client concurrency 1/8/64) instead of the wavefront variants")
	serveOut := flag.String("serve-out", "BENCH_serve.json", "output JSON path for -serve (- for stdout)")
	samples := flag.Int("samples", 3, "measurements per variant; the fastest is reported (min-of-runs noise rejection)")
	compare := flag.String("compare", "", "previous psbench JSON to compare against; exit 1 on regression past -compare-threshold")
	compareThreshold := flag.Float64("compare-threshold", 0.10, "relative ns/op slowdown that fails -compare (0.10 = +10%)")
	compareNoise := flag.Duration("compare-noise", 100*time.Microsecond, "ns/op below which both sides of a -compare pair are treated as jitter, never a regression")
	compareMinRuns := flag.Int("compare-min-runs", 5, "benchmark iteration count below which either side of a -compare pair is too noisy to gate on")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark runs to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	flag.Parse()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fatal(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	w := *workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w < 2 {
		// One worker never exercises the parallel schedules; measure the
		// dispatch overhead at minimal width instead of skipping them.
		w = 2
	}

	if *serveMode {
		if err := runServeBench(*serveOut, w, *benchtime*3); err != nil {
			fatal(err)
		}
		return
	}

	workloads := []workload{
		{"gauss_seidel", psrc.RelaxationGS, "Relaxation",
			func() []any { return []any{seedGrid(96), int64(96), int64(6)} }},
		{"wavefront2d", psrc.Wavefront2D, "Wavefront2D",
			func() []any { return []any{seedGrid(128), int64(128)} }},
		// The 3-D wavefront: pi = (1,1,1) planes grow and shrink across
		// the cube, stressing plane-size-dependent dispatch.
		{"heat3d", psrc.Heat3D, "Heat3D",
			func() []any { return []any{seedCube(40), int64(40)} }},
		// The boundary-equation DP wavefront: two boundary DOALLs ahead
		// of an anti-diagonal interior with integer-sequence reads.
		{"edit_distance", psrc.EditDistance, "EditDistance",
			func() []any { return []any{seedSymbols(192), seedSymbols(224), int64(192), int64(224)} }},
		// The two pipeline-cascade workloads: reflect decouples under the
		// auto cascade (its reflected-column read defeats the wavefront),
		// mutual wavefronts under auto and decouples under PipelinePar.
		{"reflect", psrc.Reflect, "Reflect",
			func() []any { return []any{seedSquare(128), int64(128)} }},
		{"mutual", psrc.Mutual, "Mutual",
			func() []any { return []any{seedGrid(128), int64(128)} }},
		{"activation_chain", activationChain, "ActChain",
			func() []any {
				const n = 32
				a := ps.NewRealArray(ps.Axis{Lo: 1, Hi: n}, ps.Axis{Lo: 1, Hi: n})
				for i := int64(1); i <= n; i++ {
					for j := int64(1); j <= n; j++ {
						a.SetF([]int64{i, j}, float64((i*7+j)%13)/13.0)
					}
				}
				return []any{a, int64(n)}
			}},
	}
	variants := []struct {
		name   string
		opts   []ps.RunOption
		traced bool
	}{
		{"Seq", []ps.RunOption{ps.Sequential()}, false},
		// SeqNoArena isolates the arena's contribution: identical
		// execution with activation-array pooling disabled.
		{"SeqNoArena", []ps.RunOption{ps.Sequential(), ps.NoArena()}, false},
		{fmt.Sprintf("HyperOffPar%d", w), []ps.RunOption{ps.Workers(w), ps.WithHyperplane(ps.HyperplaneOff)}, false},
		{fmt.Sprintf("AutoPar%d", w), []ps.RunOption{ps.Workers(w)}, false},
		{fmt.Sprintf("PipelinePar%d", w), []ps.RunOption{ps.Workers(w), ps.WithSchedule(ps.SchedulePipeline)}, false},
		// TracedAutoPar measures the recording-on cost of the execution
		// recorder (TraceRun vs the AutoPar baseline). It is recorded
		// for the trajectory but exempt from the -compare gate: tracing
		// overhead is allowed to move as instrumentation grows.
		{fmt.Sprintf("TracedAutoPar%d", w), []ps.RunOption{ps.Workers(w)}, true},
	}

	doc := benchFile{Workers: w, NumCPU: runtime.NumCPU(), BenchTime: benchtime.String(), Samples: *samples}
	eng := ps.NewEngine(ps.EngineWorkers(w))
	defer eng.Close()
	for _, wl := range workloads {
		prog, err := eng.Compile(wl.name+".ps", wl.src)
		if err != nil {
			fatal(err)
		}
		args := wl.args()
		for _, v := range variants {
			run, err := prog.Prepare(wl.module, v.opts...)
			if err != nil {
				fatal(err)
			}
			// Warm once: allocations and pool spin-up land outside the
			// timing.
			if _, _, err := run.Run(nil, args); err != nil {
				fatal(err)
			}
			res := minBenchmark(*samples, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if v.traced {
						if _, _, _, err := run.TraceRun(nil, args); err != nil {
							b.Fatal(err)
						}
					} else if _, _, err := run.Run(nil, args); err != nil {
						b.Fatal(err)
					}
				}
			})
			doc.Benchmarks = append(doc.Benchmarks, benchResult{
				Name:        wl.name + "/" + v.name,
				NsPerOp:     res.NsPerOp(),
				AllocsPerOp: res.AllocsPerOp(),
				Runs:        res.N,
			})
			fmt.Fprintf(os.Stderr, "psbench: %-32s %12d ns/op %8d allocs/op (n=%d)\n",
				wl.name+"/"+v.name, res.NsPerOp(), res.AllocsPerOp(), res.N)
		}
	}

	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}

	if *compare != "" {
		err := compareAgainst(*compare, &doc, compareOptions{
			Threshold:  *compareThreshold,
			NoiseFloor: *compareNoise,
			MinRuns:    *compareMinRuns,
		})
		if err != nil {
			fatal(err)
		}
	}
}

// readBenchFile parses a previous psbench output.
func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	var old benchFile
	if err := json.Unmarshal(data, &old); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return &old, nil
}

// minBenchmark measures fn samples times and keeps the fastest result.
// Benchmark noise is strictly additive (scheduler preemption, GC
// pauses, frequency transitions all slow an iteration, never speed it
// up), so the minimum across repeated measurements is the standard
// low-variance estimator — a single sample can be unlucky and trip the
// -compare gate on a quiet-vs-noisy-host pairing.
func minBenchmark(samples int, fn func(*testing.B)) testing.BenchmarkResult {
	if samples < 1 {
		samples = 1
	}
	best := testing.Benchmark(fn)
	for i := 1; i < samples; i++ {
		if r := testing.Benchmark(fn); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psbench:", err)
	os.Exit(1)
}
