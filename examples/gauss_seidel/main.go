// Gauss–Seidel reproduces paper §4: the revised relaxation (Equation 2)
// schedules as the all-iterative nest of Figure 7; the hyperplane
// analysis solves the five dependence inequalities for the least time
// vector (a=2, b=c=1), builds the unimodular coordinate change
// K'=2K+I+J, I'=K, J'=I, rewrites the module, reschedules it to the
// Figure 6 shape, and runs both versions to show the recovered
// parallelism and identical results. Both versions run under a context
// deadline through prepared Runners on one shared engine.
//
//	go run ./examples/gauss_seidel [-m 256] [-k 16] [-workers 0] [-timeout 1m]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"repro"
	"repro/ps"
)

func main() {
	m := flag.Int64("m", 256, "grid size M (interior M×M)")
	k := flag.Int64("k", 16, "iterations maxK")
	workers := flag.Int("workers", 0, "DOALL workers (0 = all CPUs)")
	timeout := flag.Duration("timeout", time.Minute, "overall deadline covering both executions")
	flag.Parse()

	eng := ps.NewEngine(ps.EngineWorkers(*workers))
	defer eng.Close()
	prog, err := eng.Compile("gs.ps", repro.Source("gauss_seidel"))
	if err != nil {
		log.Fatal(err)
	}
	mod := prog.Module("Relaxation")

	fmt.Println("== schedule before transformation (Figure 7) ==")
	fmt.Print(mod.Flowchart())
	fmt.Println("   (the K, I and J loops are all iterative: no loop parallelism)")

	hp, err := mod.Hyperplane("eq.3")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== hyperplane analysis (§4) ==")
	fmt.Printf("  dependences:            %v\n", hp.Dependences)
	fmt.Printf("  dependence inequalities: %v\n", hp.Inequalities)
	fmt.Printf("  least time vector:      %v   (%s)\n", hp.TimeVector, hp.TimeEquation)
	fmt.Printf("  transformation T:       %s\n", hp.T)
	fmt.Printf("  inverse T⁻¹:            %s\n", hp.TInv)
	fmt.Printf("  transformed offsets:    %v\n", hp.TransformedDeps)
	fmt.Printf("  window after transform: %d planes\n", hp.Window)

	fmt.Println("\n== transformed module ==")
	fmt.Print(hp.TransformedSource)

	prog2, err := eng.Compile("gsh.ps", hp.TransformedSource)
	if err != nil {
		log.Fatal(err)
	}
	mod2 := prog2.Module(hp.TransformedModule)
	fmt.Println("\n== schedule after transformation (identical shape to Figure 6) ==")
	fmt.Print(mod2.Flowchart())

	// Execute both versions under one deadline.
	in := ps.NewRealArray(ps.Axis{Lo: 0, Hi: *m + 1}, ps.Axis{Lo: 0, Hi: *m + 1})
	for i := int64(1); i <= *m; i++ {
		for j := int64(1); j <= *m; j++ {
			in.SetF([]int64{i, j}, float64((i*31+j*17)%19)/19.0)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	fmt.Printf("\n== execution (M=%d, maxK=%d, NumCPU=%d) ==\n", *m, *k, runtime.NumCPU())
	seqRun, err := prog.Prepare("Relaxation", ps.Sequential())
	if err != nil {
		log.Fatal(err)
	}
	seqOut, seqStats, err := seqRun.Run(ctx, []any{in, *m, *k})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-36s %10v   (%s)\n", "original (sequential, Figure 7):", seqStats.WallTime, seqStats)

	parRun, err := prog2.Prepare(hp.TransformedModule)
	if err != nil {
		log.Fatal(err)
	}
	parOut, parStats, err := parRun.Run(ctx, []any{in, *m, *k})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-36s %10v   (%s)\n", "transformed (parallel wavefront):", parStats.WallTime, parStats)

	// The compiler also applies §4 automatically: a parallel runner on
	// the *original* module lowers the Figure 7 nest to a wavefront plan
	// (visible in Explain), with no source rewrite at all.
	autoRun, err := prog.Prepare("Relaxation")
	if err != nil {
		log.Fatal(err)
	}
	autoOut, autoStats, err := autoRun.Run(ctx, []any{in, *m, *k})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-36s %10v   (%s)\n", "original (auto-hyperplane):", autoStats.WallTime, autoStats)

	a, b := seqOut[0].(*ps.Array), parOut[0].(*ps.Array)
	if !a.Equal(b) {
		log.Fatalf("results differ (max diff %g)", a.MaxAbsDiff(b))
	}
	if !a.Equal(autoOut[0].(*ps.Array)) {
		log.Fatalf("auto-hyperplane result differs (max diff %g)", a.MaxAbsDiff(autoOut[0].(*ps.Array)))
	}
	fmt.Println("  identical results ✓")
	fmt.Println("\n== the automatic decision, as the runner reports it ==")
	fmt.Print(autoRun.Explain())
}
