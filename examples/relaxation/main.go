// Relaxation reproduces the paper's worked example (Figures 1, 3, 5, 6
// and §3.4): the Jacobi-style relaxation module is compiled, its
// dependency graph and component decomposition printed, the Figure 6
// schedule derived, the §3.4 window-2 virtual dimension reported, and the
// module executed both sequentially and in parallel with timings and
// per-run statistics from the prepared-Runner API.
//
//	go run ./examples/relaxation [-m 256] [-k 32] [-workers 0] [-c]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"

	"repro"
	"repro/ps"
)

func main() {
	m := flag.Int64("m", 256, "grid size M (interior M×M)")
	k := flag.Int64("k", 32, "iterations maxK")
	workers := flag.Int("workers", 0, "DOALL workers (0 = all CPUs)")
	emitC := flag.Bool("c", false, "print the generated C instead of running")
	flag.Parse()

	eng := ps.NewEngine(ps.EngineWorkers(*workers))
	defer eng.Close()
	prog, err := eng.Compile("relaxation.ps", repro.Source("relaxation"))
	if err != nil {
		log.Fatal(err)
	}
	mod := prog.Module("Relaxation")

	fmt.Println("== module (Figure 1) ==")
	fmt.Print(mod.Source())

	fmt.Println("\n== dependency graph (Figure 3) ==")
	fmt.Print(mod.GraphListing())

	fmt.Println("\n== components and per-component flowcharts (Figure 5) ==")
	for i, c := range mod.Components() {
		fmt.Printf("  component %d: %s\n", i+1, c)
	}

	fmt.Println("\n== schedule (Figure 6) ==")
	fmt.Print(mod.Flowchart())

	fmt.Println("\n== virtual dimensions (§3.4) ==")
	for _, v := range mod.VirtualDims() {
		fmt.Printf("  array %s, dimension %d: window of %d planes (subrange %s)\n",
			v.Array, v.Dim, v.Window, v.Subrange)
	}

	if *emitC {
		c, err := mod.GenerateC(ps.CGenOptions{OpenMP: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("\n== generated C ==")
		fmt.Print(c)
		return
	}

	// Build an input grid: zero boundary, deterministic interior.
	in := ps.NewRealArray(ps.Axis{Lo: 0, Hi: *m + 1}, ps.Axis{Lo: 0, Hi: *m + 1})
	for i := int64(1); i <= *m; i++ {
		for j := int64(1); j <= *m; j++ {
			in.SetF([]int64{i, j}, float64((i*31+j*17)%19)/19.0)
		}
	}

	ctx := context.Background()
	args := []any{in, *m, *k}
	run := func(label string, opts ...ps.RunOption) *ps.Array {
		r, err := prog.Prepare("Relaxation", opts...)
		if err != nil {
			log.Fatal(err)
		}
		out, stats, err := r.Run(ctx, args)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-28s %10v   (%s)\n", label, stats.WallTime, stats)
		return out[0].(*ps.Array)
	}

	fmt.Printf("\n== execution (M=%d, maxK=%d, NumCPU=%d) ==\n", *m, *k, runtime.NumCPU())
	seq := run("sequential (DO everything):", ps.Sequential())
	par := run("parallel DOALL:", ps.Workers(*workers))

	if !seq.Equal(par) {
		log.Fatal("results differ between execution modes")
	}
	fmt.Println("  both runs produced identical grids ✓")

	center := []int64{(*m + 1) / 2, (*m + 1) / 2}
	fmt.Printf("  newA[center] = %.6f\n", seq.GetF(center))
}
