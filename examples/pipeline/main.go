// Pipeline demonstrates multi-module PS programs: a driver module invokes
// the Smooth module twice (module calls are an extension beyond the
// paper's single-module examples, following its description of modules as
// functional units). It also shows strict mode as an engine-level
// default, and named arguments through Runner.RunNamed — nested module
// activations share the engine's worker pool and accumulate into the
// same RunStats.
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/ps"
)

func main() {
	// Strict mode (single-assignment verification) is applied to every
	// Runner prepared from this engine's programs.
	eng := ps.NewEngine(ps.EngineWorkers(4), ps.EngineDefaults(ps.Strict()))
	defer eng.Close()
	prog, err := eng.Compile("pipeline.ps", repro.Source("pipeline"))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("modules:", prog.Modules())
	for _, name := range prog.Modules() {
		m := prog.Module(name)
		fmt.Printf("\n== %s schedule ==\n", name)
		fmt.Print(m.Flowchart())
	}

	n := int64(12)
	xs := ps.NewRealArray(ps.Axis{Lo: 0, Hi: n + 1})
	for i := int64(0); i <= n+1; i++ {
		// A noisy ramp: i plus an alternating perturbation.
		v := float64(i)
		if i%2 == 0 {
			v += 0.5
		} else {
			v -= 0.5
		}
		xs.SetF([]int64{i}, v)
	}

	run, err := prog.Prepare("Pipeline")
	if err != nil {
		log.Fatal(err)
	}
	out, stats, err := run.RunNamed(context.Background(),
		map[string]any{"Xs": xs, "N": n})
	if err != nil {
		log.Fatal(err)
	}
	zs := out[0].(*ps.Array)

	fmt.Println("\n== input vs doubly-smoothed output ==")
	for i := int64(0); i <= n+1; i++ {
		fmt.Printf("  x[%2d] = %6.2f   z[%2d] = %6.3f\n",
			i, xs.GetF([]int64{i}), i, zs.GetF([]int64{i}))
	}
	// The two nested Smooth activations count into the same stats.
	fmt.Printf("\n== stats (driver + 2 nested Smooth calls) ==\n%s\n", stats)
}
