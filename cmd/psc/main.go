// Command psc is the PS compiler driver: it parses and schedules a PS
// source file and emits generated C (the paper's output artifact) or any
// of the intermediate analyses.
//
// Usage:
//
//	psc [-module name] [-dump c|flowchart|plan|components|graph|dot|virtual|source]
//	    [-openmp] [-no-virtual] [-hyperplane auto|off]
//	    [-schedule auto|pipeline|doacross] [-transform eq.N] file.ps
//
// Examples:
//
//	psc -dump flowchart relaxation.ps      # Figure 6
//	psc -dump plan relaxation.ps           # lowered loop plan (shared IR)
//	psc -dump plan gs.ps                   # §4 auto-hyperplane wavefront step (π, window)
//	psc -dump plan -hyperplane off gs.ps   # the untransformed DO nest
//	psc -dump c -openmp relaxation.ps      # annotated C with OpenMP pragmas
//	psc -dump c -openmp -schedule doacross gs.ps  # omp ordered/depend doacross nest
//	psc -transform eq.3 gs.ps              # §4 hyperplane-transformed source
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/ps"
)

func main() {
	module := flag.String("module", "", "module to operate on (default: last in file)")
	dump := flag.String("dump", "c", "what to emit: c, flowchart, plan, components, graph, dot, virtual, source")
	openmp := flag.Bool("openmp", false, "emit #pragma omp parallel for above DOALL loops")
	noVirtual := flag.Bool("no-virtual", false, "allocate every dimension physically")
	hyper := flag.String("hyperplane", "auto", "automatic §4 wavefront restructuring of eligible sequential nests: auto or off")
	schedule := flag.String("schedule", "auto", "auto (wavefront nests in C as a per-plane parallel sweep), pipeline (prefer PS-DSWP stage decoupling in the lowering cascade) or doacross (the auto plan, wavefront nests in C as one omp ordered/depend nest)")
	transform := flag.String("transform", "", "apply the §4 hyperplane transformation to the named equation and emit the rewritten PS source")
	flag.Parse()

	var planOpts ps.PlanOptions
	switch *hyper {
	case "auto":
		planOpts.Hyperplane = ps.HyperplaneAuto
	case "off":
		planOpts.Hyperplane = ps.HyperplaneOff
	default:
		fmt.Fprintf(os.Stderr, "psc: invalid -hyperplane %q (want auto or off)\n", *hyper)
		os.Exit(2)
	}
	// doacross names a C form of the auto plan's wavefront nests, not a
	// plan: the runtime has one tile executor and nothing to select.
	cDoacross := *schedule == "doacross"
	if !cDoacross {
		sch, err := ps.ParseSchedule(*schedule)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psc: %v, or doacross for the C form\n", err)
			os.Exit(2)
		}
		planOpts.Schedule = sch
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: psc [flags] file.ps")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	// The engine compile path yields typed *ps.Error diagnostics with
	// phase and source position; psc never executes, so its pool idles.
	eng := ps.NewEngine(ps.EngineWorkers(1))
	defer eng.Close()
	prog, err := eng.Compile(flag.Arg(0), string(src))
	if err != nil {
		fatal(err)
	}
	names := prog.Modules()
	name := *module
	if name == "" {
		name = names[len(names)-1]
	}
	m := prog.Module(name)
	if m == nil {
		fatal(fmt.Errorf("psc: no module %s in %s (have %v)", name, flag.Arg(0), names))
	}

	if *transform != "" {
		hp, err := m.Hyperplane(*transform)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("(* time vector %v; %s; window %d *)\n", hp.TimeVector, hp.TimeEquation, hp.Window)
		fmt.Print(hp.TransformedSource)
		return
	}

	switch *dump {
	case "c":
		c, err := m.GenerateCWith(planOpts, ps.CGenOptions{OpenMP: *openmp, NoVirtual: *noVirtual, Doacross: cDoacross})
		if err != nil {
			fatal(err)
		}
		fmt.Print(c)
	case "flowchart":
		fmt.Print(m.Flowchart())
	case "plan":
		fmt.Print(m.PlanWith(planOpts))
	case "components":
		for i, c := range m.Components() {
			fmt.Printf("component %d: %s\n", i+1, c)
		}
	case "graph":
		fmt.Print(m.GraphListing())
	case "dot":
		fmt.Print(m.GraphDOT())
	case "virtual":
		for _, v := range m.VirtualDims() {
			fmt.Printf("array %s, dimension %d: window %d (subrange %s)\n",
				v.Array, v.Dim, v.Window, v.Subrange)
		}
	case "source":
		fmt.Print(m.Source())
	default:
		fatal(fmt.Errorf("psc: unknown -dump mode %q", *dump))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
