// Command psrepro regenerates every artifact of the paper's evaluation:
// the Figure 1 module, the Figure 3 dependency graph, the Figure 5
// component table, the Figure 6 and Figure 7 flowcharts, the §3.4
// virtual-dimension report, and the complete §4 hyperplane analysis
// (inequalities, time vector, transformation, rewritten recurrence,
// rescheduled flowchart, window).
//
// Usage:
//
//	psrepro            # everything
//	psrepro -only fig5 # one artifact: fig1|fig3|fig5|fig6|fig7|sec3.4|sec4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro"
	"repro/ps"
)

func main() {
	only := flag.String("only", "", "artifact to print (default: all)")
	flag.Parse()

	eng := ps.NewEngine()
	defer eng.Close()
	jac, err := eng.Compile("relaxation.ps", repro.Source("relaxation"))
	if err != nil {
		log.Fatal(err)
	}
	gs, err := eng.Compile("gs.ps", repro.Source("gauss_seidel"))
	if err != nil {
		log.Fatal(err)
	}
	jm := jac.Module("Relaxation")
	gm := gs.Module("Relaxation")

	want := func(id string) bool { return *only == "" || strings.EqualFold(*only, id) }
	shown := false

	if want("fig1") {
		shown = true
		section("Figure 1: the Relaxation module (parsed and pretty-printed)")
		fmt.Print(jm.Source())
	}
	if want("fig3") {
		shown = true
		section("Figure 3: dependency graph for the Relaxation module")
		fmt.Print(jm.GraphListing())
	}
	if want("fig5") {
		shown = true
		section("Figure 5: component graph and corresponding flowcharts")
		fmt.Printf("%-4s %-22s %s\n", "#", "node(s)", "flowchart")
		for i, c := range jm.Components() {
			parts := strings.SplitN(c, "} => ", 2)
			nodes := strings.TrimPrefix(parts[0], "{")
			fmt.Printf("%-4d %-22s %s\n", i+1, nodes, parts[1])
		}
	}
	if want("fig6") {
		shown = true
		section("Figure 6: flowchart for the Relaxation module (Equation 1)")
		fmt.Print(jm.Flowchart())
	}
	if want("fig7") {
		shown = true
		section("Figure 7: flowchart with revised eq.3 (Equation 2)")
		fmt.Print(gm.Flowchart())
	}
	if want("sec3.4") {
		shown = true
		section("§3.4: virtual dimensions")
		for _, v := range jm.VirtualDims() {
			fmt.Printf("Equation 1 version: array %s, dimension %d virtual, window %d (subrange %s)\n",
				v.Array, v.Dim, v.Window, v.Subrange)
		}
		for _, v := range gm.VirtualDims() {
			fmt.Printf("Equation 2 version: array %s, dimension %d virtual, window %d (subrange %s)\n",
				v.Array, v.Dim, v.Window, v.Subrange)
		}
	}
	if want("sec4") {
		shown = true
		section("§4: restructuring transformation of the Equation 2 recurrence")
		hp, err := gm.Hyperplane("eq.3")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dependences (LHS - RHS):   %v\n", hp.Dependences)
		fmt.Printf("dependence inequalities:   %v\n", hp.Inequalities)
		fmt.Printf("least integer solution:    %v  =>  %s\n", hp.TimeVector, hp.TimeEquation)
		fmt.Printf("transformation T:          %s\n", hp.T)
		fmt.Printf("inverse T^-1:              %s\n", hp.TInv)
		fmt.Printf("transformed dependences:   %v\n", hp.TransformedDeps)
		fmt.Printf("window of transformed dim: %d\n", hp.Window)
		fmt.Println("\ntransformed module:")
		fmt.Print(hp.TransformedSource)

		prog2, err := eng.Compile("gsh.ps", hp.TransformedSource)
		if err != nil {
			log.Fatal(err)
		}
		m2 := prog2.Module(hp.TransformedModule)
		fmt.Println("\nschedule after transformation (cf. Figure 6):")
		fmt.Print(m2.Flowchart())
	}
	if !shown {
		fmt.Fprintf(os.Stderr, "psrepro: unknown artifact %q\n", *only)
		os.Exit(2)
	}
}

func section(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}
