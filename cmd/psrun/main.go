// Command psrun executes a PS module with JSON inputs and prints its
// results as JSON.
//
// Usage:
//
//	psrun [-module name] [-workers N] [-seq] [-strict] [-grain N]
//	      [-timeout d] [-stats] [-trace out.json] [-explain]
//	      [-in inputs.json] [-cpuprofile f] [-memprofile f] file.ps
//
// The input file maps parameter names to values: scalars as JSON numbers
// or booleans, arrays as (nested) JSON lists. Array parameter bounds are
// taken from the declared dimensions, so scalar size parameters must be
// consistent with the array data, e.g. for the relaxation module:
//
//	{"InitialA": [[0,0,0,0],[0,1,2,0],[0,3,4,0],[0,0,0,0]], "M": 2, "maxK": 8}
//
// -timeout bounds the run with a context deadline; -stats prints the
// run's counters (equation instances, DOALL chunks, workers, wall time)
// plus a per-schedule timing breakdown (compute/stall/idle per worker)
// to standard error. -trace records the run and writes a Chrome
// trace-event JSON timeline (loadable in Perfetto or chrome://tracing)
// to the named file; -stats and -trace share one traced execution.
// -cpuprofile and -memprofile write pprof profiles covering the run
// (CPU sampled across it, heap captured at exit); CPU samples are
// tagged with ps_module/ps_step/ps_eqs pprof labels. -explain prints
// the lowered loop plan the selected options would execute — the flat
// IR shared by the interpreter and the C generator — without running
// the module.
//
// Failures are reported as typed diagnostics (phase, module, equation,
// source position). Exit status is 1 for program diagnostics (parse,
// check, schedule and run failures) and 2 for usage errors (bad flags,
// unreadable files, unknown module).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/ps"
)

func main() {
	module := flag.String("module", "", "module to run (default: last in file)")
	workers := flag.Int("workers", 0, "DOALL workers (0 = all CPUs)")
	seq := flag.Bool("seq", false, "force sequential execution")
	strict := flag.Bool("strict", false, "enable single-assignment checking")
	grain := flag.Int64("grain", 0, "g of the dispatch rule: a DOALL or wavefront step tiles when its average plane holds g x workers points (default 32; a DOALL is one plane); also the minimum tile width")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	stats := flag.Bool("stats", false, "print run statistics and a timing breakdown to stderr")
	trace := flag.String("trace", "", "record the run and write Chrome trace-event JSON to this file")
	explain := flag.Bool("explain", false, "print the lowered loop plan and exit without running")
	inFile := flag.String("in", "", "JSON file with parameter values (default: {} )")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	flag.Parse()

	if flag.NArg() != 1 {
		fatalUsage(errors.New("usage: psrun [flags] file.ps"))
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalUsage(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalUsage(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "psrun:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "psrun:", err)
			}
		}()
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatalUsage(err)
	}

	eng := ps.NewEngine(ps.EngineWorkers(*workers))
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

	opts := []ps.RunOption{ps.Workers(*workers)}
	if *cpuprofile != "" {
		// Tag CPU samples with the executing module/step/equations.
		opts = append(opts, ps.WithProfileLabels())
	}
	if *seq {
		opts = append(opts, ps.Sequential())
	}
	if *strict {
		opts = append(opts, ps.Strict())
	}
	if *grain > 0 {
		opts = append(opts, ps.Grain(*grain))
	}
	run, err := prog.Prepare(name, opts...)
	if err != nil {
		if prog.Module(name) == nil {
			fatalUsage(fmt.Errorf("no module %s (have %v)", name, names))
		}
		fatal(err)
	}

	if *explain {
		fmt.Print(run.Explain())
		return
	}

	inputs := map[string]json.RawMessage{}
	if *inFile != "" {
		data, err := os.ReadFile(*inFile)
		if err != nil {
			fatalUsage(err)
		}
		if err := json.Unmarshal(data, &inputs); err != nil {
			fatalUsage(fmt.Errorf("parsing %s: %w", *inFile, err))
		}
	}
	args, err := ps.ArgsFromJSON(prog, name, inputs)
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// -stats and -trace both want the recorded timeline; one TraceRun
	// serves both. A plain run stays on the unrecorded fast path.
	var results []any
	var runStats *ps.RunStats
	if *stats || *trace != "" {
		var tr *ps.Trace
		results, runStats, tr, err = run.TraceRun(ctx, args)
		if *trace != "" && tr != nil {
			f, ferr := os.Create(*trace)
			if ferr != nil {
				fatalUsage(ferr)
			}
			if werr := tr.WriteChrome(f); werr == nil {
				werr = f.Close()
				if werr != nil {
					fmt.Fprintln(os.Stderr, "psrun:", werr)
				}
			} else {
				f.Close()
				fmt.Fprintln(os.Stderr, "psrun:", werr)
			}
		}
	} else {
		results, runStats, err = run.Run(ctx, args)
	}
	if *stats && runStats != nil {
		fmt.Fprintf(os.Stderr, "psrun: %s\n", runStats)
		if runStats.Timing != nil {
			fmt.Fprintf(os.Stderr, "psrun: timing: %s\n", runStats.Timing)
		}
	}
	if err != nil {
		fatal(err)
	}

	out, err := ps.ResultsToJSON(prog, name, results)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

// fatal reports a program diagnostic and exits 1. Typed *ps.Error values
// are rendered field by field: the failing phase, the module and
// equation involved, and the source position when the front end has one.
func fatal(err error) {
	var pe *ps.Error
	if errors.As(err, &pe) {
		fmt.Fprintf(os.Stderr, "psrun: %v\n", err)
		fmt.Fprintf(os.Stderr, "  phase:    %s\n", pe.Phase)
		if pe.Module != "" {
			fmt.Fprintf(os.Stderr, "  module:   %s\n", pe.Module)
		}
		if pe.Equation != "" {
			fmt.Fprintf(os.Stderr, "  equation: %s\n", pe.Equation)
		}
		if pe.Line > 0 {
			fmt.Fprintf(os.Stderr, "  position: %s:%d:%d\n", pe.File, pe.Line, pe.Column)
		}
	} else {
		fmt.Fprintln(os.Stderr, "psrun:", err)
	}
	os.Exit(1)
}

// fatalUsage reports a command-usage error and exits 2.
func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "psrun:", err)
	os.Exit(2)
}
