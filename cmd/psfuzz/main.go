// Command psfuzz runs a seeded differential-fuzzing campaign: it
// generates random well-typed PS programs across every scheduler
// eligibility class, runs each one under the full variant matrix (and,
// when a C compiler is given, against the emitted C), minimizes any
// divergence with the built-in shrinker, and writes reproducible
// artifacts to -out.
//
// Exit status: 0 clean, 1 if any program diverged, 2 if -coverage was
// requested and a backend or kernel-path counter stayed at zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"time"

	"repro/internal/psgen"
)

func main() {
	var (
		n        = flag.Int("n", 200, "number of programs to generate")
		seed     = flag.Uint64("seed", 1, "campaign seed (program i uses seed+i)")
		cc       = flag.String("cc", "", `C compiler for the parity leg ("auto" probes for cc; "" skips)`)
		openmp   = flag.Bool("openmp", true, "also compile the C leg with -fopenmp")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-run watchdog")
		out      = flag.String("out", "testdata/fuzz", "directory for minimized repro artifacts")
		quick    = flag.Bool("quick", false, "use the reduced variant matrix")
		coverage = flag.Bool("coverage", false, "fail if any cascade backend or kernel path was never reached")
		verbose  = flag.Bool("v", false, "print every generated program's class and backends")
	)
	flag.Parse()

	if *cc == "auto" {
		if path, err := exec.LookPath("cc"); err == nil {
			*cc = path
		} else {
			fmt.Fprintln(os.Stderr, "psfuzz: no cc found, skipping C parity leg")
			*cc = ""
		}
	}
	opts := psgen.Options{CC: *cc, OpenMP: *openmp, Timeout: *timeout, Quick: *quick}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	report := psgen.NewReport()
	for i := 0; i < *n && ctx.Err() == nil; i++ {
		sp := psgen.RandomSpec(*seed + uint64(i))
		o := psgen.Check(ctx, sp, opts)
		report.Add(o)
		if *verbose || o.Failed() {
			fmt.Printf("[%d/%d] seed=%d class=%s escape=%s backends=%v findings=%d\n",
				i+1, *n, sp.Seed, sp.Class, sp.Escape, keys(o.Backends), len(o.Findings))
		}
		if o.Failed() {
			for _, f := range o.Findings {
				fmt.Printf("  %s\n", f)
			}
			min := psgen.Shrink(ctx, sp, opts, 0)
			path, err := min.WriteRepro(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "psfuzz: writing repro: %v\n", err)
			} else {
				fmt.Printf("  minimized repro written to %s\n", path)
			}
		}
	}

	fmt.Print(report.String())
	if len(report.Failed) > 0 {
		os.Exit(1)
	}
	if *coverage {
		if gaps := report.CoverageGaps(); len(gaps) > 0 {
			for _, g := range gaps {
				fmt.Fprintf(os.Stderr, "psfuzz: coverage gap: %s never reached\n", g)
			}
			os.Exit(2)
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for _, b := range psgen.AllBackends {
		if m[b] {
			out = append(out, b)
		}
	}
	return out
}
