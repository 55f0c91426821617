package main

// This is the only file of the benchmark that imports repro/internal/*.
// It times the front-end layers by making the calls ps.compileProgram
// and interp.Compile make today, around the same inputs; everything
// else drives the system through repro/ps, repro/ps/serve and the psrun
// binary.

import (
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/interp"
	"repro/internal/lexer"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/sem"
	"repro/internal/token"
)

// frontEndCounts are the exact counts one source text produces on its
// way through the front end; they repeat exactly from run to run.
type frontEndCounts struct {
	tokens int
	// steps and the nest counts describe the plan parallel runs execute
	// by default (the auto cascade).
	steps, wavefrontNests, pipelineNests, sequentialNests int
}

func (c *frontEndCounts) add(o frontEndCounts) {
	c.tokens += o.tokens
	c.steps += o.steps
	c.wavefrontNests += o.wavefrontNests
	c.pipelineNests += o.pipelineNests
	c.sequentialNests += o.sequentialNests
}

// sixVariants are the plan variants interp.Compile lowers eagerly.
var sixVariants = []plan.Options{
	{}, {Fuse: true}, {Hyperplane: true}, {Fuse: true, Hyperplane: true},
	{Hyperplane: true, PipelineFirst: true}, {Fuse: true, Hyperplane: true, PipelineFirst: true},
}

// probeFrontEnd drives one source through every front-end layer, a span
// around each call. parser.parse includes the scanning the parser does
// itself, and interp.compile repeats depgraph, core and the six
// lowerings before compiling kernels, which is why kernel compilation
// is reported as a difference.
func probeFrontEnd(tr *tracer, parent int32, name, src string) (frontEndCounts, error) {
	var c frontEndCounts

	sp := tr.child("lexer.scan", parent)
	lx := lexer.New(name, src, nil)
	for lx.Next().Kind != token.EOF {
		c.tokens++
	}
	tr.end(sp)

	sp = tr.child("parser.parse", parent)
	parsed, err := parser.ParseProgram(name, src)
	tr.end(sp)
	if err != nil {
		return c, err
	}

	sp = tr.child("sem.check", parent)
	checked, err := sem.CheckNamed(name, parsed)
	tr.end(sp)
	if err != nil {
		return c, err
	}

	for _, m := range checked.Modules {
		sp = tr.child("depgraph.build", parent)
		g := depgraph.Build(m)
		tr.end(sp)

		sp = tr.child("core.schedule", parent)
		schedule, err := core.Build(g)
		tr.end(sp)
		if err != nil {
			return c, err
		}

		sp = tr.child("plan.lower_base", parent)
		plan.Lower(m, schedule, plan.Options{})
		tr.end(sp)

		sp = tr.child("plan.lower_all6", parent)
		var auto *plan.Program
		for _, o := range sixVariants {
			pl := plan.Lower(m, schedule, o)
			if o == (plan.Options{Hyperplane: true}) {
				auto = pl
			}
		}
		tr.end(sp)

		c.steps += len(auto.Steps)
		for _, d := range auto.Cascade {
			switch d.Choice {
			case "wavefront":
				c.wavefrontNests++
			case "pipeline":
				c.pipelineNests++
			case "sequential":
				c.sequentialNests++
			}
		}
	}

	sp = tr.child("interp.compile", parent)
	_, err = interp.Compile(checked)
	tr.end(sp)
	return c, err
}
