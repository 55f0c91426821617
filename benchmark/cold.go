package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/ps"
)

// coldInst is one round of cold_start. An op is one sweep over the set,
// each program paying what `psrun file.ps -in x.json` pays in-process:
// a new engine, a compile that misses the cache, Prepare, the inputs
// parsed from JSON, the first Run, the results encoded to JSON, Close.
type coldInst struct {
	acts   []*activation
	inputs [][]byte // each program's -in file
	out    [][]byte
}

func newColdInst(acts []*activation) (*coldInst, error) {
	in := &coldInst{acts: acts, out: make([][]byte, len(acts))}
	for _, a := range acts {
		data, err := json.Marshal(a.inputsJSON())
		if err != nil {
			return nil, err
		}
		in.inputs = append(in.inputs, data)
	}
	return in, nil
}

func setupCold(r *run) (instance, error) {
	in, err := newColdInst(newActivations(seededRand(r.cfg.seed), r.w.set))
	if err != nil {
		return nil, err
	}
	for k := 0; k < r.w.warm; k++ {
		in.sweep(r, newSamples(), nil, true)
	}
	return in, nil
}

func (in *coldInst) close() {}

// coldPass takes one program from source text to JSON result, a span
// around each public call.
func coldPass(tr *tracer, root int32, workers int, a *activation, inputs []byte, s *samples) ([]byte, error) {
	ctx := context.Background()

	sp := tr.child("ps.engine_new", root)
	eng := ps.NewEngine(ps.EngineWorkers(workers))
	tr.end(sp)
	defer func() {
		sp := tr.child("ps.engine_close", root)
		eng.Close()
		tr.end(sp)
	}()

	sp = tr.child("ps.compile", root)
	prog, err := eng.Compile(a.prog.name+".ps", a.src)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.child("ps.prepare", root)
	run, err := prog.Prepare(a.prog.module)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.child("ps.args_from_json", root)
	var raw map[string]json.RawMessage
	err = json.Unmarshal(inputs, &raw)
	var args []any
	if err == nil {
		args, err = ps.ArgsFromJSON(prog, a.prog.module, raw)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	// Run, not TraceRun, also in the traced pass: the recorder's set-up
	// would be a quarter of so short a first run, and the phases below
	// are meant to be what an untraced caller pays.
	sp = tr.child("ps.first_run", root)
	results, st, err := run.Run(ctx, args)
	tr.end(sp)
	s.ctr.add(st)
	if err != nil {
		return nil, err
	}

	sp = tr.child("ps.results_to_json", root)
	var out []byte
	obj, err := ps.ResultsToJSON(prog, a.prog.module, results)
	if err == nil {
		out, err = json.Marshal(obj)
	}
	tr.end(sp)
	return out, err
}

// checkOutput compares one program's JSON result text with the
// reference.
func checkOutput(a *activation, out []byte) error {
	var results map[string]json.RawMessage
	if err := json.Unmarshal(out, &results); err != nil {
		return fmt.Errorf("%s: %w", a.prog.name, err)
	}
	return a.checkJSON(results)
}

func (in *coldInst) sweep(r *run, s *samples, tr *tracer, verify bool) {
	root := tr.root("op", r.op(), 0)
	start := time.Now()
	var err error
	for k, a := range in.acts {
		var perr error
		in.out[k], perr = coldPass(tr, root, r.cfg.workers, a, in.inputs[k], s)
		if err == nil {
			err = perr
		}
	}
	elapsed := time.Since(start)
	tr.end(root)
	s.opMs = append(s.opMs, ms(elapsed))
	s.wall += elapsed

	if verify {
		for k, a := range in.acts {
			if err == nil {
				err = checkOutput(a, in.out[k])
			}
		}
		r.verified++
	}
	r.attempt(err)
}

func (in *coldInst) measure(r *run, s *samples, d time.Duration, tr *tracer) {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		in.sweep(r, s, tr, tr != nil || n%16 == 0)
	}
}

// layers has nothing to add per round: the traced ops are the cold
// path, and the psrun probe runs once, in finishCold.
func (in *coldInst) layers(*run, time.Duration, *tracer) {}

// probeCold takes the workload's programs through the cold path a few
// times, so the ps.* phase metrics describe that workload's own programs
// at its own sizes. On cold_start these are simply more of its ops.
func probeCold(r *run, tr *tracer, budget time.Duration) error {
	in, err := newColdInst(newActivations(seededRand(r.cfg.seed), r.w.set))
	if err != nil {
		return err
	}
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < budget; n++ {
		in.sweep(r, r.samples("coldprobe"), tr, true)
	}
	return nil
}

// probeCompile times what a compile is made of, over the workload's
// programs: the front-end layers one by one (layers.go), a cache hit,
// the compiled size and C generation. Counts come from the last
// repetition; they are the same in every one.
func probeCompile(r *run, tr *tracer) error {
	set := r.w.set
	const reps = 15
	var counts frontEndCounts
	var compiledBytes int64
	var cBytes int
	s := r.samples("compile")
	for rep := 0; rep < reps; rep++ {
		root := tr.root("probe.compile", r.op(), 0)
		counts, compiledBytes, cBytes = frontEndCounts{}, 0, 0
		for _, sz := range set {
			p := programs[sz.prog]
			file, src := p.name+".ps", p.source()
			c, err := probeFrontEnd(tr, root, file, src)
			if err != nil {
				return err
			}
			counts.add(c)

			eng := ps.NewEngine(ps.EngineWorkers(r.cfg.workers))
			prog, err := eng.Compile(file, src)
			if err != nil {
				eng.Close()
				return err
			}
			t0 := time.Now()
			_, err = eng.Compile(file, src)
			s.put("hit_us."+p.name, us(time.Since(t0)))
			compiledBytes += eng.Stats().CacheBytes
			eng.Close()
			if err != nil {
				return err
			}

			sp := tr.child("cgen.generate", root)
			c99, err := prog.Module(p.module).GenerateC(ps.CGenOptions{})
			tr.end(sp)
			if err != nil {
				return err
			}
			cBytes += len(c99)
		}
		tr.end(root)
	}

	spanUs := func(name string) float64 { return median(tr.perOp(name)) }
	r.layer["lexer.scan_us"] = spanUs("lexer.scan")
	r.layer["lexer.tokens"] = float64(counts.tokens)
	r.layer["parser.parse_us"] = spanUs("parser.parse")
	r.layer["sem.check_us"] = spanUs("sem.check")
	r.layer["depgraph.build_us"] = spanUs("depgraph.build")
	r.layer["core.schedule_us"] = spanUs("core.schedule")
	r.layer["plan.lower_base_us"] = spanUs("plan.lower_base")
	r.layer["plan.lower_all6_us"] = spanUs("plan.lower_all6")
	r.layer["plan.steps"] = float64(counts.steps)
	r.layer["plan.wavefront_nests"] = float64(counts.wavefrontNests)
	r.layer["plan.pipeline_nests"] = float64(counts.pipelineNests)
	r.layer["plan.sequential_nests"] = float64(counts.sequentialNests)
	r.layer["interp.compile_us"] = spanUs("interp.compile")
	// Derived: interp.Compile repeats the scheduling and the six
	// lowerings timed above; what is left is kernel compilation.
	r.layer["interp.kernel_compile_us"] = r.layer["interp.compile_us"] - r.layer["depgraph.build_us"] -
		r.layer["core.schedule_us"] - r.layer["plan.lower_all6_us"]
	r.layer["interp.compiled_kb"] = float64(compiledBytes) / 1024
	r.layer["cgen.generate_us"] = spanUs("cgen.generate")
	r.layer["cgen.c_bytes"] = float64(cBytes)
	var hit float64
	for _, sz := range set {
		hit += median(s.series["hit_us."+sz.prog])
	}
	r.layer["ps.compile_hit_us"] = hit

	r.layer["ps.engine_new_us"] = spanUs("ps.engine_new")
	r.layer["ps.compile_us"] = spanUs("ps.compile")
	r.layer["ps.prepare_us"] = spanUs("ps.prepare")
	r.layer["ps.args_from_json_us"] = spanUs("ps.args_from_json")
	r.layer["ps.first_run_us"] = spanUs("ps.first_run")
	r.layer["ps.results_to_json_us"] = spanUs("ps.results_to_json")
	return nil
}

// finishCold runs the real CLI: the psrun binary, built from this tree,
// on the same sources and inputs as files.
func finishCold(r *run, tr *tracer) {
	if err := probePsrun(r, tr); err != nil {
		r.attempt(fmt.Errorf("psrun probe: %w", err))
	}
}

func probePsrun(r *run, tr *tracer) error {
	dir := filepath.Join(r.cfg.outDir, "psrun")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "psrun"))
	if err != nil {
		return err
	}
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/psrun").CombinedOutput(); err != nil {
		return fmt.Errorf("go build psrun: %v\n%s", err, out)
	}
	acts := newActivations(seededRand(r.cfg.seed), r.w.set)
	const reps = 7
	var wallMs, maxRSS float64
	for _, a := range acts {
		src := filepath.Join(dir, a.prog.name+".ps")
		inputs := filepath.Join(dir, a.prog.name+".json")
		data, err := json.Marshal(a.inputsJSON())
		if err != nil {
			return err
		}
		if err := os.WriteFile(src, []byte(a.src), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(inputs, data, 0o644); err != nil {
			return err
		}
		var walls []float64
		for rep := 0; rep < reps; rep++ {
			root := tr.root("probe.psrun", r.op(), 0)
			sp := tr.child("cmd.psrun."+a.prog.name, root)
			cmd := exec.Command(bin, "-workers", strconv.Itoa(r.cfg.workers), "-in", inputs, src)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			t0 := time.Now()
			err := cmd.Run()
			walls = append(walls, ms(time.Since(t0)))
			tr.end(sp)
			tr.end(root)
			if err != nil {
				err = fmt.Errorf("psrun %s: %v: %s", a.prog.name, err, stderr.Bytes())
			} else {
				err = checkOutput(a, stdout.Bytes())
			}
			r.checked(err)
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
				maxRSS = max(maxRSS, float64(ru.Maxrss)/1024)
			}
		}
		wallMs += median(walls)
	}
	r.layer["cmd.psrun_wall_ms"] = wallMs
	r.layer["cmd.psrun_maxrss_mb"] = maxRSS
	// What a process costs over the same work done in-process: one op is
	// the same eight programs, engine and compile included.
	r.layer["cmd.process_overhead_ms"] = wallMs - median(r.samples("untraced").opMs)
	return nil
}
