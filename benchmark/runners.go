package main

import (
	"context"
	"math/rand"
	"runtime"
	"time"

	"repro/ps"
)

func seededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// runnerInst is one round of a Runner workload: a fresh engine, the
// set's programs compiled and prepared, arguments built, warmed up. An
// op is one sweep: every prepared Runner run once.
type runnerInst struct {
	eng   *ps.Engine
	acts  []*activation
	progs []*ps.Program
	runs  []*ps.Runner
	args  [][]any
	out   []actResult
	// doacross records, per program, whether any run of this round
	// executed doacross tiles: the schedule's barrier/doacross choice is
	// calibrated from first-run timings and can differ between rounds.
	doacross []bool
	// Sample and span names per program, built once so the measured
	// loop does not allocate them.
	runKey, spanKey []string
}

type actResult struct {
	res []any
	err error
}

func setupRunners(r *run) (instance, error) {
	in := &runnerInst{
		eng:  ps.NewEngine(ps.EngineWorkers(r.cfg.workers)),
		acts: newActivations(seededRand(r.cfg.seed), r.w.set),
		out:  make([]actResult, len(r.w.set)),
		// doacross flags only measured runs: the first run of a round
		// executes before the schedule is calibrated, so the flags are
		// cleared after the warm-up.
		doacross: make([]bool, len(r.w.set)),
	}
	for _, a := range in.acts {
		prog, err := in.eng.Compile(a.prog.name+".ps", a.src)
		if err != nil {
			in.close()
			return nil, err
		}
		in.progs = append(in.progs, prog)
		in.args = append(in.args, a.args())
		in.runKey = append(in.runKey, "run_ms."+a.prog.name)
		in.spanKey = append(in.spanKey, "interp.run."+a.prog.name)
	}
	var opts []ps.RunOption
	if r.w.sequential {
		opts = append(opts, ps.Sequential())
	}
	var err error
	if in.runs, err = in.prepare(opts...); err != nil {
		in.close()
		return nil, err
	}
	for k := 0; k < r.w.warm; k++ {
		in.sweep(r, newSamples(), in.runs, nil, true)
	}
	clear(in.doacross)
	return in, nil
}

func (in *runnerInst) prepare(opts ...ps.RunOption) ([]*ps.Runner, error) {
	runs := make([]*ps.Runner, len(in.progs))
	for k, prog := range in.progs {
		var err error
		if runs[k], err = prog.Prepare(in.acts[k].prog.module, opts...); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

func (in *runnerInst) close() { in.eng.Close() }

// sweep is one op. Outputs are compared with the reference after the
// clock stops.
func (in *runnerInst) sweep(r *run, s *samples, runs []*ps.Runner, tr *tracer, verify bool) {
	ctx := context.Background()
	root := tr.root("op", r.op(), 0)
	start := time.Now()
	prev := start
	for k, run := range runs {
		sp := tr.child(in.spanKey[k], root)
		var st *ps.RunStats
		o := &in.out[k]
		if tr != nil {
			o.res, st, _, o.err = run.TraceRun(ctx, in.args[k])
		} else {
			o.res, st, o.err = run.Run(ctx, in.args[k])
		}
		tr.end(sp)
		now := time.Now()
		s.put(in.runKey[k], ms(now.Sub(prev)))
		prev = now
		s.ctr.add(st)
		if st != nil {
			if st.DoacrossTiles > 0 {
				in.doacross[k] = true
			}
			if st.Timing != nil { // traced runs only
				name := in.acts[k].prog.name
				c, y := s.tim.add(st.Timing)
				s.put("compute_ms."+name, c)
				s.put("sync_ms."+name, y)
				s.put("eq."+name, float64(st.EquationInstances))
			}
		}
	}
	elapsed := prev.Sub(start)
	tr.end(root)
	s.opMs = append(s.opMs, ms(elapsed))
	s.wall += elapsed

	var err error
	for k := range runs {
		o := &in.out[k]
		if err == nil {
			err = o.err
		}
		if err == nil && verify {
			err = in.acts[k].checkArrays(o.res)
		}
	}
	if verify {
		r.verified++
	}
	r.attempt(err)
}

// loop sweeps for d: every 16th op is verified, and every traced one.
func (in *runnerInst) loop(r *run, s *samples, runs []*ps.Runner, d time.Duration, tr *tracer) {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		in.sweep(r, s, runs, tr, tr != nil || n%16 == 0)
	}
}

func (in *runnerInst) measure(r *run, s *samples, d time.Duration, tr *tracer) {
	in.loop(r, s, in.runs, d, tr)
}

// layers compares the round's runners with the same programs under
// ps.Sequential() and under one worker, on the same engine and after the
// main phases so the calibration the workload drew is left alone; then
// it measures allocation per program and, where asked, RunBatch.
func (in *runnerInst) layers(r *run, d time.Duration, tr *tracer) {
	for k, a := range in.acts {
		share := 0.0
		if in.doacross[k] {
			share = 1
		}
		r.samples("doacross").put(a.prog.name, share)
	}
	if seq, err := in.prepare(ps.Sequential()); err == nil {
		in.loop(r, r.samples("seq"), seq, d*4/10, nil)
	} else {
		r.attempt(err)
	}
	if w1, err := in.prepare(ps.Workers(1)); err == nil {
		in.loop(r, r.samples("w1"), w1, d*4/10, nil)
	} else {
		r.attempt(err)
	}
	ctx := context.Background()
	const reps = 4
	var m0, m1 runtime.MemStats
	for k, run := range in.runs {
		runtime.ReadMemStats(&m0)
		for n := 0; n < reps; n++ {
			if _, _, err := run.Run(ctx, in.args[k]); err != nil {
				r.attempt(err)
			}
		}
		runtime.ReadMemStats(&m1)
		r.samples("alloc").put(in.acts[k].prog.name, float64(m1.TotalAlloc-m0.TotalAlloc)/1024/reps)
	}
	for k, a := range in.acts {
		if a.prog.name == r.w.batch {
			in.probeBatch(r, tr, k)
		}
	}
}

// probeBatch compares 32 Run calls with one RunBatch of 32, the serving
// layer's execution primitive, on the same arguments.
func (in *runnerInst) probeBatch(r *run, tr *tracer, k int) {
	ctx := context.Background()
	const n, reps = 32, 20
	batch := make([]ps.Args, n)
	for b := range batch {
		batch[b] = in.args[k]
	}
	s := r.samples("batch")
	for rep := 0; rep < reps; rep++ {
		root := tr.root("probe.batch", r.op(), 0)
		sp := tr.child("ps.run_x32", root)
		t0 := time.Now()
		var err error
		for b := 0; b < n && err == nil; b++ {
			_, _, err = in.runs[k].Run(ctx, in.args[k])
		}
		s.put("x32_us", us(time.Since(t0)))
		tr.end(sp)

		sp = tr.child("ps.run_batch32", root)
		t0 = time.Now()
		out, _, berr := in.runs[k].RunBatch(ctx, batch)
		s.put("batch32_us", us(time.Since(t0)))
		tr.end(sp)
		tr.end(root)

		if err == nil {
			err = berr
		}
		for b := 0; b < len(out) && err == nil; b++ {
			if err = out[b].Err; err == nil {
				err = in.acts[k].checkArrays(out[b].Values)
			}
		}
		r.checked(err)
	}
}

// finishRunners derives the Runner workloads' per-layer metrics.
func finishRunners(r *run, _ *tracer) {
	un, traced, seq, w1 := r.samples("untraced"), r.samples("traced"), r.samples("seq"), r.samples("w1")
	for _, sz := range r.w.set {
		p := sz.prog
		runMs := median(un.series["run_ms."+p])
		if !r.w.corpus {
			r.layer["interp.activation_us."+p] = runMs * 1e3
			continue
		}
		r.layer["interp.run_ms."+p] = runMs
		r.layer["interp.ns_per_eq."+p] = ratio(runMs*1e6, mean(traced.series["eq."+p]))
		r.layer["interp.speedup_vs_seq."+p] = ratio(median(seq.series["run_ms."+p]), runMs)
		r.layer["sched.doacross_share."+p] = mean(r.samples("doacross").series[p])
		r.layer["value.alloc_kb."+p] = median(r.samples("alloc").series[p])
		r.layer["obs.compute_ms."+p] = median(traced.series["compute_ms."+p])
		r.layer["obs.sync_ms."+p] = median(traced.series["sync_ms."+p])
		r.layer["obs.trace_overhead."+p] = ratio(median(traced.series["run_ms."+p]), runMs)
	}
	width := float64(r.cfg.workers)
	if r.w.sequential {
		width = 1
	}
	r.layer["interp.sweep_ms_w1"] = median(w1.opMs)
	r.layer["interp.scaling_eff"] = ratio(median(seq.opMs), width*median(un.opMs))
	if !r.w.corpus {
		r.layer["interp.par_over_seq_small"] = ratio(median(un.opMs), median(seq.opMs))
	}
	if b := r.samples("batch"); len(b.series["x32_us"]) > 0 {
		r.layer["ps.run_x32_us"] = median(b.series["x32_us"])
		r.layer["ps.run_batch32_us"] = median(b.series["batch32_us"])
		r.layer["ps.batch_gain"] = ratio(r.layer["ps.run_x32_us"], r.layer["ps.run_batch32_us"])
	}
}
