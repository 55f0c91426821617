package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/ps"
)

// config is one invocation: one workload, traced or not.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	workers  int // W: pool width of every engine and server
	conns    int // K: keep-alive connections of the serve generator
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// counters sums the exact work counts of RunStats over ops; serve_open
// fills the same fields from /metrics deltas.
type counters struct {
	eq, chunks, planes, tiles, stalls, stages, stageStalls, specialized, arena int64
}

func (c *counters) add(st *ps.RunStats) {
	if st == nil {
		return
	}
	c.eq += st.EquationInstances
	c.chunks += st.DOALLChunks
	c.planes += st.WavefrontPlanes
	c.tiles += st.DoacrossTiles
	c.stalls += st.DoacrossStalls
	c.stages += st.PipelineStages
	c.stageStalls += st.StageStalls
	c.specialized += st.SpecializedKernels
	c.arena += st.ArenaReuses
}

// timing sums TimingBreakdowns of traced activations, all in worker
// nanoseconds. capacity is workers × wall, the budget that compute,
// sync and idle must add up to.
type timing struct {
	compute, sync, idle, capacity int64
}

func (t *timing) add(b *ps.TimingBreakdown) (computeMs, syncMs float64) {
	if b == nil {
		return 0, 0
	}
	sync := b.StallNs() + b.BarrierIdleNs
	t.compute += b.ComputeNs
	t.sync += sync
	t.idle += b.IdleNs
	t.capacity += int64(b.Workers) * b.WallNs
	return float64(b.ComputeNs) / 1e6, float64(sync) / 1e6
}

// samples is what one phase measured.
type samples struct {
	opMs []float64     // one entry per completed op
	wall time.Duration // measured time: Σ op time in a closed loop
	ctr  counters
	tim  timing
	// series holds named per-activation or per-request samples
	// ("run_ms.heat3d", "http_ms", ...).
	series map[string][]float64
}

func newSamples() *samples { return &samples{series: make(map[string][]float64)} }

func (s *samples) put(name string, v float64) { s.series[name] = append(s.series[name], v) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// run is the state of one invocation.
type run struct {
	cfg                         config
	w                           *workload
	attempted, failed, verified int
	nextOp                      int
	phase                       map[string]*samples
	layer                       map[string]float64 // per-layer metrics set so far
}

func newRun(w *workload, cfg config) *run {
	return &run{cfg: cfg, w: w, phase: make(map[string]*samples), layer: make(map[string]float64)}
}

func (r *run) samples(phase string) *samples {
	if r.phase[phase] == nil {
		r.phase[phase] = newSamples()
	}
	return r.phase[phase]
}

// op hands out trace op identifiers.
func (r *run) op() int { r.nextOp++; return r.nextOp }

// attempt counts one op; a non-nil err (an error, a refusal, an output
// that differs from the reference, an answer over the latency limit) is
// a failed op.
func (r *run) attempt(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintln(os.Stderr, "benchmark: failed op:", err)
		}
	}
}

// checked counts an op whose outputs were compared with the reference.
func (r *run) checked(err error) {
	r.verified++
	r.attempt(err)
}

// instance is one round of a workload: engines or a server, compiled
// programs, seeded inputs, references, all warmed up.
type instance interface {
	// measure runs ops for d into s; a non-nil tracer makes it the
	// traced pass.
	measure(r *run, s *samples, d time.Duration, tr *tracer)
	// layers runs the workload's own per-layer probes within about d.
	layers(r *run, d time.Duration, tr *tracer)
	close()
}

// workload is one row of BENCHMARK.json's "workloads".
type workload struct {
	name string
	set  []sized
	// rounds splits the measured time: each round sets up afresh (new
	// engine or server, new compile), so the first-run calibration is
	// drawn again and set-up time gets several samples per run.
	rounds int
	// warm is the fixed number of warm-up ops of a round, so set-up does
	// the same work on every commit; each warm-up op is checked.
	warm  int
	setup func(r *run) (instance, error)
	// finish derives the workload's own per-layer metrics once every
	// round is done.
	finish func(r *run, tr *tracer)

	// Runner workloads only. They use default run options alone:
	// ps.Sequential() when sequential, else nothing on a W-worker engine.
	sequential bool
	// corpus selects the per-program metric names (interp.run_ms.<p>,
	// ...); otherwise the set reports interp.activation_us.<q>.
	corpus bool
	batch  string // program whose RunBatch is probed, or ""
}

var workloads = []*workload{
	{name: "corpus_seq", set: corpusSet, rounds: 8, warm: 2, setup: setupRunners, finish: finishRunners, sequential: true, corpus: true},
	{name: "corpus_par", set: corpusSet, rounds: 8, warm: 2, setup: setupRunners, finish: finishRunners, corpus: true},
	{name: "activation_small", set: smallSet, rounds: 8, warm: 64, setup: setupRunners, finish: finishRunners, batch: "smooth"},
	{name: "cold_start", set: coldSet, rounds: 8, warm: 8, setup: setupCold, finish: finishCold},
	{name: "serve_open", set: serveSet, rounds: 8, warm: 32, setup: setupServe, finish: finishServe},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// hostPingPongUs is the median time for a token to cross to another OS
// thread and back. On a shared host this wake-up latency is what drifts
// from minute to minute, and the workloads that park and wake workers
// drift with it; reported so that two runs can be told apart.
func hostPingPongUs() float64 {
	const trips = 2000
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		runtime.LockOSThread() // the goroutine's exit ends the thread
		for range ping {
			pong <- struct{}{}
		}
	}()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	trip := make([]float64, trips)
	for k := range trip {
		t0 := time.Now()
		ping <- struct{}{}
		<-pong
		trip[k] = us(time.Since(t0))
	}
	close(ping)
	return median(trip)
}

// cpuStalled reads the kernel's pressure-stall total: microseconds in
// which some runnable task waited for a CPU. Inside a VM that includes
// time the hypervisor gave the CPU to someone else. 0 where the file
// does not exist.
func cpuStalled() float64 {
	data, err := os.ReadFile("/proc/pressure/cpu")
	if err != nil {
		return 0
	}
	for _, f := range strings.Fields(string(data)) {
		if v, ok := strings.CutPrefix(f, "total="); ok {
			total, _ := strconv.ParseFloat(v, 64)
			return total // the first line is "some"
		}
	}
	return 0
}

// peakRSSMB is the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// execute runs one workload and returns what the last output line says.
func execute(w *workload, cfg config) (*result, error) {
	r := newRun(w, cfg)
	res := &result{Metrics: make(map[string]metric)}
	began, stalled := time.Now(), cpuStalled()
	var err error
	if cfg.trace {
		err = executeTraced(w, r)
	} else {
		err = executeEndToEnd(w, r, res)
	}
	if err != nil {
		return nil, err
	}
	r.layer["harness.host_cpu_pressure"] = (cpuStalled() - stalled) / us(time.Since(began))
	r.layer["harness.host_pingpong_us"] = hostPingPongUs()
	fmt.Printf("# host: cpu pressure %.3f, thread ping-pong %.1f us\n", r.layer["harness.host_cpu_pressure"], r.layer["harness.host_pingpong_us"])
	if cfg.trace {
		for name := range r.layer {
			if !declared(name) {
				return nil, fmt.Errorf("metric %s is not declared in perLayer", name)
			}
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: r.layer[d.name], Unit: d.unit}
		}
	}
	res.Attempted, res.Failed, res.Correct = r.attempted, r.failed, r.failed == 0
	return res, nil
}

// executeEndToEnd is the --trace 0 run: tracing off, every round a
// fresh set-up, and the five end-to-end metrics out.
func executeEndToEnd(w *workload, r *run, res *result) error {
	var setups, rates []float64
	var alloc uint64
	perRound := time.Duration(r.cfg.seconds / float64(w.rounds) * float64(time.Second))
	s := r.samples("untraced")
	for round := 0; round < w.rounds; round++ {
		t0 := time.Now()
		inst, err := w.setup(r)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		var m0, m1 runtime.MemStats
		ops, wall := len(s.opMs), s.wall
		runtime.ReadMemStats(&m0)
		inst.measure(r, s, perRound, nil)
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		rates = append(rates, float64(len(s.opMs)-ops)/(s.wall-wall).Seconds())
		inst.close()
	}
	if len(s.opMs) == 0 {
		return fmt.Errorf("%s: no op completed in %.1f s", w.name, r.cfg.seconds)
	}
	asc := sorted(s.opMs)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["op_ms_p50"] = metric{percentile(asc, 0.5), "ms"}
	res.Metrics["ops_per_s"] = metric{median(rates), "1/s"}
	res.Metrics["alloc_kb_per_op"] = metric{float64(alloc) / 1024 / float64(len(asc)), "KB"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	fmt.Printf("# %s: %d ops in %d rounds, %d verified, slowest op %.3f ms\n", w.name, len(asc), w.rounds, r.verified, asc[len(asc)-1])
	return nil
}

// executeTraced is the --trace 1 run. Each round measures untraced ops,
// the same ops with spans recorded, then the workload's probes; the
// ratio of the first two is the tracing overhead. The front-end and
// cold-path probes follow once, over the workload's own programs, and
// the spans are written out at the end.
func executeTraced(w *workload, r *run) error {
	tr := newTracer()
	rounds := max(w.rounds/2, 1)
	perRound := time.Duration(r.cfg.seconds / float64(rounds) * float64(time.Second))
	var m0, m1 runtime.MemStats
	var mallocs uint64
	for round := 0; round < rounds; round++ {
		inst, err := w.setup(r)
		if err != nil {
			return err
		}
		// Untraced and traced slices alternate, so a drift of the host
		// does not pass for tracing overhead.
		for slice := 0; slice < 3; slice++ {
			runtime.ReadMemStats(&m0)
			inst.measure(r, r.samples("untraced"), perRound/10, nil)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			inst.measure(r, r.samples("traced"), perRound/10, tr)
		}
		inst.layers(r, perRound*4/10, tr)
		inst.close()
	}
	un, traced := r.samples("untraced"), r.samples("traced")
	if len(un.opMs) == 0 || len(traced.opMs) == 0 {
		return fmt.Errorf("%s: no op completed in %.1f s", w.name, r.cfg.seconds)
	}
	asc := sorted(un.opMs)
	r.layer["harness.samples"] = float64(len(asc))
	r.layer["harness.rounds"] = float64(rounds)
	r.layer["harness.op_ms_p90"] = tail(asc, 0.90)
	r.layer["harness.op_ms_p99"] = tail(asc, 0.99)
	r.layer["harness.op_ms_iqr"] = iqr(asc)
	r.layer["harness.trace_overhead"] = ratio(median(traced.opMs), median(asc))
	r.layer["harness.span_coverage"] = tr.coverage()
	r.layer["value.allocs_per_op"] = float64(mallocs) / float64(len(asc))

	ops := float64(len(un.opMs))
	c := un.ctr
	r.layer["interp.eq_instances_per_op"] = float64(c.eq) / ops
	r.layer["interp.doall_chunks_per_op"] = float64(c.chunks) / ops
	r.layer["interp.specialized_ratio"] = ratio(float64(c.specialized), float64(c.eq))
	r.layer["sched.planes_per_op"] = float64(c.planes) / ops
	r.layer["sched.tiles_per_op"] = float64(c.tiles) / ops
	r.layer["sched.doacross_stalls_per_op"] = float64(c.stalls) / ops
	r.layer["pipe.stages_per_op"] = float64(c.stages) / ops
	r.layer["pipe.stage_stalls_per_op"] = float64(c.stageStalls) / ops
	r.layer["value.arena_reuses_per_op"] = float64(c.arena) / ops

	if err := probeCold(r, tr, 500*time.Millisecond); err != nil {
		return err
	}
	if err := probeCompile(r, tr); err != nil {
		return err
	}
	w.finish(r, tr)

	t := traced.tim
	r.layer["obs.efficiency"] = ratio(float64(t.compute), float64(t.capacity))
	r.layer["obs.idle_ms_per_op"] = float64(t.idle) / 1e6 / float64(len(traced.opMs))
	r.layer["obs.accounted_ratio"] = ratio(float64(t.compute+t.sync+t.idle), float64(t.capacity))
	r.layer["harness.verified_ops"] = float64(r.verified)

	printSelfTimes(tr)
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return err
	}
	return tr.writeChrome(filepath.Join(r.cfg.outDir, "trace-"+w.name+".json"), "benchmark/"+w.name)
}

// printSelfTimes lists every span name with its total and self time.
func printSelfTimes(tr *tracer) {
	times := tr.selfTimes()
	names := make([]string, 0, len(times))
	for name := range times {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# spans: %d recorded, %d dropped\n", len(tr.spans), tr.dropped)
	for _, name := range names {
		lt := times[name]
		fmt.Printf("# span %-28s n=%-7d total_ms=%-12.3f self_ms=%.3f\n", name, lt.count, ms(lt.total), ms(lt.self))
	}
}
