package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/ps"
)

// metrics is the server's counter set, rendered in Prometheus text
// exposition format (version 0.0.4) by render. Everything is stdlib:
// counters are atomics, labeled counters a mutex-guarded map, and the
// batch-size histogram a fixed bucket ladder. Gauges that mirror live
// state (queue depths, cache occupancy) are sampled at scrape time
// from the server rather than double-booked here.
type metrics struct {
	requests *labeledCounter // by HTTP status code
	rejected *labeledCounter // by admission reason

	activations atomic.Int64 // batch elements completed successfully
	runErrors   atomic.Int64 // batch elements that failed at run time
	batches     atomic.Int64 // fused batch dispatches
	batchSize   *histogram   // elements per dispatched batch
	reloads     atomic.Int64 // successful /reload sweeps

	// Run counters aggregated from every batch's RunStats — the same
	// counters Runner.Run reports per activation.
	eqInstances     atomic.Int64
	doallChunks     atomic.Int64
	wavefrontPlanes atomic.Int64
	doacrossTiles   atomic.Int64
	doacrossStalls  atomic.Int64
	doacrossSteals  atomic.Int64
	specialized     atomic.Int64
	arenaReuses     atomic.Int64

	// runWall is the fused-dispatch wall time in microseconds — the
	// run-timing histogram scrapes see without tracing.
	runWall *histogram
	// queueWait is each batched request's wait in microseconds, from
	// enqueue to the start of its batch.
	queueWait *histogram
	// httpLatency is per-endpoint request latency in microseconds.
	httpLatency *labeledHistogram
	// tracedRuns counts ?trace=1 activations served.
	tracedRuns atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{
		requests:  newLabeledCounter(),
		rejected:  newLabeledCounter(),
		batchSize: newHistogram(1, 2, 4, 8, 16, 32, 64, 128),
		runWall:   newHistogram(100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000),
		queueWait: newHistogram(10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000),
		httpLatency: newLabeledHistogram(
			100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000),
	}
}

// noteRunStats folds one batch's RunStats into the aggregate run
// counters.
func (m *metrics) noteRunStats(st *ps.RunStats) {
	if st == nil {
		return
	}
	m.eqInstances.Add(st.EquationInstances)
	m.doallChunks.Add(st.DOALLChunks)
	m.wavefrontPlanes.Add(st.WavefrontPlanes)
	m.doacrossTiles.Add(st.DoacrossTiles)
	m.doacrossStalls.Add(st.DoacrossStalls)
	m.doacrossSteals.Add(st.DoacrossSteals)
	m.specialized.Add(st.SpecializedKernels)
	m.arenaReuses.Add(st.ArenaReuses)
	m.runWall.observe(st.WallTime.Microseconds())
}

// labeledCounter is a counter family with one string label value per
// series.
type labeledCounter struct {
	mu sync.Mutex
	v  map[string]*atomic.Int64
}

func newLabeledCounter() *labeledCounter {
	return &labeledCounter{v: make(map[string]*atomic.Int64)}
}

func (c *labeledCounter) add(label string, n int64) {
	c.mu.Lock()
	ctr, ok := c.v[label]
	if !ok {
		ctr = new(atomic.Int64)
		c.v[label] = ctr
	}
	c.mu.Unlock()
	ctr.Add(n)
}

// snapshot returns the series sorted by label for deterministic
// rendering.
func (c *labeledCounter) snapshot() []labeledValue {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]labeledValue, 0, len(c.v))
	for label, ctr := range c.v {
		out = append(out, labeledValue{label, ctr.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

type labeledValue struct {
	label string
	value int64
}

// histogram is a cumulative-bucket histogram over int64 observations.
type histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // one per bound, plus +Inf at the end
	count   atomic.Int64
	sum     atomic.Int64
}

func newHistogram(bounds ...int64) *histogram {
	return &histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

func (h *histogram) observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// labeledHistogram is a histogram family sharing one bucket ladder,
// one series per label value (here: per endpoint).
type labeledHistogram struct {
	bounds []int64
	mu     sync.Mutex
	v      map[string]*histogram
}

func newLabeledHistogram(bounds ...int64) *labeledHistogram {
	return &labeledHistogram{bounds: bounds, v: make(map[string]*histogram)}
}

func (l *labeledHistogram) observe(label string, v int64) {
	l.mu.Lock()
	h, ok := l.v[label]
	if !ok {
		h = newHistogram(l.bounds...)
		l.v[label] = h
	}
	l.mu.Unlock()
	h.observe(v)
}

// labeledSeries is one labeled histogram in a snapshot.
type labeledSeries struct {
	label string
	h     *histogram
}

// snapshot returns the series sorted by label.
func (l *labeledHistogram) snapshot() []labeledSeries {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]labeledSeries, 0, len(l.v))
	for label, h := range l.v {
		out = append(out, labeledSeries{label, h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// render writes the full exposition. The live gauge values come from
// the server: per-tenant queue depths and the engine cache snapshot.
func (m *metrics) render(sb *strings.Builder, queueDepths []labeledValue, es ps.EngineStats) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	fmt.Fprintf(sb, "# HELP ps_serve_requests_total Activation requests by HTTP status code.\n# TYPE ps_serve_requests_total counter\n")
	for _, lv := range m.requests.snapshot() {
		fmt.Fprintf(sb, "ps_serve_requests_total{code=%q} %d\n", lv.label, lv.value)
	}
	fmt.Fprintf(sb, "# HELP ps_serve_rejected_total Requests rejected at admission, by reason.\n# TYPE ps_serve_rejected_total counter\n")
	for _, lv := range m.rejected.snapshot() {
		fmt.Fprintf(sb, "ps_serve_rejected_total{reason=%q} %d\n", lv.label, lv.value)
	}

	counter("ps_serve_activations_total", "Batch elements executed successfully.", m.activations.Load())
	counter("ps_serve_run_errors_total", "Batch elements that failed at run time.", m.runErrors.Load())
	counter("ps_serve_batches_total", "Fused batch dispatches.", m.batches.Load())
	counter("ps_serve_reloads_total", "Successful program reload sweeps.", m.reloads.Load())

	fmt.Fprintf(sb, "# HELP ps_serve_batch_size Elements per dispatched batch.\n# TYPE ps_serve_batch_size histogram\n")
	writeHistogram(sb, "ps_serve_batch_size", "", m.batchSize)
	fmt.Fprintf(sb, "# HELP ps_serve_queue_wait_us Wait of each batched request in microseconds, from enqueue to the start of its batch.\n# TYPE ps_serve_queue_wait_us histogram\n")
	writeHistogram(sb, "ps_serve_queue_wait_us", "", m.queueWait)

	fmt.Fprintf(sb, "# HELP ps_serve_queue_depth Requests queued per tenant, awaiting a batch.\n# TYPE ps_serve_queue_depth gauge\n")
	for _, lv := range queueDepths {
		fmt.Fprintf(sb, "ps_serve_queue_depth{tenant=%q} %d\n", lv.label, lv.value)
	}

	fmt.Fprintf(sb, "# HELP ps_serve_http_latency_us Request latency in microseconds, by endpoint.\n# TYPE ps_serve_http_latency_us histogram\n")
	for _, ls := range m.httpLatency.snapshot() {
		writeHistogram(sb, "ps_serve_http_latency_us", fmt.Sprintf("endpoint=%q", ls.label), ls.h)
	}

	counter("ps_serve_traced_runs_total", "Activations executed with ?trace=1 recording.", m.tracedRuns.Load())

	counter("ps_run_eq_instances_total", "Equation instances executed.", m.eqInstances.Load())
	counter("ps_run_doall_chunks_total", "DOALL chunks dispatched to workers.", m.doallChunks.Load())
	counter("ps_run_wavefront_planes_total", "Wavefront planes launched: tile-grid anti-diagonals of tiled nests, 1 per inline sweep.", m.wavefrontPlanes.Load())
	counter("ps_run_doacross_tiles_total", "Wavefront tiles executed.", m.doacrossTiles.Load())
	counter("ps_run_doacross_stalls_total", "Tile executor workers parked on predecessor tiles.", m.doacrossStalls.Load())
	counter("ps_run_doacross_steals_total", "Wavefront tiles run by non-home workers.", m.doacrossSteals.Load())
	counter("ps_run_specialized_total", "Equation instances executed by specialized kernels.", m.specialized.Load())
	counter("ps_run_arena_reuses_total", "Activation arrays recycled from the arena.", m.arenaReuses.Load())

	fmt.Fprintf(sb, "# HELP ps_run_wall_us Fused-dispatch wall time in microseconds.\n# TYPE ps_run_wall_us histogram\n")
	writeHistogram(sb, "ps_run_wall_us", "", m.runWall)

	counter("ps_engine_cache_hits_total", "Compile calls served from the program cache.", es.CacheHits)
	counter("ps_engine_cache_misses_total", "Compile calls that missed the program cache.", es.CacheMisses)
	counter("ps_engine_cache_evictions_total", "Programs evicted from the cache by the LRU budget.", es.CacheEvictions)
	gauge("ps_engine_cache_programs", "Programs currently cached.", int64(es.CachedPrograms))
	gauge("ps_engine_cache_bytes", "Compiled-size accounting of cached programs.", es.CacheBytes)
}

// writeHistogram renders one histogram's series: cumulative buckets, sum
// and count. labels is the series' label set without braces (e.g.
// endpoint="run"), or empty.
func writeHistogram(sb *strings.Builder, name, labels string, h *histogram) {
	sel, le := "", ""
	if labels != "" {
		sel, le = "{"+labels+"}", labels+","
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(sb, "%s_bucket{%sle=\"%d\"} %d\n", name, le, bound, cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(sb, "%s_bucket{%sle=\"+Inf\"} %d\n", name, le, cum)
	fmt.Fprintf(sb, "%s_sum%s %d\n", name, sel, h.sum.Load())
	fmt.Fprintf(sb, "%s_count%s %d\n", name, sel, h.count.Load())
}
