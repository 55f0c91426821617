package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent worker pool for repeated parallel loops. Instead
// of spawning goroutines per loop it keeps its workers parked between
// loops — essential for wavefront execution, where one outer iterative
// loop dispatches hundreds of small DOALL planes (paper §4's
// transformed schedules).
type Pool struct {
	workers int
	wake    chan *loopJob
	closed  atomic.Bool
	wg      sync.WaitGroup
}

// loopJob is one parallel loop in flight.
type loopJob struct {
	lo, hi int64
	chunk  int64
	next   atomic.Int64
	body   func(start, end int64)
	done   sync.WaitGroup
	// cancel, when non-nil, is checked between chunks: once closed, no
	// further chunks are claimed (the chunk in flight completes).
	cancel <-chan struct{}
}

// NewPool starts a pool with the given worker count (<= 0 uses all CPUs).
// The calling goroutine also executes loop chunks, so workers-1
// goroutines are spawned.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	// The wake channel is buffered to the worker count so dispatch never
	// blocks; a worker receiving a job that has already been fully
	// consumed simply finds no chunk and signals done.
	p := &Pool{workers: workers, wake: make(chan *loopJob, workers)}
	for i := 0; i < workers-1; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			// Loops arrive in bursts (e.g. one DOALL per hyperplane of an
			// iterative outer loop), and parking between bursts costs an
			// OS-level wakeup. Spin briefly for the next job before
			// blocking.
			for {
				job, ok := p.take()
				if !ok {
					return
				}
				job.run()
				job.done.Done()
			}
		}()
	}
	return p
}

// take returns the next job, spinning briefly before parking on the
// channel. ok=false means the pool is closed.
func (p *Pool) take() (*loopJob, bool) {
	const spins = 256
	for s := 0; s < spins; s++ {
		select {
		case job, ok := <-p.wake:
			return job, ok
		default:
			runtime.Gosched()
		}
	}
	job, ok := <-p.wake
	return job, ok
}

// Workers returns the configured worker count.
func (p *Pool) Workers() int { return p.workers }

// Close parks the pool permanently. Pending loops must have completed.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.wake)
		p.wg.Wait()
	}
}

func (j *loopJob) run() {
	for {
		if j.cancel != nil {
			select {
			case <-j.cancel:
				return
			default:
			}
		}
		start := j.next.Add(j.chunk) - j.chunk
		if start > j.hi {
			return
		}
		end := start + j.chunk - 1
		if end > j.hi {
			end = j.hi
		}
		j.body(start, end)
	}
}

// ForRanges executes body over [lo, hi] in chunks distributed across the
// pool's workers and the calling goroutine.
func (p *Pool) ForRanges(lo, hi int64, body func(start, end int64)) {
	p.ForRangesOpts(nil, lo, hi, 1, body)
}

// ForRangesOpts is ForRanges with per-call options, letting concurrent
// activations share one pool without racing on its configuration: grain
// is this loop's minimum chunk size (<= 0 means 1), and
// cancel, when non-nil, stops workers from claiming further chunks once
// closed. It reports whether the loop ran to completion; false means it
// was cancelled with iterations unvisited. A Pool is safe for concurrent
// ForRangesOpts calls from multiple goroutines: each loop is an
// independent job, and every caller executes chunks of its own loop, so
// progress never depends on another loop finishing.
func (p *Pool) ForRangesOpts(cancel <-chan struct{}, lo, hi, grain int64, body func(start, end int64)) bool {
	n := hi - lo + 1
	if n <= 0 {
		return true
	}
	if grain <= 0 {
		grain = 1
	}
	if p.workers == 1 || n == 1 {
		if cancel != nil {
			job := &loopJob{lo: lo, hi: hi, chunk: grain, body: body, cancel: cancel}
			job.next.Store(lo)
			job.run()
			return job.next.Load() > hi
		}
		body(lo, hi)
		return true
	}
	chunk := n / int64(p.workers*4)
	if chunk < grain {
		chunk = grain
	}
	job := &loopJob{lo: lo, hi: hi, chunk: chunk, body: body, cancel: cancel}
	job.next.Store(lo)
	// Wake only as many workers as can possibly get a chunk; the caller
	// takes one share itself.
	helpers := p.workers - 1
	if int64(helpers) > (n+chunk-1)/chunk-1 {
		helpers = int((n+chunk-1)/chunk - 1)
	}
	job.done.Add(helpers)
	for s := 0; s < helpers; s++ {
		p.wake <- job
	}
	job.run()
	job.done.Wait()
	return job.next.Load() > hi
}

// For executes body(i) for every i in [lo, hi] on the pool.
func (p *Pool) For(lo, hi int64, body func(i int64)) {
	p.ForRanges(lo, hi, func(start, end int64) {
		for i := start; i <= end; i++ {
			body(i)
		}
	})
}
