package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count a Pool uses when created with
// workers <= 0.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Pool is a persistent set of parked worker goroutines. Instead of
// spawning goroutines per parallel step it keeps its workers parked
// between steps — essential for wavefront execution, where one outer
// iterative loop dispatches hundreds of small parallel steps (paper §4's
// transformed schedules).
type Pool struct {
	workers int
	// wake carries jobs to parked helpers, and a nil job stops one. It
	// is never closed, so a dispatch racing Close cannot send on a
	// closed channel.
	wake   chan *job
	closed atomic.Bool
	wg     sync.WaitGroup
}

// job is one start call in flight: n loops claimed by index. Every
// dispatch makes a fresh one, so a wake notice a helper takes late finds
// a spent job, never the state of a later dispatch.
type job struct {
	n    int64
	loop func(i int)
	// next is the next unclaimed loop index; once it reaches n every loop
	// has an owner, and a helper taking the job later finds nothing.
	next atomic.Int64
	// running counts loops not yet returned; every index is claimed by
	// someone, so it reaches zero once the claimed loops have returned.
	running sync.WaitGroup
}

// NewPool starts a pool with the given worker count (<= 0 uses all CPUs).
// The calling goroutine of a dispatch runs loops too, so workers-1
// goroutines are spawned.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	// The wake channel is buffered to the worker count and start never
	// blocks on it: a job that finds the buffer full simply starts fewer
	// helpers, and the caller runs the loops nobody took.
	p := &Pool{workers: workers, wake: make(chan *job, workers)}
	for i := 0; i < workers-1; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for j := p.take(); j != nil; j = p.take() {
				j.runLoops()
			}
		}()
	}
	return p
}

// take returns the next job, spinning briefly before parking on the
// channel: steps arrive in bursts (one per hyperplane of an iterative
// outer loop), and parking between them costs an OS-level wakeup.
// nil means the pool is closing.
func (p *Pool) take() *job {
	const spins = 256
	for s := 0; s < spins; s++ {
		select {
		case j := <-p.wake:
			return j
		default:
			runtime.Gosched()
		}
	}
	return <-p.wake
}

// Workers returns the configured worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the pool's helpers once each has returned from the loop it
// is running, and waits for them. It may be called at any time and more
// than once: a dispatch in flight, or one started after Close, runs
// every loop no helper claimed on its calling goroutine. A helper exits
// at the first nil it takes, so the workers-1 nils stop them all.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		for i := 1; i < p.workers; i++ {
			p.wake <- nil
		}
		p.wg.Wait()
	}
}

// start runs loop(i) once for every i in [0, n): parked workers take
// loops as they wake, and the calling goroutine runs every loop no
// helper has claimed. It returns when every loop has returned, and it
// never waits for a helper that did not start one — a helper busy in
// another caller's step delays nobody. Loops must not depend on running
// concurrently: the caller may run all of them in turn. A Pool is safe
// for concurrent dispatches from many goroutines.
func (p *Pool) start(n int, loop func(i int)) {
	if n <= 0 {
		return
	}
	j := &job{n: int64(n), loop: loop}
	j.running.Add(n)
	for s := min(n, p.workers) - 1; s > 0; s-- {
		select {
		case p.wake <- j:
		default:
		}
	}
	j.runLoops()
	// The caller ran every loop left when it got here: wait only for the
	// ones helpers had claimed.
	j.running.Wait()
}

// runLoops claims and runs loops until none is left.
func (j *job) runLoops() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		j.loop(int(i))
		j.running.Done()
	}
}
