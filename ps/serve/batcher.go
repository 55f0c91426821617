package serve

import (
	"context"
	"sync"
	"time"

	"repro/ps"
)

// pending is one admitted activation waiting for a batch. outcome is
// buffered so the batcher never blocks on a handler that stopped
// listening (client disconnect): delivery is a non-blocking send into
// the buffer.
type pending struct {
	tenant   *tenant
	args     ps.Args
	outcome  chan outcome
	enqueued time.Time // start of the queue wait ps_serve_queue_wait_us observes
}

// outcome is what the batch execution resolved one request to.
type outcome struct {
	values    []any
	batchSize int
	err       error
}

// batcher coalesces pending activations of one (program, module) pair
// into fused batches — the batch axis is the §5 fusion argument applied
// to serving. It is work-conserving: an idle batcher dispatches the
// first request at once, and the requests that queue while a batch runs
// become the next batch, up to MaxBatch of them drained round-robin
// across tenants into a single Runner.RunBatch call. Batches grow with
// load and never wait on a timer. One goroutine per batcher executes
// batches in arrival order; distinct (program, module) pairs batch and
// run independently.
type batcher struct {
	srv    *Server
	runner *ps.Runner

	mu      sync.Mutex
	queues  map[string][]*pending // per-tenant FIFO
	order   []string              // tenants with pending requests, round-robin ring
	cursor  int                   // next ring position to drain
	total   int
	closed  bool
	wake    chan struct{} // buffered 1: "state changed"
	stopped chan struct{} // closed when the loop exits
}

func newBatcher(srv *Server, runner *ps.Runner) *batcher {
	b := &batcher{
		srv:     srv,
		runner:  runner,
		queues:  make(map[string][]*pending),
		wake:    make(chan struct{}, 1),
		stopped: make(chan struct{}),
	}
	go b.loop()
	return b
}

// enqueue admits one request into its tenant's FIFO. false means the
// batcher is closed (server draining or program reloaded) and the
// caller must not expect an outcome.
func (b *batcher) enqueue(p *pending) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	p.enqueued = time.Now()
	name := p.tenant.name
	if len(b.queues[name]) == 0 {
		b.order = append(b.order, name)
	}
	b.queues[name] = append(b.queues[name], p)
	b.total++
	b.mu.Unlock()
	b.signal()
	return true
}

// close stops admission and wakes the loop to flush what is queued;
// already-admitted requests still execute (drain semantics).
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.signal()
}

func (b *batcher) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// takeLocked drains up to max requests, one per tenant per ring pass,
// so a tenant with a deep backlog cannot starve the others out of a
// batch. Callers hold b.mu.
func (b *batcher) takeLocked(max int) []*pending {
	if max <= 0 {
		max = b.total
	}
	var out []*pending
	for len(out) < max && b.total > 0 {
		if b.cursor >= len(b.order) {
			b.cursor = 0
		}
		name := b.order[b.cursor]
		q := b.queues[name]
		p := q[0]
		if len(q) == 1 {
			delete(b.queues, name)
			b.order = append(b.order[:b.cursor], b.order[b.cursor+1:]...)
			// cursor now points at the next tenant already.
		} else {
			b.queues[name] = q[1:]
			b.cursor++
		}
		b.total--
		p.tenant.release()
		out = append(out, p)
	}
	return out
}

// loop is the batcher goroutine: wait until a request is pending, take
// what has queued (at most MaxBatch) and execute it as one batch; exit
// once closed and empty.
func (b *batcher) loop() {
	defer close(b.stopped)
	m := b.srv.metrics
	for {
		b.mu.Lock()
		for b.total == 0 && !b.closed {
			b.mu.Unlock()
			<-b.wake
			b.mu.Lock()
		}
		reqs := b.takeLocked(b.srv.cfg.MaxBatch)
		b.mu.Unlock()
		if len(reqs) == 0 {
			return
		}
		now := time.Now()
		for _, p := range reqs {
			m.queueWait.observe(now.Sub(p.enqueued).Microseconds())
		}
		b.execute(reqs)
	}
}

// execute runs one fused batch and delivers per-request outcomes.
func (b *batcher) execute(reqs []*pending) {
	if hook := b.srv.execHook; hook != nil {
		hook(len(reqs))
	}
	args := make([]ps.Args, len(reqs))
	for i, p := range reqs {
		args[i] = p.args
	}
	ctx := context.Background()
	if t := b.srv.cfg.RunTimeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	out, stats, err := b.runner.RunBatch(ctx, args)

	m := b.srv.metrics
	m.batches.Add(1)
	m.batchSize.observe(int64(len(reqs)))
	m.noteRunStats(stats)
	for i, p := range reqs {
		o := outcome{batchSize: len(reqs)}
		switch {
		case err != nil:
			o.err = err
		case out[i].Err != nil:
			o.err = out[i].Err
		default:
			o.values = out[i].Values
		}
		if o.err != nil {
			m.runErrors.Add(1)
		} else {
			m.activations.Add(1)
		}
		select {
		case p.outcome <- o:
		default:
		}
	}
}
