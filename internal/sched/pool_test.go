package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestPoolCoverage verifies the persistent pool across many reuses —
// the wavefront dispatch pattern — from three callers sharing it, as the
// serving layer's concurrent activations do: every loop index runs
// exactly once, and start returns only after all of them.
func TestPoolCoverage(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var callers sync.WaitGroup
	for c := 0; c < 3; c++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for round := 0; round < 200; round++ {
				n := round%17 + 1
				counts := make([]atomic.Int32, n)
				p.start(n, func(i int) { counts[i].Add(1) })
				for i := 0; i < n; i++ {
					if c := counts[i].Load(); c != 1 {
						t.Errorf("round %d: loop %d ran %d times", round, i, c)
						return
					}
				}
			}
		}()
	}
	callers.Wait()
}

// TestPoolSingleWorker verifies the degenerate pool runs every loop
// inline, in order, on the caller.
func TestPoolSingleWorker(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	sum := 0 // no atomics needed: single worker runs inline
	p.start(100, func(i int) { sum = sum*3 + i })
	want := 0
	for i := 0; i < 100; i++ {
		want = want*3 + i
	}
	if sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
	p.start(0, func(int) { t.Error("loop ran for n = 0") })
}

// TestPoolCloseIdempotent verifies Close can be called twice.
func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close()
}

// TestForProperty is a property test: any loop count, on a pool of any
// width, runs each index once and returns only after all of them.
func TestForProperty(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	f := func(nRaw uint8) bool {
		n := int(nRaw % 64)
		var sum atomic.Int64
		p.start(n, func(i int) { sum.Add(int64(i) + 1) })
		return sum.Load() == int64(n*(n+1)/2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestJoinDoesNotWaitForBusyHelper holds both slots of a two-worker pool
// in one caller's loops, then starts a second step from another
// goroutine: its caller must run both loops itself and return, not wait
// for the busy helper it queued the step for.
func TestJoinDoesNotWaitForBusyHelper(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var running sync.WaitGroup
	running.Add(2)
	release := make(chan struct{})
	held := make(chan struct{})
	go func() {
		defer close(held)
		p.start(2, func(int) {
			running.Done()
			<-release
		})
	}()
	running.Wait() // the caller and the helper are both inside a loop
	done := make(chan struct{})
	var ran atomic.Int32
	go func() {
		defer close(done)
		p.start(2, func(int) { ran.Add(1) })
	}()
	select {
	case <-done:
	case <-time.After(500 * time.Millisecond):
		t.Error("a finished step is still waiting for a helper that never started its loops")
	}
	close(release)
	<-held
	<-done
	if ran.Load() != 2 {
		t.Errorf("second step ran %d loops, want 2", ran.Load())
	}
}

// TestDefaultWorkers sanity-checks the default.
func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Error("DefaultWorkers < 1")
	}
}
