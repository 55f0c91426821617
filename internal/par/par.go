// Package par keeps a persistent pool of parked goroutine workers and
// starts worker loops on them (Pool.Start). It plays the role the target
// MIMD machine's processors played for the paper's generated C; which
// work a loop runs, and in what order, is internal/sched's business —
// its Run is the only caller of Start.
package par

import "runtime"

// DefaultWorkers is the worker count a Pool uses when created with
// workers <= 0.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }
