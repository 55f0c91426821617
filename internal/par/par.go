// Package par is the parallel loop runtime executing the scheduler's
// DOALL descriptors: a chunked parallel-for over a persistent pool of
// goroutine workers. It plays the role the target MIMD machine's loop
// scheduler played for the paper's generated C.
package par

import "runtime"

// DefaultWorkers is the worker count a Pool uses when created with
// workers <= 0.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }
