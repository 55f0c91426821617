package interp

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sched"
)

// RunBatchCtx executes the named module once per argument set in batch,
// as a single fused DOALL over a synthesized leading batch dimension:
// the batch index appears in no equation subscript, so every pair of
// batch elements is trivially independent under the paper's dependence
// test (the §5 fusion argument generalized to the batch axis), and the
// whole batch dispatches to the worker pool as one parallel step — one
// row of tiles over b = 0..n−1 on the same executor
// (internal/sched) that runs collapsed DOALL steps and wavefronts.
// Plan lookup, bound-thunk tables and one pool dispatch are shared
// across all elements instead of paid per activation.
//
// Each element runs with the semantics of an independent RunCtx call:
// results[i] and errs[i] mirror exactly what Run would return for
// batch[i] (bitwise identical results, same typed errors), and one
// failing element never poisons its neighbors. Inside the batch DOALL
// the per-element activations execute their inner loops sequentially —
// the batch axis carries all the parallelism, the coarsest possible
// grain — except for single-element batches, which keep full inner
// parallelism (a batch of one is just a run).
//
// The returned error is non-nil only for whole-batch failures: unknown
// module or a context that was already done; per-element failures are
// reported in errs. Cancellation mid-batch aborts in-flight elements
// (their errs wrap ctx.Err()) and marks unstarted elements with the
// same error.
func (p *Program) RunBatchCtx(ctx context.Context, name string, batch [][]any, opts Options) (results [][]any, errs []error, err error) {
	m := p.Prog.Module(name)
	if m == nil {
		return nil, nil, fmt.Errorf("interp: no module %s", name)
	}
	n := len(batch)
	if n == 0 {
		return nil, nil, nil
	}
	rs, cleanup, err := p.newRunState(ctx, opts)
	if err != nil {
		return nil, nil, &RunError{Module: m.Name, Err: err}
	}
	defer cleanup()
	cm := p.mods[m]
	results = make([][]any, n)
	errs = make([]error, n)

	if rs.pool == nil || n == 1 {
		// Sequential options or a singleton batch: run the elements on
		// the calling goroutine with inner parallelism intact. Results
		// are bitwise identical to the batch-DOALL path — every plan
		// variant computes the same values — so parity tests may compare
		// the two freely.
		for b := 0; b < n; b++ {
			if rs.cancelled() {
				errs[b] = &RunError{Module: m.Name, Err: rs.ctx.Err()}
				continue
			}
			results[b], errs[b] = p.keep(p.runModule(rs, cm, batch[b], false, false))
		}
		return results, errs, nil
	}

	// The fused batch DOALL: one row of tiles over the synthesized
	// leading dimension. Every element is a whole activation, so the
	// batch dispatches at any n ≥ 2 and Grain does not widen its tiles;
	// Cut still blocks elements into about TilesPerWorker tiles per
	// worker when the batch is much wider than the pool. Each tile counts
	// as one chunk, and each element's activation runs with inParallel
	// set, exactly as it would inside any other enclosing DOALL.
	cols, w := sched.Cut(int64(n), sched.TilesPerWorker*int64(rs.pool.Workers()), 0)
	completed := sched.Run(sched.Grid{Rows: 1, Cols: cols}, rs.pool, func(_ *obs.Ring, _, b int) bool {
		if rs.stats != nil {
			rs.stats.Chunks.Add(1)
		}
		lo := b * int(w)
		for e := lo; e < min(lo+int(w), n); e++ {
			results[e], errs[e] = p.keep(p.runModule(rs, cm, batch[e], true, false))
		}
		return !rs.cancelled()
	}, nil, nil)
	if !completed {
		cerr := rs.ctx.Err()
		for b := 0; b < n; b++ {
			if results[b] == nil && errs[b] == nil {
				errs[b] = &RunError{Module: m.Name, Err: cerr}
			}
		}
	}
	return results, errs, nil
}

// CompiledSize estimates the resident size in bytes of the compiled
// program: plan steps, kernel closures, bound thunks and symbol tables
// across both distinct plans of every module, plus a fixed
// per-module overhead. It is a stable, platform-independent accounting
// basis for cache eviction — not an exact heap measurement — so
// eviction order is deterministic across hosts.
func (p *Program) CompiledSize() int64 {
	const (
		moduleOverhead = 4096
		perStep        = 192
		perKernel      = 512
		perEq          = 256
		perBound       = 96
		perSym         = 128
	)
	var total int64
	for _, cm := range p.mods {
		total += moduleOverhead
		total += int64(len(cm.bounds)) * perBound
		total += int64(len(cm.syms)) * perSym
		for i, cp := range cm.plans {
			if cp == nil || (i > 0 && cp == cm.plans[0]) {
				continue
			}
			total += int64(len(cp.pl.Steps))*perStep +
				int64(len(cp.kernels))*perKernel +
				int64(len(cp.pl.Eqs))*perEq
		}
	}
	return total
}
