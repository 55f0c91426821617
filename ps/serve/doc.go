// Package serve is a batched multi-tenant HTTP/JSON serving layer
// over ps.Engine.
//
// The core idea is the paper's §5 fusion argument turned sideways:
// when N independent activations of the same module are pending, the
// batch index appears in no subscript expression, so the dependence
// test trivially admits a fused batch DOALL over the batch axis. The
// server's batcher per (program, module) pair is work-conserving: an
// idle batcher runs a request at once, and the activations that queue
// while a batch runs are dispatched together as the next
// Runner.RunBatch call, so batches grow with load and no request waits
// on a timer. Results are bitwise identical to N sequential Runner.Run
// calls, because every plan variant in this repository computes
// identical values by construction.
//
// A /v1/run body is read into a pooled buffer and its envelope split in
// one validating pass, each input handed to ps.ArgsFromJSON as a
// sub-slice of the buffer; a body outside the canonical subset that
// pass accepts is decoded by encoding/json, so what is accepted, and
// every error text, is encoding/json's.
//
// Around that core the package provides the operational surface a
// shared engine needs:
//
//   - Admission control: per-tenant token-bucket rate quotas and
//     bounded queues, answered with 429 + Retry-After; fair
//     round-robin draining across tenants into each batch.
//   - Graceful drain: Drain stops admission (503), flushes every
//     queued activation, and waits for in-flight responses.
//   - Plan-cache management: the engine's compiled-program cache is
//     LRU-bounded (ps.WithCacheLimit) with compiled-size accounting;
//     /reload re-reads the program directory, and the content-hash
//     cache key makes unchanged programs free.
//   - Observability: /metrics exposes Prometheus text-format counters
//     (requests, rejections, batch-size and queue-wait histograms,
//     queue depths, the run counters from RunStats, and engine cache
//     stats), /explain
//     prints a module's lowered plan, /healthz reports liveness.
//
// See cmd/psserve for the standalone binary.
package serve
