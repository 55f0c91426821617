// Package serve is a multi-tenant HTTP/JSON serving layer over
// ps.Engine.
//
// One request is one activation. The paper's parallelism lives in the
// loops of that activation — its DOALL steps and §4 wavefronts — which
// the engine's shared pool already runs in parallel, so the server
// adds no second level: an admitted request waits, in arrival order,
// for one of the engine's Workers() run slots and then runs alone on
// the pool with Runner.Run (Runner.TraceRun for ?trace=1). At most
// pool-width activations run at once, and a request whose client
// leaves while it waits for a slot releases its place without running.
//
// A /v1/run body is read into a pooled buffer and its envelope split in
// one validating pass, each input handed to ps.ArgsFromJSON as a
// sub-slice of the buffer; a body outside the canonical subset that
// pass accepts is decoded by encoding/json, so what is accepted, and
// every error text, is encoding/json's. The inputs must then name
// exactly the module's parameters, and decode by ps.ArgsFromJSON's
// rules (null is refused); any failure there is a 400.
//
// Around that core the package provides the operational surface a
// shared engine needs:
//
//   - Admission control: per-tenant token-bucket rate quotas and a
//     per-tenant bound on requests admitted but not yet answered, both
//     answered with 429 + Retry-After. The bound is the whole of
//     per-tenant isolation: run slots are taken in arrival order.
//   - Graceful drain: Drain stops admission (503), lets every admitted
//     activation run, and waits for in-flight responses.
//   - Plan-cache management: the engine's compiled-program cache is
//     LRU-bounded (ps.WithCacheLimit) with compiled-size accounting;
//     /reload re-reads the program directory, and the content-hash
//     cache key makes unchanged programs free.
//   - Observability: /metrics exposes Prometheus text-format counters
//     (requests, rejections, the run-slot wait histogram, in-flight
//     requests per tenant, the run counters from RunStats, and engine
//     cache stats), /explain prints a module's lowered plan, /healthz
//     reports liveness.
//
// See cmd/psserve for the standalone binary.
package serve
