// Package interp executes scheduled PS modules — the execution
// substrate standing in for the paper's MIMD target. Each module is
// compiled once: equations become typed closure kernels, the core
// schedule is lowered into the flat loop-plan IR (internal/plan) once per
// execution mode, and activations execute plan instructions with virtual
// dimensions allocated as sliding windows.
//
// # One expression compiler, two addressing modes
//
// Restructuring changes loops and subscripts only; an equation's
// right-hand side is the same under every schedule. Accordingly one
// compiler (compile.go) is the only code that turns a PS expression into
// a Go closure, and every closure has one shape, func(*kctx) T.
// Literals, widening, operators, the div/mod zero check, comparisons,
// if/elsif and every builtin are written once. The compiler's
// addressing mode decides the leaves alone:
//
//   - checked: scalars unbox from the env, array elements go through
//     evaluated, range-checked (and under Strict, definedness-checked)
//     subscripts. Every equation has a checked kernel.
//   - direct: scalars are hoisted at span entry and array elements read
//     through offsets certified once per span, each advancing by its
//     subscript's slope × stride per point — any constant integer slope,
//     a reflected N + 1 − J included (specialize.go holds the access and
//     hoist tables and the span loop). Shapes outside the fragment —
//     module calls, record fields, strings, bool arrays, subscripts that
//     are not affine in the loop indices (div, mod, products) — bail with
//     a reason (Program.Kernels), leaving the checked kernel.
//
// A body `if g1 then a1 elsif … else aN` whose guards are span-affine —
// true/false, not, and, or over comparisons of affine integer index
// expressions with span-invariant terms — compiles one direct store per
// arm (index-set splitting). A span evaluates each comparison once,
// cuts itself at the ≤ 2 points per comparison where the comparison's
// truth can change, and runs each piece with the arm its guard selects,
// certified against that arm's accesses alone; any other body is the
// one-arm, zero-cut case of the same span loop. Points a piece's
// certificate cannot cover run the checked kernel, so the two modes are
// bitwise identical by construction: a new operator or builtin is one
// edit (plus its fused shapes, operand.go, when it is a binary
// arithmetic or comparison operator).
//
// The direct mode also folds leaves into their parents. A binary node
// with a leaf operand — a direct read, a literal, a hoisted scalar — is
// one closure over the checked operator in its operand order (a fused
// node: R + R, T / 4), and a store inlines a leaf value or the root of
// `subtree op literal`. An arm whose value is a bare read of another
// array (Out[I,J] = X[I,J], newA = A[maxK]) is a copy arm: on a
// single-equation span whose target and source accesses both advance by
// one element per point, each certified piece stores with one copy.
//
// Every loop that hands kernels contiguous runs of points reaches the
// direct mode through one span executor, which runs a body of k ≥ 1
// equations: DOALL rows and split wavefront rows one equation at a time
// (k = 1); the leaf DO — the innermost sequential loop of a recurrence
// nest, whose body is equations only (the paper's §3 iterative loop) —
// and jammed wavefront rows their whole body, every equation in body
// order at each point. A leaf DO runs its whole range as one span. The
// span's certificate is the union of its equations' accesses and its
// cuts the union of their guards' cuts, so each piece runs a tuple of
// arms; a point outside the certificate runs all k checked kernels in
// body order. The span stores each point before the next point reads,
// so a read carried along the loop at any distance, from any equation
// of the body, sees program order. Only a DO around a nested loop runs
// its own equations point by point (Program.Kernels reports why).
//
// # Contract
//
// A compiled Program is immutable and safe for concurrent Run/RunCtx
// calls: every activation builds its own environment, and pooled
// per-worker state (env copies and index frames) is reused across DOALL
// and wavefront tiles without sharing mutable state between concurrent
// activations. An activation never runs on more goroutines
// than its worker count — the pool's workers, the caller among them —
// which is what makes a traced run's compute + stall + idle add up to
// exactly workers × wall.
// Cancellation aborts sequential loops within one iteration (a leaf DO
// within one span), DOALLs within one row and wavefronts within one
// tile, and Stats counters are valid up to the abort.
//
// # One plan per execution mode
//
// Options.Sequential alone selects one of two compiled plans at
// activation time: the cascade plan every parallel run executes (W = 1
// included) — §5 fusion where a merge yields a parallel step, then
// DOALL → wavefront → sequential — or the schedule as emitted, which
// sequential runs execute and which is the parity reference. When the
// cascade changes nothing the two share one compiled plan. Equation
// kernels are compiled once and shared. No option selects an executor:
// see Parallel dispatch below. NoSpecialize and NoVirtual do not change
// the plan either; they select the reference implementations the
// parity tests diff against — the checked kernels for every span, and
// physical storage for every §3.4 window.
//
// # Bitwise-identical results
//
// Every plan, tiled or swept inline, runs the same kernel closures at
// exactly the original iteration points in a dependence-respecting
// order, so results are bitwise identical to the sequential reference:
//
//   - DOALL steps permute independent points only; a fused DOALL's
//     kernels read each other only at the point being executed, so each
//     runs its own span per row;
//   - wavefront steps run rectangular tiles of skewed space (S·d ≥ 0
//     for every dependence d, plan.Hyper.Skew); tile (a, b) starts
//     after (a−1, b) and (a, b−1), and inside it rows along the
//     original innermost index run in skewed-lexicographic order, each
//     equation's whole row in turn (Hyper.RowSplit) or as one span of
//     the body, its equations jammed per point;
//   - the inline sweep is the one tile covering the box, run by the same
//     walker (sweepTile): the original loop order, Seq's spans.
//
// The variants parity matrix (variants_test.go at the repo root)
// enforces this across the corpus under -race.
//
// # Parallel dispatch
//
// The run has one parallel executor, the tile executor of
// internal/sched, and one size rule for every step that may use it. A
// wavefront is a chained grid of skewed tiles, tile (a, b) waiting on
// (a−1, b) and (a, b−1); a DOALL step is one row of independent tiles
// over its collapsed linear index 0..total−1. A DOALL tile that fails
// leaves the other tiles running, so the run reports the failure of the
// earliest failing point in the linear index, as the inline walk would;
// a wavefront stops at its first failure. Whether an activation
// dispatches a step is a pure function of what its bounds resolve to
// (TilePlane): the step runs as tiles iff the run has a pool of W > 1
// workers, the step is not already inside a parallel tile or batch
// element, and
//
//	points / planes ≥ g × W
//
// where points is the volume of the iteration box, planes is 1 for a
// DOALL and e0 + e1 − 1 for a wavefront whose two tiled skewed
// coordinates (the first two past any the box fixes to one value) take
// e0 and e1 values — with e0 or e1 of 1 its grid would be one chain, and
// it never tiles — and g is Options.Grain when the caller set one and
// 32 otherwise. A DOALL's tiles are max(g, span/(4W)) wide on its
// linear index; a wavefront cuts each tiled coordinate into 4W tiles,
// or W for the row. Everything else runs on the calling goroutine: a
// DOALL walks its linear index with the walker its tiles use, a
// wavefront sweeps the one tile covering its box. A batch axis
// (RunBatchCtx) is one more row of tiles over its elements, dispatched
// at any n ≥ 2.
// Nothing is measured and nothing is remembered between activations, so
// the same bounds always take the same side and Runner.Explain is a
// function of plan and options alone.
package interp
