// Package interp executes scheduled PS modules — the execution
// substrate standing in for the paper's MIMD target. Each module is
// compiled once: equations become typed closure kernels, the core
// schedule is lowered into every variant of the flat loop-plan IR
// (internal/plan), and activations execute plan instructions with
// virtual dimensions allocated as sliding windows.
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
//     through offsets certified once per span (specialize.go holds the
//     access and hoist tables and the span loop). Shapes outside the
//     fragment — module calls, record fields, strings, bool arrays,
//     subscripts that are not unit-stride — bail with a reason
//     (Program.Kernels), leaving the checked kernel.
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
// edit.
//
// Every loop that hands kernels contiguous runs of points reaches the
// direct mode through one span executor: DOALL rows, wavefront plane
// rows and tiles, and the leaf DO — the innermost sequential loop of a
// recurrence nest whose body is one equation (the paper's §3 iterative
// loop), which runs its whole range as one span. The span stores each
// point before the next point reads, so a read carried along the loop
// at any distance sees program order. A DO around two or more
// equations, or around a nested loop, runs its body point by point
// (Program.Kernels reports why).
//
// # Contract
//
// A compiled Program is immutable and safe for concurrent Run/RunCtx
// calls: every activation builds its own environment, and pooled
// per-worker state (env copies and index frames) is reused across DOALL
// chunks and wavefront tiles without sharing mutable state between
// concurrent activations. An activation never runs on more goroutines
// than its worker count — the pool's workers, the caller among them —
// which is what makes a traced run's compute + stall + idle add up to
// exactly workers × wall.
// Cancellation aborts sequential loops within one iteration (a leaf DO
// within one span) and in-flight parallel work within one chunk/tile,
// and Stats counters are valid up to the abort.
//
// # Plan-variant matrix
//
// Options select among the four compiled [fuse][cascade] plan variants
// at activation time — the cascade column is restructuring off or the
// DOALL → wavefront → sequential cascade; a row whose nests never
// wavefront lowers identically either way and shares one compiled plan.
// Equation kernels are compiled once and shared by all of them. No
// option selects an executor: see Wavefront dispatch below.
//
// # Bitwise-identical results
//
// Every variant, tiled or swept inline, runs the same kernel closures at
// exactly the original iteration points in a dependence-respecting
// order, so results are bitwise identical to the sequential reference:
//
//   - DOALL steps permute independent points only;
//   - wavefront steps execute hyperplanes t = π·x in ascending order
//     with π·d ≥ 1 for every dependence d of the nest's equation group,
//     and each in-box plane point runs the group's kernels in scheduled
//     order, preserving in-plane zero-distance dependences;
//   - the tile executor and the inline sweep share one geometry
//     (wfSpace): the same per-plane tightened bounds, the same T⁻¹
//     preimages, the same guard against bounding-box slack.
//
// The variants parity matrix (variants_test.go at the repo root)
// enforces this across the corpus under -race.
//
// # Wavefront dispatch
//
// A wavefront step uses the pool in exactly one way: the doacross tile
// executor (internal/sched, reached through execWavefrontTiles). Whether
// an activation uses it is a pure function of what its bounds resolve to
// (TilePlane): the nest is tiled iff the run has a pool of W > 1
// workers, the step is not already inside a parallel chunk or batch
// element, and
//
//	points / planes ≥ g × W
//
// where points and planes are the volume and time extent of the
// iteration box and g is Options.Grain when the caller set one and 32
// otherwise. Everything else sweeps the planes in order on the calling
// goroutine. Nothing is measured and nothing is remembered between
// activations, so the same bounds always take the same side and
// Runner.Explain is a function of plan and options alone.
package interp
