// Package plan defines the flat loop-program IR both execution backends
// consume — the keystone between the paper's scheduler (internal/core)
// and the executors (internal/interp, internal/cgen).
//
// # Contract
//
// A plan is lowered exactly once per (module, Options) pair from the
// core scheduler's flowchart. Lowering is the single point where
// flowchart descriptors are interpreted; backends must consume the
// returned Program and never re-analyze core.Flowchart at run time.
// Lowering resolves loops to frame slots (Bounds order), collapses
// directly nested DOALL loops into one multi-dimensional parallel step,
// assigns every equation a kernel index, and — under Options.Hyperplane
// — runs the cascade: at each flowchart level §5 loop fusion merges
// sibling nests where the merged nest is a leaf DOALL or a wavefront,
// then every eligible fully sequential nest becomes an OpWavefront step
// via internal/hyperplane. Merged nests carry Decision.Merged.
//
// A wavefront step covers a singleton recurrence or a multi-equation
// group (a strongly connected component scheduled into one body, or
// nests the fusion step merged): the step's body is one OpEq step per equation in
// scheduled order, and its Hyper block carries one π/T/T⁻¹ solved for
// the union of the group's dependence vectors, plus the tiling (skew,
// row mode) that VerifyTiles re-checks against the depgraph.
//
// # One plan per execution mode
//
// The interpreter compiles two plans up front: with the cascade (default
// parallel runs) and without it (the schedule as emitted, which
// sequential runs execute); when the cascade changes nothing they share
// one compiled plan. Both share the same Bounds order (and therefore the
// same frame-slot assignment), and equation kernels are compiled once
// and shared — which is why the two are bitwise identical: they run the
// same kernels at the same points in dependence-respecting orders.
//
// # Invariants
//
//   - Steps is a pre-order flat array; a loop step's body is
//     Steps[i+1:End], so executors iterate with index skips and no
//     pointer chasing.
//   - An OpWavefront body consists of OpEq steps only, in group order;
//     executors may dispatch the kernels directly (the leaf fast path).
//   - Hyper.Pi is the least time vector for the dependence union;
//     Hyper.T is unimodular with Pi as row 0 and TInv its exact integer
//     inverse.
//   - Hyper.TDeps lists T·d for every union dependence (first component
//     ≥ 1); Hyper.Window is 1 + the largest first component.
//   - Hyper.Skew is unit lower-triangular with S·d ≥ 0 componentwise
//     for every union dependence d, so any rectangular tiling of the
//     skewed nest is legal and the innermost skewed coordinate moves the
//     original innermost index by one (gauss_seidel: (K, I+K, J+K)).
//   - Hyper.RowSplit holds exactly when no dependence inside one skewed
//     row, S·d = (0,…,0,c), runs from a later body equation to an
//     earlier one: each equation may then run its whole row in turn.
//   - Virtual windows keyed on transformed subranges are dropped from
//     wavefront variants: tiles interleave the nest's outer iterations,
//     so a window sized for ascending order would be overwritten while
//     still live.
package plan
