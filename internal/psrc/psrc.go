// Package psrc holds the canonical PS source texts used across the test
// suite, the benchmarks and the figure-reproduction tool: the paper's
// Figure 1 relaxation module, its §4 Gauss–Seidel-style revision, and a
// set of auxiliary workloads exercising the same language surface.
package psrc

// Relaxation is the paper's Figure 1: Jacobi-style relaxation in which
// every element value is taken from the previous iteration (Equation 1).
// Its schedule is Figure 6: DOALL I/J around eq.1 and eq.2, and
// DO K (DOALL I (DOALL J (eq.3))) for the recurrence.
const Relaxation = `(*$m+v+x+t-*)
Relaxation: module (InitialA: array[I,J] of real;
                    M: int; maxK: int):
    [newA: array [I,J] of real];
type
    I,J = 0 .. M+1;  K = 2 .. maxK;
var
    A: array [1 .. maxK] of array[I,J] of real;
    (* A denotes the succession of grids *)
define
    (*eq.1*) A[1] = InitialA;  (* the first grid is input *)
    (*eq.2*) newA = A[maxK];   (* the grid returned is from the last iteration *)
    (*eq.3*) A[K,I,J] = if (I = 0)
                   or (J = 0)
                   or (I = M+1)
                   or (J = M+1)
                 then A[K-1,I,J]  (* carry over boundary points *)
                 else ( A[K-1,I,J-1]
                       +A[K-1,I-1,J]
                       +A[K-1,I,J+1]
                       +A[K-1,I+1,J] ) / 4;
end Relaxation;
`

// RelaxationGS is the §4 revision (the paper's Equation 2): the standard
// Gauss–Seidel-style relaxation whose left and upper neighbours come from
// the current iteration. Deleting the K-1 edges leaves two recursive
// edges, so every loop is iterative (Figure 7) until the hyperplane
// transformation is applied.
const RelaxationGS = `(*$m+v+x+t-*)
Relaxation: module (InitialA: array[I,J] of real;
                    M: int; maxK: int):
    [newA: array [I,J] of real];
type
    I,J = 0 .. M+1;  K = 2 .. maxK;
var
    A: array [1 .. maxK] of array[I,J] of real;
define
    (*eq.1*) A[1] = InitialA;
    (*eq.2*) newA = A[maxK];
    (*eq.3*) A[K,I,J] = if (I = 0)
                   or (J = 0)
                   or (I = M+1)
                   or (J = M+1)
                 then A[K-1,I,J]  (* carry over boundary points *)
                 else ( A[K,I,J-1]
                       +A[K,I-1,J]
                       +A[K-1,I,J+1]
                       +A[K-1,I+1,J] ) / 4;
end Relaxation;
`

// Heat1D is a one-dimensional explicit heat equation: the same
// DO-over-time / DOALL-over-space shape as the relaxation module on a
// smaller stencil, used by examples and property tests.
const Heat1D = `
Heat1D: module (U0: array[X] of real; N: int; steps: int; alpha: real):
    [U: array [X] of real];
type
    X = 0 .. N+1;  T = 2 .. steps;
var
    G: array [1 .. steps] of array[X] of real;
define
    G[1] = U0;
    U = G[steps];
    G[T,X] = if (X = 0) or (X = N+1)
             then G[T-1,X]
             else G[T-1,X] + alpha * (G[T-1,X-1] - 2.0*G[T-1,X] + G[T-1,X+1]);
end Heat1D;
`

// Prefix is a first-order linear recurrence (running sum): fully
// sequential in its single dimension, the minimal iterative schedule.
const Prefix = `
Prefix: module (Xs: array[I] of real; N: int): [S: array [I] of real];
type
    I = 1 .. N;  I2 = 2 .. N;
var
    P: array [1 .. N] of real;
define
    P[1] = Xs[1];
    P[I2] = P[I2-1] + Xs[I2];
    S[I] = P[I];
end Prefix;
`

// Smooth is a pure DOALL workload: a one-pass 3-point smoothing with no
// recurrence at all, so every loop is parallel.
const Smooth = `
Smooth: module (Xs: array[I] of real; N: int): [Ys: array [I] of real];
type
    I = 0 .. N+1;
define
    Ys[I] = if (I = 0) or (I = N+1)
            then Xs[I]
            else (Xs[I-1] + Xs[I] + Xs[I+1]) / 3.0;
end Smooth;
`

// Pipeline is a two-module program: Smooth invoked from a driver module,
// exercising cross-module calls.
const Pipeline = Smooth + `
Pipeline: module (Xs: array[I] of real; N: int): [Zs: array [I] of real];
type
    I = 0 .. N+1;
var
    Mid: array [0 .. N+1] of real;
define
    Mid = Smooth(Xs, N);
    Zs = Smooth(Mid, N);
end Pipeline;
`

// CoupledGrid is a two-equation strongly connected component scheduled
// into one DO I (DO J (...)) nest: U and V read each other at [I-1,J]
// and [I,J-1], so the cross dependences keep the component connected at
// every recursion level. The multi-equation §4 analysis solves one time
// vector pi = (1,1) for the union of the four dependence vectors, and
// the lowered plan carries both kernels in a single wavefront step. The
// module's (InitialA, M, maxK) signature and single newA result match
// the cc validation harness; maxK only scales the combined output.
const CoupledGrid = `
CoupledGrid: module (InitialA: array[I,J] of real; M: int; maxK: int):
    [newA: array [I,J] of real];
type
    I,J = 0 .. M+1;
var
    U: array [0 .. M+1, 0 .. M+1] of real;
    V: array [0 .. M+1, 0 .. M+1] of real;
define
    U[I,J] = if (I = 0) or (J = 0)
             then InitialA[I,J]
             else (U[I-1,J] + V[I,J-1]) / 2.0;
    V[I,J] = if (I = 0) or (J = 0)
             then 0.5 * InitialA[I,J]
             else (V[I-1,J] + U[I,J-1]) / 2.0;
    newA[I,J] = U[I,J] + 0.125 * V[I,J] * float(maxK);
end CoupledGrid;
`

// Wavefront2D is a 2-D recurrence with dependences inside the plane only
// (no time dimension): both loops iterative under §3.3, a classic
// hyperplane candidate.
const Wavefront2D = `
Wavefront2D: module (Seed: array[I,J] of real; N: int): [Out: array [I,J] of real];
type
    I,J = 0 .. N+1;
var
    W: array [0 .. N+1, 0 .. N+1] of real;
define
    W[I,J] = if (I = 0) or (J = 0)
             then Seed[I,J]
             else (W[I-1,J] + W[I,J-1]) / 2.0;
    Out[I,J] = W[I,J];
end Wavefront2D;
`

// Reflect is the cascade's sequential witness (also pinned as
// testdata/reflect.ps): the reflected previous-row read X[I-1, N+1-J]
// in eq.2 has no constant column offset, so the wavefront analysis
// refuses the recurrence nest and it stays a sequential DO I (DO J)
// nest ahead of the two DOALL output copies.
const Reflect = `
Reflect: module (Seed: array[I,J] of real; N: int):
    [OutX: array [I,J] of real; OutY: array [I,J] of real];
type
    I,J = 1 .. N;
var
    X: array [1 .. N, 1 .. N] of real;
    Y: array [1 .. N, 1 .. N] of real;
define
    X[I,J] = if (I = 1) or (J = 1)
             then Seed[I,J]
             else (X[I-1,J] + Y[I,J-1]) / 2.0;
    Y[I,J] = if (I = 1) or (J = 1)
             then 0.5 * Seed[I,J]
             else (Y[I-1,J] + X[I,J-1] + X[I-1, N+1-J]) / 3.0;
    OutX[I,J] = X[I,J];
    OutY[I,J] = Y[I,J];
end Reflect;
`

// Mutual is the cascade-ordering workload (also pinned as
// testdata/mutual.ps): two mutually recursive arrays whose scheduler
// output is DO I (DO J (eq.2); DO J (eq.1)). The re-merge pre-pass
// rejoins the sibling nests and the union of dependence vectors
// {(1,0),(0,1)} admits pi = (1,1), so the auto cascade wavefronts it.
const Mutual = `
Mutual: module (Seed: array[I,J] of real; N: int):
    [OutX: array [I,J] of real; OutY: array [I,J] of real];
type
    I,J = 0 .. N+1;
var
    X: array [0 .. N+1, 0 .. N+1] of real;
    Y: array [0 .. N+1, 0 .. N+1] of real;
define
    X[I,J] = if (I = 0) or (J = 0)
             then Seed[I,J]
             else (Y[I-1,J] + X[I,J-1]) / 2.0;
    Y[I,J] = if (I = 0) or (J = 0)
             then 0.5 * Seed[I,J]
             else (X[I-1,J] + Y[I,J-1]) / 2.0;
    OutX[I,J] = X[I,J];
    OutY[I,J] = Y[I,J];
end Mutual;
`

// Heat3D is the three-dimensional wavefront workload (also pinned as
// testdata/heat3d.ps): a Gauss-Seidel-style sweep over a cube whose
// dependence vectors (1,0,0), (0,1,0), (0,0,1) force the hyperplane
// analysis to schedule planes of constant I+J+K — the time vector
// pi = (1,1,1) spans all three dimensions, so plane sizes grow and
// shrink as the sweep crosses the cube corner to corner.
const Heat3D = `
Heat3D: module (G: array[I,J,K] of real; N: int):
    [Out: array[I,J,K] of real];
type
    I = 0 .. N;  J = 0 .. N;  K = 0 .. N;
define
    Out[I,J,K] = if (I = 0) or (J = 0) or (K = 0)
                 then G[I,J,K]
                 else (Out[I-1,J,K] + Out[I,J-1,K] + Out[I,J,K-1]
                       + G[I,J,K]) / 4.0;
end Heat3D;
`

// EditDistance is the boundary-equation DP workload (also pinned as
// testdata/edit_distance.ps): Levenshtein distance with the first row
// and column defined by their own equations over the 1 .. N / 1 .. M2
// subranges rather than a guard inside the recurrence, so the plan
// carries two boundary DOALLs ahead of the pi = (1,1) interior
// wavefront.
const EditDistance = `
EditDistance: module (A: array[I1] of int; B: array[J1] of int;
                      N: int; M2: int):
    [Dist: array[I,J] of real];
type
    I = 0 .. N;   J = 0 .. M2;
    I1 = 1 .. N;  J1 = 1 .. M2;
var
    D: array[I,J] of real;
define
    D[0,0] = 0.0;
    D[I1,0] = float(I1);
    D[0,J1] = float(J1);
    D[I1,J1] = min(D[I1-1,J1] + 1.0,
              min(D[I1,J1-1] + 1.0,
                  D[I1-1,J1-1]
                    + (if A[I1] = B[J1] then 0.0 else 1.0)));
    Dist[I,J] = D[I,J];
end EditDistance;
`
