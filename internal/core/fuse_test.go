package core_test

import (
	"testing"

	"repro"
	"repro/internal/core"
)

// TestFuseIndependent merges two DOALL loops over the same subrange when
// the second reads the first at the current iteration.
func TestFuseIndependent(t *testing.T) {
	src := `
Two: module (Xs: array[I] of real; N: int): [Ys: array [I] of real; Zs: array [I] of real];
type I = 0 .. N;
define
    Ys[I] = Xs[I] * 2.0;
    Zs[I] = Ys[I] + 1.0;
end Two;
`
	_, sched := compile(t, src)
	plain := sched.Flowchart.Compact()
	if plain != "DOALL I (eq.1); DOALL I (eq.2)" {
		t.Fatalf("unfused schedule %q", plain)
	}
	fused := core.Fuse(sched.Flowchart).Compact()
	if fused != "DOALL I (eq.1; eq.2)" {
		t.Errorf("fused schedule %q, want one loop", fused)
	}
}

// TestFuseBlockedByForwardRef keeps loops separate when the consumer
// reads a later iteration of the producer.
func TestFuseBlockedByForwardRef(t *testing.T) {
	src := `
Fwd: module (Xs: array[I] of real; N: int): [Ys: array [I] of real; Zs: array [I] of real];
type I = 0 .. N;
define
    Ys[I] = Xs[I] * 2.0;
    Zs[I] = if I = N then Ys[I] else Ys[I+1];
end Fwd;
`
	_, sched := compile(t, src)
	fused := core.Fuse(sched.Flowchart).Compact()
	if fused != "DOALL I (eq.1); DOALL I (eq.2)" {
		t.Errorf("forward reference fused illegally: %q", fused)
	}
}

// TestFuseBackwardRefAllowed fuses iterative loops whose consumer reads
// earlier iterations, and keeps DOALL loops with the same read apart: a
// fused DOALL runs in chunks, and the element read at a chunk's first
// point belongs to another chunk.
func TestFuseBackwardRefAllowed(t *testing.T) {
	src := `
Back: module (Xs: array[I] of real; N: int): [Ys: array [I] of real; Zs: array [I] of real];
type I = 0 .. N;
var P: array [0 .. N] of real;
define
    P[I] = if I = 0 then Xs[I] else P[I-1] + Xs[I];
    Ys[I] = if I = 0 then P[I] else Ys[I-1] + P[I-1];
    Zs[I] = if I = 0 then Ys[I] else Ys[I-1];
end Back;
`
	_, sched := compile(t, src)
	plain := sched.Flowchart.Compact()
	if plain != "DO I (eq.1); DO I (eq.2); DOALL I (eq.3)" {
		t.Fatalf("unfused schedule %q", plain)
	}
	fused := core.Fuse(sched.Flowchart).Compact()
	if fused != "DO I (eq.1; eq.2); DOALL I (eq.3)" {
		t.Errorf("backward reference: fused schedule %q, want the DO pair merged and the DOALL apart", fused)
	}
}

// TestFuseDoAllSameIteration admits a DOALL merge only for reads of the
// element the same iteration wrote: a transposed or diagonal read of an
// identity-written array names the fused dimension, but at another
// position, so the element may belong to another chunk.
func TestFuseDoAllSameIteration(t *testing.T) {
	for _, tc := range []struct{ read, want string }{
		{"Ys[I,J]", "DOALL I (DOALL J (eq.1; eq.2))"},
		{"Ys[J,I]", "DOALL I (DOALL J (eq.1)); DOALL I (DOALL J (eq.2))"},
		{"Ys[I,I]", "DOALL I (DOALL J (eq.1)); DOALL I (DOALL J (eq.2))"},
	} {
		src := `
Tr: module (Xs: array[I,J] of real; N: int): [Ys: array [I,J] of real; Zs: array [I,J] of real];
type I = 0 .. N; J = 0 .. N;
define
    Ys[I,J] = Xs[I,J] * 2.0;
    Zs[I,J] = ` + tc.read + ` + 1.0;
end Tr;
`
		_, sched := compile(t, src)
		if got := core.Fuse(sched.Flowchart).Compact(); got != tc.want {
			t.Errorf("read %s: fused schedule %q, want %q", tc.read, got, tc.want)
		}
	}
}

// TestFuseNested collapses matching inner nests recursively.
func TestFuseNested(t *testing.T) {
	src := `
Nest: module (Xs: array[I,J] of real; N: int): [Ys: array [I,J] of real; Zs: array [I,J] of real];
type I = 0 .. N; J = 0 .. N;
define
    Ys[I,J] = Xs[I,J] * 2.0;
    Zs[I,J] = Ys[I,J] + 1.0;
end Nest;
`
	_, sched := compile(t, src)
	fused := core.Fuse(sched.Flowchart).Compact()
	if fused != "DOALL I (DOALL J (eq.1; eq.2))" {
		t.Errorf("nested fusion produced %q", fused)
	}
}

// TestFuseMixedKindsBlocked never merges a DO with a DOALL, or loops over
// different subranges.
func TestFuseMixedKindsBlocked(t *testing.T) {
	_, sched := compile(t, repro.Source("relaxation"))
	fused := core.Fuse(sched.Flowchart).Compact()
	// eq.1's DOALL I and the recurrence's DO K differ in subrange; the
	// final DOALL I (eq.2) is separated from eq.1 by the K loop. Nothing
	// fuses in the relaxation module.
	want := "DOALL I (DOALL J (eq.1)); DO K (DOALL I (DOALL J (eq.3))); DOALL I (DOALL J (eq.2))"
	if fused != want {
		t.Errorf("relaxation fused to %q", fused)
	}
}

// TestFuseSameSubrangeIterative merges adjacent iterative loops too
// (the paper's explicit wish: "better merge iterative loops").
func TestFuseSameSubrangeIterative(t *testing.T) {
	src := `
It: module (N: int): [Ys: array [I] of real; Zs: array [I] of real];
type I = 1 .. N; I0 = 1 .. N;
var P: array [1 .. N] of real; Q: array [1 .. N] of real;
define
    P[1] = 1.0;
    P[I] = if I = 1 then 1.0 else P[I-1] * 2.0;
    Q[I] = if I = 1 then P[I] else Q[I-1] + P[I-1];
    Ys[I] = P[I];
    Zs[I] = Q[I];
end It;
`
	// P has a double definition at index 1; drop eq.1 to keep it legal.
	src = `
It: module (N: int): [Ys: array [I] of real; Zs: array [I] of real];
type I = 1 .. N;
var P: array [1 .. N] of real; Q: array [1 .. N] of real;
define
    P[I] = if I = 1 then 1.0 else P[I-1] * 2.0;
    Q[I] = if I = 1 then P[I] else Q[I-1] + P[I-1];
    Ys[I] = P[I];
    Zs[I] = Q[I];
end It;
`
	_, sched := compile(t, src)
	plain := sched.Flowchart.Compact()
	if plain != "DO I (eq.1); DOALL I (eq.3); DO I (eq.2); DOALL I (eq.4)" {
		t.Fatalf("unfused schedule %q", plain)
	}
	// Fusion hoists eq.2's DO across the independent DOALL (eq.3) and
	// merges both pairs.
	fused := core.Fuse(sched.Flowchart).Compact()
	if fused != "DO I (eq.1; eq.2); DOALL I (eq.3; eq.4)" {
		t.Errorf("fused schedule %q", fused)
	}
}
