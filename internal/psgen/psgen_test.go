package psgen

import (
	"context"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/ps"
)

// backendTarget maps each class to the Outcome.Backends key its
// programs must reach.
var backendTarget = map[Class]string{
	ClassDOALL:          "doall",
	ClassWavefront:      "wavefront",
	ClassMultiWavefront: "multi-wavefront",
	ClassDoacross:       "doacross",
	ClassPipeline:       "pipeline",
	ClassSequential:     "sequential-reject",
}

// TestGenerateDeterministic pins the generator's repro contract: the
// same (seed, class) renders the same source and the same inputs.
func TestGenerateDeterministic(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		a, b := Generate(7, c), Generate(7, c)
		if a.Render() != b.Render() {
			t.Errorf("%s: Render not deterministic", c)
		}
		ja, _ := a.InputsJSON()
		jb, _ := b.InputsJSON()
		if string(ja) != string(jb) {
			t.Errorf("%s: inputs not deterministic", c)
		}
	}
}

// TestEveryClassCompiles requires every generated program over a seed
// sweep to pass the full front end — the generator's "well-typed by
// construction" contract.
func TestEveryClassCompiles(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		for seed := uint64(0); seed < 25; seed++ {
			sp := Generate(seed, c)
			src := sp.Render()
			if _, err := ps.CompileProgram("gen.ps", src); err != nil {
				t.Fatalf("%s seed %d does not compile: %v\n%s", c, seed, err, src)
			}
		}
	}
}

// TestClassesLandInTargetBackend checks eligibility-awareness: each
// class's programs must deterministically reach their cascade backend
// (ClassDoacross lands via the wavefront lowering; its runtime tile
// counter is covered by TestCheckCleanAcrossClasses).
func TestClassesLandInTargetBackend(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if c == ClassDoacross {
			continue
		}
		for seed := uint64(0); seed < 25; seed++ {
			sp := Generate(seed, c)
			fe, err := frontend(sp.Render())
			if err != nil {
				t.Fatalf("%s seed %d: %v", c, seed, err)
			}
			pl := plan.Lower(fe.mod, fe.schd, plan.Options{Hyperplane: true})
			out := &Outcome{Backends: map[string]bool{}}
			classify(pl, out)
			if !out.Backends[backendTarget[c]] {
				t.Errorf("%s seed %d did not reach %q; cascade:\n%s\n%s",
					c, seed, backendTarget[c], pl.CascadeReport(), sp.Render())
			}
		}
	}
}

// TestDoacrossClassLowersToWavefront pins the doacross class's
// geometry: wavefront-eligible, so the Grain(1) rows have planes to
// tile.
func TestDoacrossClassLowersToWavefront(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		sp := Generate(seed, ClassDoacross)
		fe, err := frontend(sp.Render())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pl := plan.Lower(fe.mod, fe.schd, plan.Options{Hyperplane: true})
		if !pl.HasWavefront() {
			t.Errorf("seed %d: doacross-class program has no wavefront step:\n%s", seed, sp.Render())
		}
	}
}

// TestCheckCleanAcrossClasses runs the quick differential matrix on a
// seed sweep of every class and expects zero findings — the harness's
// own no-false-positive bar. It also requires the sweep to observe
// runtime doacross tiles and at least one specializer fallback.
func TestCheckCleanAcrossClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not short")
	}
	ctx := context.Background()
	sawDoacross, sawFallback := false, false
	for c := Class(0); c < NumClasses; c++ {
		for seed := uint64(0); seed < 6; seed++ {
			sp := Generate(seed, c)
			out := Check(ctx, sp, Options{Quick: true})
			for _, f := range out.Findings {
				t.Errorf("%s seed %d: %s\n%s", c, seed, f, sp.Render())
			}
			if out.Backends["doacross"] {
				sawDoacross = true
			}
			if out.SpecFallback {
				sawFallback = true
			}
		}
	}
	if !sawDoacross {
		t.Error("no program in the sweep executed doacross tiles")
	}
	if !sawFallback {
		t.Error("no program in the sweep fell back to the generic kernel")
	}
}

// TestShrinkIsSafeOnPassingSpec pins the shrinker's contract that a
// spec whose check passes is returned unchanged (nothing "fails
// smaller").
func TestShrinkIsSafeOnPassingSpec(t *testing.T) {
	sp := Generate(3, ClassDOALL)
	got := Shrink(context.Background(), sp, Options{Quick: true}, 10)
	if got.Render() != sp.Render() {
		t.Errorf("shrink changed a passing spec:\n%s\nvs\n%s", sp.Render(), got.Render())
	}
}

// TestReductionsShrinkTheProgram sanity-checks that every proposed
// reduction renders a program no larger than the original.
func TestReductionsShrinkTheProgram(t *testing.T) {
	sp := Generate(11, ClassPipeline)
	sp.Sibling, sp.Consumers = true, 2
	n := len(sp.Render())
	for _, c := range reductions(sp) {
		if len(c.Render()) > n {
			t.Errorf("reduction grew the program:\n%s", c.Render())
		}
	}
}

// TestGuardCoversOffsets pins the boundary-initializer math: every
// dependence read in a rendered recurrence stays inside the declared
// box, which the strict variant would catch dynamically — here we just
// check the guard mentions each boundary point.
func TestGuardCoversOffsets(t *testing.T) {
	sp := Spec{Dims: []Dim{{Name: "I", Lo: 1, Hi: 6}, {Name: "J", Lo: 1, Hi: 7}}}
	g := sp.guard([][]int64{{2, 1}, {0, 1}, {1, -1}})
	for _, want := range []string{"(I = 1)", "(I = 2)", "(J = 1)", "(J = 7)"} {
		if !strings.Contains(g, want) {
			t.Errorf("guard %q missing %q", g, want)
		}
	}
}
