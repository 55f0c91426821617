package main

import (
	"context"
	"math/rand"
	"testing"

	"repro/ps"
)

// tinySet runs all ten programs at sizes small enough for tier-1.
var tinySet = []sized{
	{"relaxation", []int64{5, 4}}, {"gauss_seidel", []int64{5, 4}}, {"heat3d", []int64{4}},
	{"edit_distance", []int64{7, 9}}, {"reflect", []int64{6}}, {"mutual", []int64{6}},
	{"act_chain", []int64{5}}, {"smooth", []int64{17}}, {"coupled", []int64{7}},
	{"smith_waterman", []int64{9, 7}},
}

// TestReferencesMatchInterpreter pins each hand-written reference to the
// interpreter's sequential output, bit for bit.
func TestReferencesMatchInterpreter(t *testing.T) {
	if len(tinySet) != len(programs) {
		t.Fatalf("tinySet covers %d of %d programs", len(tinySet), len(programs))
	}
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	for _, a := range newActivations(rand.New(rand.NewSource(7)), tinySet) {
		prog, err := eng.Compile(a.prog.name+".ps", a.prog.source())
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range [][]ps.RunOption{{ps.Sequential()}, nil} {
			run, err := prog.Prepare(a.prog.module, opts...)
			if err != nil {
				t.Fatal(err)
			}
			results, _, err := run.Run(context.Background(), a.args())
			if err != nil {
				t.Fatal(err)
			}
			if err := a.checkArrays(results); err != nil {
				t.Error(err)
			}
		}
	}
}
