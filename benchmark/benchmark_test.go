package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestPercentileHelpers(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5.5}, {0.25, 3.25}, {0.9, 9.1}, {1, 10}} {
		if got := percentile(asc, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := iqr(asc); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("iqr = %v, want 4.5", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
	// A tail percentile needs ten samples beyond it.
	if tail(asc, 0.9) != 0 {
		t.Error("p90 of 10 samples has one sample beyond it and must read 0")
	}
	hundred := make([]float64, 100)
	for k := range hundred {
		hundred[k] = float64(k)
	}
	if tail(hundred, 0.9) == 0 || tail(hundred, 0.99) != 0 {
		t.Error("100 samples carry a p90 but no p99")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(asc); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want Python's 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestSeedDeterminesInputs: equal seeds give equal inputs and arrival
// schedules, different seeds different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	gen := func(seed int64) ([]*activation, []time.Duration, []int) {
		rng := seededRand(seed)
		acts := newActivations(rng, tinySet)
		due, kinds := arrivals(rng, 2*time.Second)
		return acts, due, kinds
	}
	a1, d1, k1 := gen(5)
	a2, d2, k2 := gen(5)
	a3, d3, k3 := gen(6)
	for k := range a1 {
		if !reflect.DeepEqual(a1[k].in, a2[k].in) || !reflect.DeepEqual(a1[k].want, a2[k].want) {
			t.Errorf("%s: seed 5 gave two different inputs", a1[k].prog.name)
		}
		if reflect.DeepEqual(a1[k].in, a3[k].in) {
			t.Errorf("%s: seeds 5 and 6 gave the same inputs", a1[k].prog.name)
		}
	}
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(k1, k2) {
		t.Error("seed 5 gave two different arrival schedules")
	}
	if reflect.DeepEqual(d1, d3) || reflect.DeepEqual(k1, k3) {
		t.Error("seeds 5 and 6 gave the same arrival schedule")
	}
	if len(d1) != 2*serveRate || !sort.SliceIsSorted(d1, func(a, b int) bool { return d1[a] < d1[b] }) {
		t.Errorf("schedule has %d arrivals, want %d in order", len(d1), 2*serveRate)
	}
	smooth := 0
	for _, kind := range k1 {
		if kind == 0 {
			smooth++
		}
	}
	if smooth != int(smoothShare*2*serveRate) {
		t.Errorf("%d Smooth requests of %d, want exactly %v", smooth, len(k1), smoothShare)
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps metrics.go, the workload
// table and BENCHMARK.json saying the same thing, within the contract's
// caps.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("bad name or unit: %q %q", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) < 2 || len(doc.Workloads) > 8 || len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented, 2 to 8 allowed", len(doc.Workloads), len(workloads))
	}
	for k, w := range doc.Workloads {
		check(w.Name, "x")
		if w.Name != workloads[k].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars) does not match %q", k, w.Name, len(w.Why), workloads[k].name)
		}
	}

	if len(doc.EndToEnd) > 16 || len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d emitted, at most 16 allowed", len(doc.EndToEnd), len(endToEnd))
	}
	for k, m := range doc.EndToEnd {
		check(m.Name, m.Unit)
		if m.Name != endToEnd[k].name || m.Unit != endToEnd[k].unit {
			t.Errorf("end-to-end %d: %s %s does not match %s %s", k, m.Name, m.Unit, endToEnd[k].name, endToEnd[k].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if doc.EndToEnd[0].Name != "setup_s" || doc.EndToEnd[0].Unit != "s" || doc.EndToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}

	if len(doc.PerLayer) > 128 || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d emitted, at most 128 allowed", len(doc.PerLayer), len(perLayer))
	}
	for k, m := range doc.PerLayer {
		check(m.Name, m.Unit)
		if m.Name != perLayer[k].name || m.Unit != perLayer[k].unit {
			t.Errorf("per-layer %d: %s %s does not match %s %s", k, m.Name, m.Unit, perLayer[k].name, perLayer[k].unit)
		}
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %v, the program's default is %v", doc.RunSeconds, runSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
}

// tinyWorkload copies a workload at sizes and counts that finish in
// milliseconds; names and code paths are the real ones.
func tinyWorkload(w *workload) *workload {
	size := make(map[string][]int64)
	for _, s := range tinySet {
		size[s.prog] = s.size
	}
	c := *w
	c.rounds, c.warm = 2, 2
	c.set = nil
	for _, s := range w.set {
		c.set = append(c.set, sized{s.prog, size[s.prog]})
	}
	return &c
}

// TestQuickRunEmitsDeclaredSets runs every workload both ways, briefly,
// and checks that what comes out is what BENCHMARK.json declares, with
// every output verified.
func TestQuickRunEmitsDeclaredSets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns psrun")
	}
	// The psrun probe builds ./cmd/psrun: run from the module root, as
	// the benchmark's own command does.
	t.Chdir("..")
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 3, seconds: 0.2, trace: traced, outDir: out, workers: 2, conns: 2}
			res, err := execute(tinyWorkload(w), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present: %v)", w.name, traced, d.name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, d.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(out + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
		}
	}
}
