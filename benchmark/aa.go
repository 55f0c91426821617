package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// exactCounters must repeat exactly between any two runs of one tree:
// they count work, not time.
var exactCounters = []string{"interp.eq_instances_per_op", "sched.planes_per_op", "plan.steps", "cgen.c_bytes", "lexer.tokens"}

// aaTraceSeconds is the length of the traced runs of an A/A comparison;
// they are only read for the exact counters.
const aaTraceSeconds = 3

// quartiles is Python's statistics.quantiles(values, n=4), the default
// "exclusive" method, which is what the driver computes spreads with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	asc := sorted(values)
	n := len(asc)
	if n < 2 {
		return asc[0], asc[0], asc[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// bounds reads each end-to-end metric's bound and direction from
// BENCHMARK.json in the current directory.
func bounds() (map[string]float64, map[string]bool, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, nil, err
	}
	bound, lower := make(map[string]float64), make(map[string]bool)
	for _, m := range doc.EndToEnd {
		bound[m.Name] = m.Bound
		lower[m.Name] = m.Better == "lower"
	}
	return bound, lower, nil
}

// runAA measures the same tree as two sets, A and B, of n runs per
// workload, each pair on another seed and in alternating order, and
// applies the driver's acceptance rule to them: within each set the
// quartile distance of every end-to-end metric, as a share of its
// median, stays within the metric's bound (setup_s excepted), and B's
// median is not worse than A's by more than the bound. The exact
// counters of short traced runs must be identical throughout.
func runAA(cfg config, n int) error {
	bound, lower, err := bounds()
	if err != nil {
		return err
	}
	newProvenance(cfg).print()
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	sets[0], sets[1] = make(map[key][]float64), make(map[key][]float64)
	counters := make(map[key]map[float64]bool)
	failedOps := 0
	for pair := 0; pair < n; pair++ {
		c := cfg
		c.seed = cfg.seed + int64(pair)
		for turn := 0; turn < 2; turn++ {
			set := (pair + turn) % 2
			for _, w := range workloads {
				res, err := child(c, w.name, 0, false)
				if err != nil {
					return err
				}
				failedOps += res.Failed
				for name, m := range res.Metrics {
					sets[set][key{w.name, name}] = append(sets[set][key{w.name, name}], m.Value)
				}
				tc := c
				tc.seconds = aaTraceSeconds
				if res, err = child(tc, w.name, 1, false); err != nil {
					return err
				}
				failedOps += res.Failed
				for _, name := range exactCounters {
					k := key{w.name, name}
					if counters[k] == nil {
						counters[k] = make(map[float64]bool)
					}
					counters[k][res.Metrics[name].Value] = true
				}
			}
			fmt.Printf("# pair %d/%d, set %c done\n", pair+1, n, 'A'+set)
		}
	}

	pass := failedOps == 0
	fmt.Printf("%-16s %-16s %12s %8s %12s %8s %9s %6s  %s\n", "workload", "metric", "median_A", "iqr_A", "median_B", "iqr_B", "B_vs_A", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.name}
			a1, a2, a3 := quartiles(sets[0][k])
			b1, b2, b3 := quartiles(sets[1][k])
			spreadA, spreadB := ratio(a3-a1, a2), ratio(b3-b1, b2)
			worse := ratio(b2-a2, a2)
			if !lower[d.name] {
				worse = -worse
			}
			verdict := "pass"
			if worse > bound[d.name] || (d.name != "setup_s" && max(spreadA, spreadB) > bound[d.name]) {
				verdict, pass = "FAIL", false
			}
			fmt.Printf("%-16s %-16s %12.5g %7.2f%% %12.5g %7.2f%% %+8.2f%% %5.0f%%  %s\n",
				w.name, d.name, a2, 100*spreadA, b2, 100*spreadB, 100*worse, 100*bound[d.name], verdict)
		}
	}
	for _, w := range workloads {
		for _, name := range exactCounters {
			values := counters[key{w.name, name}]
			verdict := "identical"
			if len(values) != 1 {
				verdict, pass = "DIFFERS", false
			}
			for v := range values {
				fmt.Printf("%-16s %-28s %14.6g  %s\n", w.name, name, v, verdict)
			}
		}
	}
	if !pass {
		return fmt.Errorf("A/A comparison failed (%d failed ops)", failedOps)
	}
	return nil
}
