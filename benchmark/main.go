// Command benchmark is the repository's one benchmark: five workloads,
// five end-to-end metrics, per-layer attribution measured from outside
// the program. BENCHMARK.json at the repository root declares what it
// prints; README.md in this directory explains every name.
//
//	benchmark --workload corpus_par --seed 1 --seconds 20 --trace 0
//
// runs one workload and prints its metrics as "name unit value" lines
// followed by one JSON object, the end-to-end metrics with --trace 0
// and the per-layer metrics with --trace 1. Without --workload it runs
// every workload both ways, each in a child process of its own so heap,
// arena and peak RSS belong to one workload, and writes
// <out>/latest.json; -aa N runs that N times twice and compares the two
// sets.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// runSeconds is the measured time of one run; BENCHMARK.json's
// run_seconds says the same.
const runSeconds = 20

func main() {
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs and the arrival schedule")
	seconds := flag.Float64("seconds", runSeconds, "measured time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	quick := flag.Bool("quick", false, "measure 1 s per run (a smoke test, not a measurement)")
	aa := flag.Int("aa", 0, "run every workload N times twice, alternating, and compare the two sets")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "directory for latest.json, trace files and the psrun build")
	flag.Parse()
	if *quick {
		*seconds = 1
	}
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload name|all] [--seed n] [--seconds s] [--trace 0|1] [-quick] [-aa N] [-out dir]")
		os.Exit(2)
	}
	width := min(runtime.NumCPU(), 4)
	cfg := config{workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, workers: width, conns: width}

	var err error
	switch {
	case *aa > 0:
		err = runAA(cfg, *aa)
	case cfg.workload == "all":
		err = runAll(cfg)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// provenance is the host shape and build identity printed with every
// output.
type provenance struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Conns      int     `json:"conns"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	LoadAvg1   float64 `json:"load_avg_1min"`
	Note       string  `json:"note,omitempty"`
}

func newProvenance(cfg config) provenance {
	p := provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: cfg.workers, Conns: cfg.conns,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: "unknown", Seed: cfg.seed, Seconds: cfg.seconds, LoadAvg1: -1,
	}
	// `go build` stamps the commit inside a git checkout; `go run` and
	// an exported tree do not.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			p.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	if p.NumCPU == 1 {
		p.Note = "1-CPU host: corpus_par and every default-option number measure the parallel machinery's overhead, not parallelism"
	}
	return p
}

func (p provenance) print() {
	data, _ := json.Marshal(p) // a struct of numbers and strings always encodes
	fmt.Printf("# provenance %s\n", data)
	if p.LoadAvg1 > 0.5*float64(p.NumCPU) {
		fmt.Printf("# warning: 1-min load average %.2f is above half of %d CPUs; timings will be noisy\n", p.LoadAvg1, p.NumCPU)
	}
	if p.Note != "" {
		fmt.Printf("# note: %s\n", p.Note)
	}
}

// runOne is the form the driver calls: one workload, and the result
// object as the last line of standard output.
func runOne(cfg config) error {
	w := findWorkload(cfg.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	newProvenance(cfg).print()
	res, err := execute(w, cfg)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%s %s %v\n", name, m.Unit, m.Value)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// child runs one workload in a process of its own and parses its last
// output line; the metric lines are passed through under the workload's
// name.
func child(cfg config, workload string, trace int, echo bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s --trace %d: %w", workload, trace, runErr)
		}
		return nil, fmt.Errorf("%s --trace %d: last line is not a result: %w", workload, trace, err)
	}
	if echo {
		for _, line := range lines[:len(lines)-1] {
			if strings.HasPrefix(line, "# provenance") {
				continue
			}
			fmt.Printf("%-16s %s\n", workload, line)
		}
	}
	return &res, nil
}

// workloadResults is one workload's two runs.
type workloadResults struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

// runAll runs every workload, untraced and traced, and writes
// latest.json. Any failed op makes it return an error.
func runAll(cfg config) error {
	prov := newProvenance(cfg)
	prov.print()
	doc := struct {
		Provenance provenance                  `json:"provenance"`
		Workloads  map[string]*workloadResults `json:"workloads"`
	}{prov, make(map[string]*workloadResults)}
	failed := 0
	for _, w := range workloads {
		wr := &workloadResults{}
		var err error
		if wr.EndToEnd, err = child(cfg, w.name, 0, true); err != nil {
			return err
		}
		if wr.PerLayer, err = child(cfg, w.name, 1, true); err != nil {
			return err
		}
		failed += wr.EndToEnd.Failed + wr.PerLayer.Failed
		doc.Workloads[w.name] = wr
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "latest.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s and one trace-<workload>.json per workload\n", path)
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}
