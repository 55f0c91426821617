package psgen

import (
	"fmt"
	"sort"
	"strings"
)

// AllBackends lists every scheduler-cascade backend (plus the runtime
// doacross tile executor) a campaign is expected to reach — the acceptance
// counters of a generation report.
var AllBackends = []string{
	"doall", "wavefront", "multi-wavefront", "doacross", "sequential-reject",
}

// Report aggregates the outcomes of a campaign: how many programs
// were generated, which backends their lowerings reached, how many
// fell back to generic kernels, and every failure.
type Report struct {
	Programs      int
	Backends      map[string]int
	Escapes       map[string]int
	SpecFallbacks int
	Failed        []*Outcome
}

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{Backends: map[string]int{}, Escapes: map[string]int{}}
}

// Add folds one outcome in.
func (r *Report) Add(out *Outcome) {
	r.Programs++
	for b := range out.Backends {
		r.Backends[b]++
	}
	r.Escapes[out.Spec.Escape.String()]++
	if out.SpecFallback {
		r.SpecFallbacks++
	}
	if out.Failed() {
		r.Failed = append(r.Failed, out)
	}
}

// CoverageGaps names the acceptance counters still at zero: cascade
// backends no program lowered to, and the specializer fallback if no
// program exercised a generic kernel.
func (r *Report) CoverageGaps() []string {
	var gaps []string
	for _, b := range AllBackends {
		if r.Backends[b] == 0 {
			gaps = append(gaps, "backend "+b)
		}
	}
	if r.SpecFallbacks == 0 {
		gaps = append(gaps, "specializer fallback")
	}
	return gaps
}

// String renders the generation report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "psfuzz: %d programs, %d divergent\n", r.Programs, len(r.Failed))
	b.WriteString("backends reached:\n")
	for _, name := range AllBackends {
		fmt.Fprintf(&b, "  %-17s %d\n", name, r.Backends[name])
	}
	fmt.Fprintf(&b, "specializer fallbacks: %d\n", r.SpecFallbacks)
	keys := make([]string, 0, len(r.Escapes))
	for k := range r.Escapes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("escapes: ")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%d", k, r.Escapes[k])
	}
	b.WriteByte('\n')
	return b.String()
}
