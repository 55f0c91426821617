package psgen

import (
	"fmt"
	"sort"
	"strings"
)

// AllBackends lists every scheduler-cascade backend (plus the runtime
// doacross tile executor and the cascade's fusion step) a campaign is
// expected to reach — the acceptance counters of a generation report.
var AllBackends = []string{
	"doall", "wavefront", "multi-wavefront", "doacross", "sequential-reject", "fused",
}

// Report aggregates the outcomes of a campaign: how many programs
// were generated, which backends their lowerings reached, how many ran
// direct kernels, fell back to generic kernels, ran a multi-equation
// span, a copy arm or a fused node, and every failure.
type Report struct {
	Programs      int
	Backends      map[string]int
	Escapes       map[string]int
	Specialized   int
	SpecFallbacks int
	Jammed        int
	Copied        int
	Fused         int
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
	if out.Specialized {
		r.Specialized++
	}
	if out.SpecFallback {
		r.SpecFallbacks++
	}
	if out.Jammed {
		r.Jammed++
	}
	if out.Copied {
		r.Copied++
	}
	if out.Fused {
		r.Fused++
	}
	if out.Failed() {
		r.Failed = append(r.Failed, out)
	}
}

// CoverageGaps names the acceptance counters still at zero: cascade
// backends no program lowered to, and the kernel paths no program ran —
// the direct kernels, the generic checked kernel, a multi-equation span,
// a copy arm, a fused node.
func (r *Report) CoverageGaps() []string {
	var gaps []string
	for _, b := range AllBackends {
		if r.Backends[b] == 0 {
			gaps = append(gaps, "backend "+b)
		}
	}
	if r.Specialized == 0 {
		gaps = append(gaps, "specialized kernel")
	}
	if r.SpecFallbacks == 0 {
		gaps = append(gaps, "specializer fallback")
	}
	if r.Jammed == 0 {
		gaps = append(gaps, "multi-equation span")
	}
	if r.Copied == 0 {
		gaps = append(gaps, "copy arm")
	}
	if r.Fused == 0 {
		gaps = append(gaps, "fused node")
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
	fmt.Fprintf(&b, "specialized kernels: %d\n", r.Specialized)
	fmt.Fprintf(&b, "specializer fallbacks: %d\n", r.SpecFallbacks)
	fmt.Fprintf(&b, "multi-equation spans: %d\n", r.Jammed)
	fmt.Fprintf(&b, "copy arms: %d\n", r.Copied)
	fmt.Fprintf(&b, "fused nodes: %d\n", r.Fused)
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
