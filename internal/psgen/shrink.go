package psgen

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Shrink minimizes a failing spec: it greedily applies the reductions
// below, keeping each one only if the reduced program still fails the
// differential check, and repeats to a fixpoint (or until budget check
// runs are spent). Reductions, in order of how much program they
// remove: drop the sibling pair and extra consumers, drop equations'
// optional inputs, drop dependence vectors, shrink dimension extents,
// simplify the body pattern, remove the escape, and finally restore the
// equality guard form.
func Shrink(ctx context.Context, sp Spec, o Options, budget int) Spec {
	if budget <= 0 {
		budget = 120
	}
	fails := func(c Spec) bool {
		if budget <= 0 || ctx.Err() != nil {
			return false
		}
		budget--
		return Check(ctx, c, o).Failed()
	}

	for changed := true; changed; {
		changed = false
		for _, cand := range reductions(sp) {
			if fails(cand) {
				sp = cand
				changed = true
				break
			}
		}
	}
	return sp
}

// reductions proposes one-step-smaller specs.
func reductions(sp Spec) []Spec {
	var cands []Spec
	add := func(f func(*Spec)) {
		c := sp
		c.Dims = append([]Dim{}, sp.Dims...)
		c.Deps = append([][]int64{}, sp.Deps...)
		f(&c)
		cands = append(cands, c)
	}

	if sp.Sibling {
		add(func(c *Spec) { c.Sibling = false })
	}
	if sp.Consumers > 1 {
		add(func(c *Spec) { c.Consumers = 1 })
	}
	if sp.IntInput {
		add(func(c *Spec) { c.IntInput = false })
	}
	if len(sp.Deps) > 1 {
		for i := range sp.Deps {
			i := i
			add(func(c *Spec) { c.Deps = append(c.Deps[:i:i], c.Deps[i+1:]...) })
		}
	}
	for k := range sp.Dims {
		if sp.Dims[k].extent() > sp.minExtent(k) {
			k := k
			add(func(c *Spec) { c.Dims[k].Hi-- })
		}
	}
	if sp.Pattern != 0 {
		add(func(c *Spec) { c.Pattern = 0 })
	}
	if sp.Escape != EscapeNone {
		add(func(c *Spec) { c.Escape = EscapeNone })
	}
	if sp.Guard != 0 {
		add(func(c *Spec) { c.Guard = 0 })
	}
	return cands
}

// minExtent is the smallest extent dimension k can shrink to while the
// rendered guards stay well-formed: one interior point beyond every
// boundary disjunct the dependence set needs.
func (sp *Spec) minExtent(k int) int64 {
	var pos, neg int64
	for _, dep := range sp.allDeps() {
		if int(len(dep)) <= k {
			continue
		}
		if dep[k] > pos {
			pos = dep[k]
		}
		if -dep[k] > neg {
			neg = -dep[k]
		}
	}
	min := pos + neg + 2
	if min < 3 {
		min = 3
	}
	return min
}

// allDeps is the dependence set the renderer will guard for,
// including the hard-shaped classes' implicit vectors.
func (sp *Spec) allDeps() [][]int64 {
	switch sp.Class {
	case ClassMultiWavefront:
		if sp.Pattern == 0 {
			return [][]int64{{1, -1}, {0, 1}}
		}
		return [][]int64{{1, 0}, {0, 1}}
	case ClassPipeline:
		return [][]int64{{1, 0}, {0, 1}}
	case ClassSequential:
		if sp.Pattern%2 == 1 {
			return [][]int64{{1}, {2}}
		}
		return [][]int64{{1}}
	}
	return sp.Deps
}

// ReproName is the base filename a spec's repro artifacts use.
func (sp *Spec) ReproName() string {
	return fmt.Sprintf("seed%d_%s", sp.Seed, sp.Class)
}

// WriteRepro writes the spec's repro artifacts into dir
// (testdata/fuzz/ in campaigns) and returns the program path: the
// rendered .ps (human-readable, and a parser-fuzz seed), the
// .inputs.json sidecar, and the .spec.json the corpus regression test
// loads to replay the program through the full differential matrix.
func (sp *Spec) WriteRepro(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(dir, sp.ReproName())
	if err := os.WriteFile(base+".ps", []byte(sp.Render()), 0o644); err != nil {
		return "", err
	}
	inputs, err := sp.InputsJSON()
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(base+".inputs.json", inputs, 0o644); err != nil {
		return "", err
	}
	blob, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(base+".spec.json", append(blob, '\n'), 0o644); err != nil {
		return "", err
	}
	return base + ".ps", nil
}

// LoadSpec reads a .spec.json repro sidecar back into a Spec.
func LoadSpec(path string) (Spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	var sp Spec
	if err := json.Unmarshal(blob, &sp); err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}
