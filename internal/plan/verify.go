package plan

import (
	"fmt"

	"repro/internal/depgraph"
	"repro/internal/sem"
	"repro/internal/types"
)

// VerifyTiles checks the tiling of every wavefront step of p against
// dependence vectors it re-derives from g, the module's dependency
// graph, without trusting the lowering's own analysis: Skew is unit
// lower-triangular (so the innermost column of S⁻¹ is e_n and a row runs
// the original innermost index at unit stride); S·d ≥ 0 for every
// dependence d between the step's equations (a tile's inputs lie in
// tiles with no larger coordinate); zero-distance reads name an earlier
// body equation; and RowSplit is set only when no dependence inside one
// row runs from a later body equation to an earlier one. It returns the
// first violation, or nil.
func VerifyTiles(p *Program, g *depgraph.Graph) error {
	for i := range p.Steps {
		if p.Steps[i].Op != OpWavefront {
			continue
		}
		if err := p.verifyTiles(i, g); err != nil {
			return fmt.Errorf("plan %s step %d: %w", p.Module, i, err)
		}
	}
	return nil
}

func (p *Program) verifyTiles(i int, g *depgraph.Graph) error {
	st := &p.Steps[i]
	s := st.Hyper.Skew
	pos := make(map[*types.Subrange]int, len(st.Dims))
	for k, slot := range st.Dims {
		pos[p.Bounds[slot].Subrange] = k
	}
	if len(s) != len(st.Dims) {
		return fmt.Errorf("skew has %d rows for %d dimensions", len(s), len(st.Dims))
	}
	for r, row := range s {
		for j, c := range row {
			if (j == r && c != 1) || (j > r && c != 0) || len(row) != len(s) {
				return fmt.Errorf("skew row %d is not unit lower-triangular", r)
			}
		}
	}
	eqs := p.BodyEqs(i)
	writer := make(map[*sem.Symbol]int, len(eqs))
	for wi, eq := range eqs {
		writer[eq.Targets[0].Sym] = wi
	}
	for ri, eq := range eqs {
		for _, e := range g.EquationNodeOf(eq).In {
			wi, ok := writer[e.From.Sym]
			if !ok || e.Kind != depgraph.DataDep {
				continue
			}
			if len(e.Labels) != len(eqs[wi].Dims) {
				return fmt.Errorf("%s reads %s at rank %d", eq.Label, e.From.Name, len(e.Labels))
			}
			// The writer's target is the identity map over its dimensions,
			// so a subscript Var − c at array position k is distance c
			// along the writer's k-th dimension.
			d, zero := make([]int64, len(st.Dims)), true
			for _, l := range e.Labels {
				k, ok := pos[l.Var]
				// Identity, OffsetBack and OffsetFwd are the constant offsets.
				if l.Kind > depgraph.SubOffsetFwd || !ok || eqs[wi].Dims[l.Pos] != l.Var {
					return fmt.Errorf("%s reads %s at %s, not a constant offset", eq.Label, e.From.Name, l)
				}
				d[k], zero = l.Offset, zero && l.Offset == 0
			}
			switch {
			case zero && wi >= ri:
				return fmt.Errorf("%s reads %s at distance 0 before %s runs", eq.Label, e.From.Name, eqs[wi].Label)
			case zero:
				continue
			}
			for r := range s {
				if dot(s[r], d) < 0 {
					return fmt.Errorf("skew maps dependence %s of %s on %s to a negative coordinate %d",
						vecString(d), eq.Label, e.From.Name, r)
				}
			}
			if st.Hyper.RowSplit && wi > ri && inRow(s, d) {
				return fmt.Errorf("rows are split but dependence %s runs from %s back to %s inside a row",
					vecString(d), eqs[wi].Label, eq.Label)
			}
		}
	}
	return nil
}
