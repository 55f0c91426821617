package core

import (
	"repro/internal/depgraph"
	"repro/internal/types"
)

// Fuse merges flowchart loops over the same subrange — the scheduler
// improvement the paper lists as future work (§5, after Lu's MODEL
// generator [11], which "does combine non-recursively related equations
// which depend on the same subscript(s)").
//
// A later loop over subrange r merges into an earlier one when
//
//  1. both iterate the same subrange with the same DO/DOALL kind,
//  2. the later loop reads the earlier loop's outputs only where the
//     fused loop has written them: DO loops at the current or earlier
//     iterations of r ("I" or "I - constant" subscripts), DOALL loops
//     only the element the same iteration wrote (a fused DOALL runs in
//     chunks, so an "I - constant" read at a chunk's first point would
//     race with the chunk before it), and
//  3. the later loop consumes nothing produced by the descriptors it is
//     hoisted across (the flowchart is in dependence order, so the
//     intervening descriptors cannot consume the hoisted loop's outputs).
//
// Fusion applies recursively, so matching inner nests collapse as well.
func Fuse(fc Flowchart) Flowchart {
	return FuseIf(fc, func(*LoopDesc) bool { return true })
}

// FuseIf makes the merges Fuse would make at the top level of fc, each
// one only when keep accepts the loop it produces. A loop is offered
// with its body fused by Fuse — alone when that merges anything inside
// it, then together with each later sibling it may legally absorb — and
// a loop whose offers are all refused stays exactly as scheduled, inner
// levels included: callers decide those when they reach them.
func FuseIf(fc Flowchart, keep func(*LoopDesc) bool) Flowchart {
	if len(fc.Loops()) < 2 {
		return fc // nothing to merge
	}
	consumed := make([]bool, len(fc))
	var out Flowchart
	for i, d := range fc {
		if consumed[i] {
			continue
		}
		cur, isLoop := d.(*LoopDesc)
		if !isLoop {
			out = append(out, d)
			continue
		}
		if whole := cur.withBody(Fuse(cur.Body)); len(whole.Body.Loops()) < len(cur.Body.Loops()) && keep(whole) {
			cur = whole
		}
		// Producers visible to later candidates: the values defined by
		// descriptors the candidate would be hoisted across.
		intervening := make(map[*depgraph.Node]bool)
		for j := i + 1; j < len(fc); j++ {
			if consumed[j] {
				continue
			}
			cand, ok := fc[j].(*LoopDesc)
			if ok && cand.Subrange == cur.Subrange && cand.Parallel == cur.Parallel &&
				fusionLegal(cur, cand) && !readsFrom(cand.Body, intervening) {
				merged := cur.withBody(Fuse(append(append(Flowchart{}, cur.Body...), cand.Body...)))
				merged.Deleted = append(append([]*depgraph.Edge{}, cur.Deleted...), cand.Deleted...)
				if keep(merged) {
					cur = merged
					consumed[j] = true
					continue
				}
			}
			addProducers(fc[j], intervening)
		}
		out = append(out, cur)
	}
	return out
}

// withBody copies l with a new body.
func (l *LoopDesc) withBody(body Flowchart) *LoopDesc {
	return &LoopDesc{Subrange: l.Subrange, Parallel: l.Parallel, Body: body, Deleted: l.Deleted}
}

// addProducers records the equations of d and the data they define.
func addProducers(d Descriptor, set map[*depgraph.Node]bool) {
	var eqs []*depgraph.Node
	switch x := d.(type) {
	case *NodeDesc:
		if x.Node.Kind == depgraph.EquationNode {
			eqs = append(eqs, x.Node)
		}
	case *LoopDesc:
		eqs = x.Body.Equations()
	}
	for _, n := range eqs {
		set[n] = true
		for _, e := range n.Out {
			if e.IsLHS {
				set[e.To] = true
			}
		}
	}
}

// readsFrom reports whether any equation in fc consumes a value produced
// by the given set.
func readsFrom(fc Flowchart, producers map[*depgraph.Node]bool) bool {
	if len(producers) == 0 {
		return false
	}
	for _, n := range fc.Equations() {
		for _, e := range n.In {
			if e.Kind == depgraph.DataDep && producers[e.From] {
				return true
			}
		}
	}
	return false
}

// fusionLegal checks every dependence from the first loop's equations
// into the second loop's equations at the fused dimension.
func fusionLegal(la, lb *LoopDesc) bool {
	r := la.Subrange
	// la's equations, and the subscripts of every write they make to
	// each array they define.
	producers := make(map[*depgraph.Node]bool)
	writes := make(map[*depgraph.Node][][]depgraph.SubLabel)
	for _, n := range la.Body.Equations() {
		producers[n] = true
		for _, e := range n.Out {
			if e.IsLHS {
				producers[e.To] = true
				if la.Parallel {
					writes[e.To] = append(writes[e.To], e.Labels)
				}
			}
		}
	}
	for _, n := range lb.Body.Equations() {
		for _, e := range n.In {
			if e.Kind != depgraph.DataDep || !producers[e.From] {
				continue
			}
			if la.Parallel {
				if len(writes[e.From]) == 0 {
					return false
				}
				for _, w := range writes[e.From] {
					if !sameIteration(e.Labels, w, r) {
						return false
					}
				}
				continue
			}
			// The reference must access iteration r or earlier. A
			// reference that does not mention r at all (a scalar produced
			// inside la, or an opaque whole-array read) is conservative:
			// its value may not be final until la completes.
			okRef := false
			for _, l := range e.Labels {
				if l.Var == r && (l.Kind == depgraph.SubIdentity || l.Kind == depgraph.SubOffsetBack) {
					okRef = true
				}
				if l.Var == r && (l.Kind == depgraph.SubOffsetFwd || l.Kind == depgraph.SubOther) {
					return false
				}
			}
			if !okRef {
				return false
			}
		}
	}
	return true
}

// sameIteration reports whether a read with subscript labels rd touches,
// at each iteration of r, only elements a write with labels wr defines
// at that same iteration: both subscript r by identity, at the same
// positions, and at least one.
func sameIteration(rd, wr []depgraph.SubLabel, r *types.Subrange) bool {
	at := false
	for p := range rd {
		if p >= len(wr) || (rd[p].Var == r) != (wr[p].Var == r) {
			return false
		}
		if rd[p].Var == r {
			if rd[p].Kind != depgraph.SubIdentity || wr[p].Kind != depgraph.SubIdentity {
				return false
			}
			at = true
		}
	}
	return at
}
