package plan

import (
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/types"
)

// The PS-DSWP pipeline backend (cascade stage 3). A nest whose SCC
// carries references no constant-offset dependence vector describes
// (reflect.ps's X[I-1, N+1-J]) can never wavefront — but the region's
// dependence SCC DAG still decouples: the recurrence nest is one
// sequential stage, and the downstream DOALL nests consuming its
// outputs at the same or earlier iterations of the outer dimension are
// parallel stages that may start row t as soon as the producer finishes
// row t. The recognizer below partitions a flowchart region into those
// stages; the runtime (internal/pipe) connects them with bounded
// channels and replicates the parallel stages.

// pipeConsumer is one recognized downstream DOALL stage.
type pipeConsumer struct {
	loop *core.LoopDesc
	// dims is the collapsed parallel dimension chain, including the
	// streamed dimension (stripped at emission: the token pins it).
	dims []*types.Subrange
	// body is the innermost body below the collapse chain.
	body core.Flowchart
	deps []PipeDep
}

// pipePlan is a recognized pipeline partition for one region.
type pipePlan struct {
	consumers []pipeConsumer
	window    int
}

// tryPipeline recognizes a pipeline rooted at the sequential loop
// fc[i]: the producer nest must be fully sequential (a nest already
// containing DOALL dimensions keeps its parallelism instead of being
// serialized into one stage), and the following sibling descriptors
// qualify as consumer stages while they are DOALL nests whose collapse
// chain includes the streamed dimension and whose reads of earlier
// stages' outputs reach only the same or earlier stream iterations. On
// ineligibility it returns nil and the reason the cascade records.
func (lw *lowerer) tryPipeline(fc core.Flowchart, i int) (*pipePlan, string) {
	l := fc[i].(*core.LoopDesc)
	if hasParallelLoop(core.Flowchart{l}) {
		return nil, "producer nest already contains DOALL parallelism"
	}
	stream := l.Subrange
	stageProducers := []map[*depgraph.Node]bool{producerSet(l.Body)}
	pp := &pipePlan{window: 1}
	for j := i + 1; j < len(fc); j++ {
		cand, ok := fc[j].(*core.LoopDesc)
		if !ok || !cand.Parallel {
			break
		}
		dims, body := collapseChain(cand)
		if !containsDim(dims, stream) {
			break
		}
		deps, ok := stageDeps(cand, stream, stageProducers)
		if !ok || len(deps) == 0 {
			// A read reaching forward (or opaquely) along the stream, or
			// a nest independent of the pipeline: the stage chain ends.
			break
		}
		for _, d := range deps {
			if w := int(d.Dist) + 1; w > pp.window {
				pp.window = w
			}
		}
		pp.consumers = append(pp.consumers, pipeConsumer{loop: cand, dims: dims, body: body, deps: deps})
		stageProducers = append(stageProducers, producerSet(cand.Body))
	}
	if len(pp.consumers) == 0 {
		return nil, "no downstream DOALL consumer streams dimension " + stream.Name
	}
	return pp, ""
}

// stageDeps resolves the dependences of cand on the earlier stages'
// producer sets. Every read of a pipeline-produced value must carry an
// identity or backward-offset subscript on the streamed dimension; a
// forward or non-affine stream subscript (or a read that does not
// mention the stream at all, e.g. a whole-array or upper-bound
// reference needing the producer to finish) disqualifies the stage.
func stageDeps(cand *core.LoopDesc, stream *types.Subrange, stages []map[*depgraph.Node]bool) ([]PipeDep, bool) {
	dist := make([]int64, len(stages))
	has := make([]bool, len(stages))
	for _, n := range cand.Body.Equations() {
		for _, e := range n.In {
			if e.Kind != depgraph.DataDep {
				continue
			}
			s := -1
			for k := range stages {
				if stages[k][e.From] {
					s = k
					break
				}
			}
			if s < 0 {
				continue
			}
			okRef := false
			d := int64(0)
			for _, lb := range e.Labels {
				if lb.Var != stream {
					continue
				}
				switch lb.Kind {
				case depgraph.SubIdentity, depgraph.SubOffsetBack:
					okRef = true
					if lb.Offset > d {
						d = lb.Offset
					}
				default:
					return nil, false
				}
			}
			if !okRef {
				return nil, false
			}
			if !has[s] || d > dist[s] {
				dist[s] = d
			}
			has[s] = true
		}
	}
	var deps []PipeDep
	for s := range stages {
		if has[s] {
			deps = append(deps, PipeDep{Stage: s, Dist: dist[s]})
		}
	}
	return deps, true
}

// emitPipeline lowers the recognized partition: an OpPipeline step
// whose body concatenates the stage bodies. Stage 0 is the producer
// nest's body lowered as-is (the token pins the stream slot, so per
// token it executes exactly the original iteration's work, in order);
// each consumer stage is its DOALL nest with the streamed dimension
// stripped from the collapse. Virtual windows on arrays written inside
// the pipeline are dropped: a parallel stage may lag the producer, so a
// window sized for strictly ascending execution could be overwritten
// while still live.
func (lw *lowerer) emitPipeline(l *core.LoopDesc, pp *pipePlan) {
	stream := l.Subrange
	self := len(lw.p.Steps)
	pi := &Pipe{Stream: lw.slotOf(stream), Window: pp.window}
	lw.p.Steps = append(lw.p.Steps, Step{Op: OpPipeline, Dims: []int{pi.Stream}, Pipe: pi})

	first := len(lw.p.Steps)
	lw.lower(l.Body)
	pi.Stages = append(pi.Stages, PipeStage{First: first, End: len(lw.p.Steps)})

	for _, c := range pp.consumers {
		first := len(lw.p.Steps)
		var dims []int
		for _, d := range c.dims {
			if d != stream {
				dims = append(dims, lw.slotOf(d))
			}
		}
		if len(dims) > 0 {
			dself := len(lw.p.Steps)
			lw.p.Steps = append(lw.p.Steps, Step{Op: OpDoAll, Dims: dims})
			lw.lower(c.body)
			lw.p.Steps[dself].End = len(lw.p.Steps)
			lw.markLeaf(dself)
		} else {
			lw.lower(c.body)
		}
		pi.Stages = append(pi.Stages, PipeStage{
			First:    first,
			End:      len(lw.p.Steps),
			Parallel: true,
			Deps:     c.deps,
		})
	}
	lw.p.Steps[self].End = len(lw.p.Steps)

	// Arrays written by any pipeline stage lose their §3.4 windows.
	written := make(map[string]bool)
	collect := func(fc core.Flowchart) {
		for _, n := range fc.Equations() {
			if n.Eq == nil {
				continue
			}
			for _, t := range n.Eq.Targets {
				written[t.Sym.Name] = true
			}
		}
	}
	collect(l.Body)
	for _, c := range pp.consumers {
		collect(c.loop.Body)
	}
	kept := lw.p.Virtual[:0:0]
	for _, v := range lw.p.Virtual {
		if !written[v.Sym.Name] {
			kept = append(kept, v)
		}
	}
	lw.p.Virtual = kept
}

// producerSet collects the equation nodes of fc and the data nodes they
// define — the values later stages might consume.
func producerSet(fc core.Flowchart) map[*depgraph.Node]bool {
	set := make(map[*depgraph.Node]bool)
	for _, n := range fc.Equations() {
		set[n] = true
		for _, e := range n.Out {
			if e.IsLHS {
				set[e.To] = true
			}
		}
	}
	return set
}

// collapseChain mirrors lowerLoop's DOALL collapse walk: the singleton
// chain of nested parallel loops under l, up to MaxCollapse dimensions.
func collapseChain(l *core.LoopDesc) ([]*types.Subrange, core.Flowchart) {
	dims := []*types.Subrange{l.Subrange}
	body := l.Body
	for len(body) == 1 && len(dims) < MaxCollapse {
		inner, ok := body[0].(*core.LoopDesc)
		if !ok || !inner.Parallel {
			break
		}
		dims = append(dims, inner.Subrange)
		body = inner.Body
	}
	return dims, body
}

// hasParallelLoop reports whether fc contains any DOALL descriptor.
func hasParallelLoop(fc core.Flowchart) bool {
	for _, l := range fc.Loops() {
		if l.Parallel {
			return true
		}
	}
	return false
}

// containsDim reports whether dims includes d.
func containsDim(dims []*types.Subrange, d *types.Subrange) bool {
	for _, x := range dims {
		if x == d {
			return true
		}
	}
	return false
}
