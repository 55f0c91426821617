package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call; nothing is recorded inside the program.
type span struct {
	name       string
	start, end time.Duration // since the tracer started
	parent     int32         // index of the causing span, -1 for a root
	op         int32         // shared by every span of one op
	lane       int32         // caller lane (connection), the Chrome tid
}

// maxSpans bounds the in-memory trace; later spans are counted as
// dropped and the per-layer medians use the ops recorded before.
const maxSpans = 400_000

// tracer keeps spans in memory until the workload ends. A nil tracer is
// the untraced path: root and child return -1 and end ignores it, so
// workload code brackets layer calls unconditionally.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open appends a span; one with a parent inherits its op and lane.
func (t *tracer) open(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	if s.parent >= 0 {
		s.op, s.lane = t.spans[s.parent].op, t.spans[s.parent].lane
	}
	s.start = time.Since(t.t0)
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// root opens the span of one whole op.
func (t *tracer) root(name string, op, lane int) int32 {
	if t == nil {
		return -1
	}
	return t.open(span{name: name, parent: -1, op: int32(op), lane: int32(lane)})
}

// child opens a span caused by parent.
func (t *tracer) child(name string, parent int32) int32 {
	if t == nil || parent < 0 {
		return -1
	}
	return t.open(span{name: name, parent: parent})
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// perOp sums, for every op, the durations of its spans called name, in
// microseconds.
func (t *tracer) perOp(name string) []float64 {
	byOp := make(map[int32]time.Duration)
	for _, s := range t.spans {
		if s.name == name {
			byOp[s.op] += s.end - s.start
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, d := range byOp {
		out = append(out, float64(d.Nanoseconds())/1e3)
	}
	return out
}

// layerTime is a span name's total and self time: a span's self time is
// its duration minus the part its children cover.
type layerTime struct {
	count       int
	total, self time.Duration
}

func (t *tracer) selfTimes() map[string]layerTime {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]layerTime)
	for k, s := range t.spans {
		lt := out[s.name]
		lt.count++
		lt.total += s.end - s.start
		lt.self += s.end - s.start - covered[k]
		out[s.name] = lt
	}
	return out
}

// coverage is the median share of a root span that its direct children
// account for: what the per-layer spans explain of one op.
func (t *tracer) coverage() float64 {
	child := make(map[int32]time.Duration)
	for _, s := range t.spans {
		if s.parent >= 0 && t.spans[s.parent].parent < 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var shares []float64
	for id, d := range child {
		if root := t.spans[id]; root.end > root.start {
			shares = append(shares, float64(d)/float64(root.end-root.start))
		}
	}
	return median(shares)
}

// writeChrome writes the spans as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing: one row per lane,
// children nested under their op.
func (t *tracer) writeChrome(path, process string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"displayTimeUnit":"ms","otherData":{"process":%q,"dropped_spans":%d},"traceEvents":[`, process, t.dropped)
	for k, s := range t.spans {
		if k > 0 {
			w.WriteByte(',')
		}
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(w, "\n"+`{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d}}`,
			name, s.lane, float64(s.start.Nanoseconds())/1e3, float64((s.end-s.start).Nanoseconds())/1e3, k, s.parent, s.op)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
