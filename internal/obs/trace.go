package obs

import (
	"bufio"
	"fmt"
	"io"
)

// kindMeta is the Chrome-export spelling of each kind: the event name,
// its category (Perfetto groups and colors by category), and how the
// two payload args are labeled.
var kindMeta = [numKinds]struct {
	name, cat  string
	arg0, arg1 string
}{
	KActivation:   {name: "activation", cat: "run"},
	KDoAll:        {name: "doall", cat: "doall", arg0: "points"},
	KDo:           {name: "do", cat: "do", arg0: "step"},
	KChunk:        {name: "chunk", cat: "doall", arg0: "points"},
	KPlane:        {name: "plane", cat: "wavefront", arg0: "t"},
	KTile:         {name: "tile", cat: "doacross", arg0: "t", arg1: "k"},
	KTileWait:     {name: "tile-wait", cat: "doacross"},
	KStage:        {name: "stage", cat: "pipeline", arg0: "stage", arg1: "token"},
	KStageStall:   {name: "stage-stall", cat: "pipeline", arg0: "stage", arg1: "send"},
	KSpecFallback: {name: "spec-fallback", cat: "kernel", arg0: "eq", arg1: "points"},
	KArenaReuse:   {name: "arena-reuse", cat: "memory", arg0: "slot"},
}

// WriteChrome renders the recorded events as Chrome trace-event JSON
// (the "traceEvents" array format), loadable in Perfetto and
// chrome://tracing. Each ring becomes one thread of pid 1; spans are
// complete ("X") events with microsecond timestamps, instants are "i"
// events. process names the run in the viewer (e.g. "program/module").
// Call it only after the traced run has returned.
func (r *Recorder) WriteChrome(w io.Writer, process string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	fmt.Fprintf(bw, "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":%q}}", process)
	for id, evs := range r.Snapshot() {
		fmt.Fprintf(bw, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"worker %d\"}}", id, id)
		for _, ev := range evs {
			meta := kindMeta[ev.Kind]
			if ev.Kind.Instant() {
				// Thread-scoped instant: a tick mark on the worker row.
				fmt.Fprintf(bw, ",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"name\":%q,\"cat\":%q",
					id, float64(ev.Start)/1e3, meta.name, meta.cat)
			} else {
				fmt.Fprintf(bw, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"name\":%q,\"cat\":%q",
					id, float64(ev.Start)/1e3, float64(ev.Dur)/1e3, meta.name, meta.cat)
			}
			switch {
			case meta.arg0 != "" && meta.arg1 != "":
				a1 := ev.Arg1
				if ev.Kind == KTile {
					// Arg1 packs k<<1 | stolen; unpack for the viewer.
					fmt.Fprintf(bw, ",\"args\":{%q:%d,%q:%d,\"stolen\":%d}}", meta.arg0, ev.Arg0, meta.arg1, a1>>1, a1&1)
					continue
				}
				fmt.Fprintf(bw, ",\"args\":{%q:%d,%q:%d}}", meta.arg0, ev.Arg0, meta.arg1, a1)
			case meta.arg0 != "":
				fmt.Fprintf(bw, ",\"args\":{%q:%d}}", meta.arg0, ev.Arg0)
			default:
				fmt.Fprintf(bw, "}")
			}
		}
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}
