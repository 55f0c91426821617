package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingEmitAndSnapshot(t *testing.T) {
	r := NewRecorder(8)
	g := r.Acquire()
	if g.ID() != 0 {
		t.Fatalf("first ring id = %d, want 0", g.ID())
	}
	g.Emit(KDoAll, 10, 5, 100, 0)
	g.Emit(KChunk, 20, 7, 50, 0)
	r.Release(g)

	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("rings = %d, want 1", len(snap))
	}
	evs := snap[0]
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Kind != KDoAll || evs[0].Start != 10 || evs[0].Dur != 5 || evs[0].Arg0 != 100 {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if evs[1].Kind != KChunk || evs[1].Arg0 != 50 {
		t.Errorf("event 1 = %+v", evs[1])
	}
	if r.Events() != 2 || r.Dropped() != 0 {
		t.Errorf("Events=%d Dropped=%d, want 2, 0", r.Events(), r.Dropped())
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRecorder(4)
	g := r.Acquire()
	for i := 0; i < 10; i++ {
		g.Emit(KTile, int64(i), 1, int64(i), 0)
	}
	r.Release(g)

	if got := r.Events(); got != 10 {
		t.Errorf("Events = %d, want 10", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	evs := r.Snapshot()[0]
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want 4", len(evs))
	}
	// Oldest first: events 6..9 survive.
	for i, ev := range evs {
		if want := int64(6 + i); ev.Start != want {
			t.Errorf("retained[%d].Start = %d, want %d (oldest-first order)", i, ev.Start, want)
		}
	}
}

func TestRecorderCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultRingEvents}, {-1, DefaultRingEvents}, {1, 1}, {3, 4}, {4, 4}, {100, 128},
	} {
		r := NewRecorder(tc.in)
		g := r.Acquire()
		if len(g.ev) != tc.want {
			t.Errorf("NewRecorder(%d) ring cap = %d, want %d", tc.in, len(g.ev), tc.want)
		}
	}
}

func TestAcquireReuseAndPeak(t *testing.T) {
	r := NewRecorder(8)
	a := r.Acquire()
	b := r.Acquire()
	if a.ID() == b.ID() {
		t.Fatalf("concurrent rings share id %d", a.ID())
	}
	r.Release(b)
	c := r.Acquire()
	if c != b {
		t.Errorf("Acquire did not reuse the released ring")
	}
	r.Release(a)
	r.Release(c)
	r.Release(nil) // no-op
	if got := r.Rings(); got != 2 {
		t.Errorf("Rings = %d, want peak 2", got)
	}
}

func TestConcurrentEmit(t *testing.T) {
	// Many goroutines acquire, emit, release in a loop; run under -race
	// this checks the exclusive-ownership protocol end to end.
	r := NewRecorder(64)
	const goroutines = 8
	const rounds = 50
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				g := r.Acquire()
				t0 := g.Now()
				g.Emit(KChunk, t0, g.Now()-t0, int64(i), 0)
				g.Emit(KArenaReuse, g.Now(), 0, int64(j), 0)
				r.Release(g)
			}
		}(i)
	}
	wg.Wait()
	if got := r.Events(); got != goroutines*rounds*2 {
		t.Errorf("Events = %d, want %d", got, goroutines*rounds*2)
	}
	if r.Rings() > goroutines {
		t.Errorf("Rings = %d, want <= %d (peak concurrency)", r.Rings(), goroutines)
	}
	var kept int
	for _, evs := range r.Snapshot() {
		kept += len(evs)
	}
	if int64(kept) != r.Events()-r.Dropped() {
		t.Errorf("retained %d != emitted %d - dropped %d", kept, r.Events(), r.Dropped())
	}
}

func TestKindStringAndInstant(t *testing.T) {
	for k, want := range map[Kind]string{
		KActivation: "activation", KDoAll: "doall", KDo: "do", KChunk: "chunk",
		KPlane: "plane", KTile: "tile", KTileWait: "tile-wait",
		KStage: "stage", KStageStall: "stage-stall",
		KSpecFallback: "spec-fallback", KArenaReuse: "arena-reuse",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if Kind(250).String() != "?" {
		t.Errorf("out-of-range kind should stringify as ?")
	}
	if !KSpecFallback.Instant() || !KArenaReuse.Instant() || KTile.Instant() {
		t.Errorf("Instant classification wrong")
	}
}

func TestBreakdownAggregation(t *testing.T) {
	r := NewRecorder(64)
	g := r.Acquire()
	g.Emit(KDoAll, 0, 100, 10, 0)       // sequential DOALL: DOALL compute
	g.Emit(KChunk, 100, 50, 5, 0)       // parallel chunk: DOALL compute
	g.Emit(KPlane, 180, 40, 1, 0)       // inline plane: wavefront compute
	g.Emit(KPlane, 220, 30, 2, 0)       // the next plane of the same sweep
	g.Emit(KTile, 310, 60, 3, 4<<1|1)   // stolen tile
	g.Emit(KTile, 370, 40, 3, 5<<1)     // home tile
	g.Emit(KTileWait, 410, 25, 0, 0)    // doacross stall
	g.Emit(KStage, 435, 80, 0, 7)       // pipeline body
	g.Emit(KStageStall, 515, 15, 0, 1)  // pipeline stall
	g.Emit(KSpecFallback, 530, 0, 2, 9) // 9 fallback points of eq 2
	g.Emit(KArenaReuse, 530, 0, 1, 0)
	g.Emit(KDo, 530, 120, 4, 0) // sequential DO nest: DO compute
	r.Release(g)

	workers := 2
	b := r.Breakdown(workers, time.Microsecond) // wall = 1000ns
	if b.DoNs != 120 {
		t.Errorf("DoNs = %d, want 120", b.DoNs)
	}
	if b.DOALLNs != 150 {
		t.Errorf("DOALLNs = %d, want 150", b.DOALLNs)
	}
	if b.WavefrontNs != 70 {
		t.Errorf("WavefrontNs = %d, want 70 (inline planes 40 + 30)", b.WavefrontNs)
	}
	if b.DoacrossNs != 100 || b.StolenNs != 60 {
		t.Errorf("DoacrossNs = %d StolenNs = %d, want 100, 60", b.DoacrossNs, b.StolenNs)
	}
	if b.PipelineNs != 80 {
		t.Errorf("PipelineNs = %d, want 80", b.PipelineNs)
	}
	if b.ComputeNs != 120+150+70+100+80 {
		t.Errorf("ComputeNs = %d, want %d", b.ComputeNs, 120+150+70+100+80)
	}
	if b.DoacrossStallNs != 25 || b.PipelineStallNs != 15 || b.StallNs() != 40 {
		t.Errorf("stalls = %d/%d, want 25/15", b.DoacrossStallNs, b.PipelineStallNs)
	}
	// No executor forks and joins per plane, so nothing feeds this field.
	if b.BarrierIdleNs != 0 {
		t.Errorf("BarrierIdleNs = %d, want 0", b.BarrierIdleNs)
	}
	wantIdle := int64(workers)*1000 - b.ComputeNs - b.StallNs()
	if b.IdleNs != wantIdle {
		t.Errorf("IdleNs = %d, want %d", b.IdleNs, wantIdle)
	}
	if b.SpecFallbacks != 9 || b.ArenaReuses != 1 {
		t.Errorf("SpecFallbacks = %d ArenaReuses = %d, want 9, 1", b.SpecFallbacks, b.ArenaReuses)
	}
	if b.Events != 12 || b.Dropped != 0 {
		t.Errorf("Events = %d Dropped = %d, want 12, 0", b.Events, b.Dropped)
	}
	s := b.String()
	for _, want := range []string{"wall=1µs", "workers=2", "compute=520ns", "do=120ns", "stall=40ns", "stolen=60ns", "spec_fallback_points=9"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in %q", want, s)
		}
	}
	if strings.Contains(s, "dropped=") {
		t.Errorf("String() shows dropped with none lost: %q", s)
	}
}

func TestBreakdownIdleClamp(t *testing.T) {
	// Pipeline replicas can oversubscribe workers: compute beyond
	// workers × wall must clamp idle at zero, not go negative.
	r := NewRecorder(8)
	g := r.Acquire()
	g.Emit(KStage, 0, 5000, 0, 0)
	r.Release(g)
	b := r.Breakdown(1, time.Microsecond) // wall 1000ns < compute 5000ns
	if b.IdleNs != 0 {
		t.Errorf("IdleNs = %d, want clamped 0", b.IdleNs)
	}
	if b.Workers != 1 {
		t.Errorf("Workers = %d, want 1", b.Workers)
	}
}

func TestBreakdownWorkerFloorAndDropped(t *testing.T) {
	r := NewRecorder(2)
	g := r.Acquire()
	for i := 0; i < 5; i++ {
		g.Emit(KDoAll, int64(i), 1, 1, 0)
	}
	r.Release(g)
	b := r.Breakdown(0, time.Millisecond)
	if b.Workers != 1 {
		t.Errorf("Workers = %d, want floor 1", b.Workers)
	}
	if b.Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", b.Dropped)
	}
	if !strings.Contains(b.String(), "dropped=3") {
		t.Errorf("String() should report dropped events: %q", b.String())
	}
}

// chromeTrace mirrors the JSON shape WriteChrome emits.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChrome(t *testing.T) {
	r := NewRecorder(16)
	g0 := r.Acquire()
	g0.Emit(KActivation, 0, 2000, 0, 0)
	g0.Emit(KPlane, 100, 500, 3, 0)
	g0.Emit(KSpecFallback, 700, 0, 2, 11)
	r.Release(g0)
	g1 := r.Acquire() // reuses ring 0; acquire a second concurrently
	g2 := r.Acquire()
	g2.Emit(KTile, 1000, 250, 4, 9<<1|1)
	g2.Emit(KStageStall, 1300, 40, 1, 0)
	r.Release(g1)
	r.Release(g2)

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf, "prog/mod"); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", tr.DisplayTimeUnit)
	}

	byName := map[string]int{}
	for _, ev := range tr.TraceEvents {
		byName[ev.Name]++
		switch ev.Name {
		case "process_name":
			if ev.Args["name"] != "prog/mod" {
				t.Errorf("process name = %v, want prog/mod", ev.Args["name"])
			}
		case "activation":
			if ev.Ph != "X" || ev.Ts != 0 || ev.Dur != 2.0 {
				t.Errorf("activation span = %+v (want X, ts 0, dur 2µs)", ev)
			}
		case "plane":
			if ev.Args["t"] != 3.0 || len(ev.Args) != 1 {
				t.Errorf("plane args = %v", ev.Args)
			}
		case "tile":
			if ev.Args["t"] != 4.0 || ev.Args["k"] != 9.0 || ev.Args["stolen"] != 1.0 {
				t.Errorf("tile args = %v (want unpacked k and stolen)", ev.Args)
			}
			if ev.Tid != 1 {
				t.Errorf("tile tid = %d, want ring 1", ev.Tid)
			}
		case "spec-fallback":
			if ev.Ph != "i" || ev.S != "t" {
				t.Errorf("instant = %+v (want ph i, scope t)", ev)
			}
			if ev.Args["eq"] != 2.0 || ev.Args["points"] != 11.0 {
				t.Errorf("spec-fallback args = %v", ev.Args)
			}
		case "stage-stall":
			if ev.Args["stage"] != 1.0 || ev.Args["send"] != 0.0 {
				t.Errorf("stage-stall args = %v", ev.Args)
			}
		}
	}
	if byName["thread_name"] != 2 {
		t.Errorf("thread_name metadata = %d, want one per ring (2)", byName["thread_name"])
	}
	if byName["process_name"] != 1 {
		t.Errorf("process_name metadata = %d, want 1", byName["process_name"])
	}
	if !strings.Contains(buf.String(), `"prog/mod"`) {
		t.Errorf("process name missing from output")
	}
	if !strings.Contains(buf.String(), `"worker 1"`) {
		t.Errorf("thread names missing from output")
	}
}
