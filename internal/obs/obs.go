// Package obs is the execution recorder behind `psrun -trace` and
// Runner.TraceRun: per-goroutine, cache-padded ring buffers of
// timestamped span events emitted from the executors' hot paths
// (activations, sequential DO nests, DOALL chunks, wavefront planes,
// doacross tiles and waits, pipeline stages and stalls, specialization
// fallbacks, arena reuses).
//
// The design optimizes for the disabled case and the single-writer
// case. Disabled tracing is a nil check on the executor's ring pointer
// — one predictable branch per emission site, no call. Enabled tracing
// gives each worker goroutine exclusive ownership of one Ring for the
// duration of its dispatch (Recorder.Acquire / Release), so Emit is a
// plain slice store and increment with no atomics or locks. A ring
// wraps, overwriting its oldest events, so a fixed per-ring budget
// bounds arbitrarily long runs; Dropped reports the loss. Drain the
// recorder after the run with Snapshot, WriteChrome or Breakdown —
// none of them synchronize with in-flight emitters, so they are
// defined only once the traced run has returned.
package obs

import (
	"sync"
	"time"
)

// Kind tags one recorded event with the executor site that emitted it.
type Kind uint8

const (
	// KActivation spans one module activation (runModule entry to
	// exit), the root of every other span of the run.
	KActivation Kind = iota
	// KDoAll spans one sequentially executed DOALL step on the
	// activation goroutine. Arg0 is the collapsed point count.
	KDoAll
	// KDo spans one sequential DO nest run whole on the activation
	// goroutine: an outermost DO whose body holds only DO and equation
	// steps. Arg0 is the nest's plan step index.
	KDo
	// KChunk spans one parallel DOALL chunk on a pool worker. Arg0 is
	// the chunk's point count.
	KChunk
	// KPlane spans one wavefront hyperplane swept inline on the
	// activation goroutine. Arg0 is the plane time t.
	KPlane
	// KTile spans one doacross tile instance. Arg0 is the plane time t;
	// Arg1 packs the tile index and the steal flag as k<<1 | stolen.
	KTile
	// KTileWait spans one parked wait of a doacross worker: no tile was
	// ready and the worker blocked until a completion woke it.
	KTileWait
	// KStage spans one pipeline stage body invocation (one token
	// through one stage). Arg0 is the stage index, Arg1 the token.
	KStage
	// KStageStall spans one blocking pipeline wait. Arg0 is the stage
	// index; Arg1 is 0 for a starved receive, 1 for a backpressured
	// send.
	KStageStall
	// KSpecFallback is an instant event: a specialized span kernel fell
	// back to the generic evaluator for its un-certified prefix/suffix
	// points. Arg0 is the equation index, Arg1 the fallback point count.
	KSpecFallback
	// KArenaReuse is an instant event: an activation array's backing
	// was recycled from the arena. Arg0 is the array's symbol slot.
	KArenaReuse

	numKinds = int(KArenaReuse) + 1
)

// String names the kind the way the Chrome trace export spells it.
func (k Kind) String() string {
	if int(k) < len(kindMeta) {
		return kindMeta[k].name
	}
	return "?"
}

// Instant reports whether the kind is a point event (no duration).
func (k Kind) Instant() bool { return k == KSpecFallback || k == KArenaReuse }

// Event is one recorded span or instant. Start is nanoseconds since
// the recorder's epoch; Dur is the span length in nanoseconds (0 for
// instants). Arg0/Arg1 carry per-kind payload (see the Kind docs).
type Event struct {
	Start int64
	Dur   int64
	Arg0  int64
	Arg1  int64
	Kind  Kind
}

// DefaultRingEvents is the per-ring capacity when NewRecorder is given
// zero: 4096 events (~160 KiB per worker ring).
const DefaultRingEvents = 4096

// Ring is one goroutine's event buffer. A ring has exactly one writer
// at a time — the goroutine holding it between Acquire and Release —
// so Emit is lock-free and atomic-free by construction.
type Ring struct {
	rec *Recorder
	id  int
	ev  []Event
	n   uint64 // total events ever emitted; n & mask is the write slot
	// pad keeps concurrently written rings off each other's cache
	// lines (the Ring headers are reachable from the recorder's slice).
	_ [64]byte
}

// ID is the ring's stable index, used as the thread id of its events
// in the Chrome export.
func (g *Ring) ID() int { return g.id }

// Now returns the recorder's clock: nanoseconds since its epoch.
func (g *Ring) Now() int64 { return g.rec.Now() }

// Emit records one event. The caller must own the ring (be between
// Acquire and Release for it).
func (g *Ring) Emit(k Kind, start, dur, arg0, arg1 int64) {
	g.ev[g.n&uint64(len(g.ev)-1)] = Event{Start: start, Dur: dur, Arg0: arg0, Arg1: arg1, Kind: k}
	g.n++
}

// events returns the retained events oldest first.
func (g *Ring) events() []Event {
	cap64 := uint64(len(g.ev))
	if g.n <= cap64 {
		out := make([]Event, g.n)
		copy(out, g.ev[:g.n])
		return out
	}
	out := make([]Event, cap64)
	head := g.n & (cap64 - 1)
	copy(out, g.ev[head:])
	copy(out[cap64-head:], g.ev[:head])
	return out
}

// Recorder owns the rings of one traced run. Acquire hands a goroutine
// exclusive ownership of a ring (reusing released ones, so the ring
// count tracks peak concurrency, not total dispatches); Release
// returns it. The zero Recorder is not usable — construct with
// NewRecorder.
type Recorder struct {
	epoch   time.Time
	ringCap int

	mu    sync.Mutex
	rings []*Ring // every ring ever created, in id order
	free  []*Ring // released rings available for reuse
}

// NewRecorder builds a recorder whose rings hold eventsPerRing events
// each (<= 0 selects DefaultRingEvents; other values round up to a
// power of two so the write index masks instead of dividing).
func NewRecorder(eventsPerRing int) *Recorder {
	if eventsPerRing <= 0 {
		eventsPerRing = DefaultRingEvents
	}
	capPow := 1
	for capPow < eventsPerRing {
		capPow <<= 1
	}
	return &Recorder{epoch: time.Now(), ringCap: capPow}
}

// Now returns nanoseconds since the recorder's epoch — the timestamp
// base of every emitted event.
func (r *Recorder) Now() int64 { return time.Since(r.epoch).Nanoseconds() }

// Acquire hands the caller exclusive ownership of a ring until the
// matching Release. Rings are recycled across dispatches, so one
// ring's event sequence can interleave work from successive owners;
// within a ring, timestamps stay monotone (Release happens-before the
// next Acquire).
func (r *Recorder) Acquire() *Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		g := r.free[n-1]
		r.free = r.free[:n-1]
		return g
	}
	g := &Ring{rec: r, id: len(r.rings), ev: make([]Event, r.ringCap)}
	r.rings = append(r.rings, g)
	return g
}

// Release returns a ring to the recorder's free list. nil is a no-op,
// so callers can release unconditionally.
func (r *Recorder) Release(g *Ring) {
	if g == nil {
		return
	}
	r.mu.Lock()
	r.free = append(r.free, g)
	r.mu.Unlock()
}

// Rings reports how many rings the recorder created — the peak number
// of concurrent emitters the run reached.
func (r *Recorder) Rings() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rings)
}

// Events reports the total number of events emitted, including ones a
// wrapped ring has since overwritten.
func (r *Recorder) Events() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, g := range r.rings {
		n += int64(g.n)
	}
	return n
}

// Dropped reports how many events were overwritten by ring wraparound.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, g := range r.rings {
		if g.n > uint64(len(g.ev)) {
			n += int64(g.n - uint64(len(g.ev)))
		}
	}
	return n
}

// Snapshot copies out every ring's retained events, oldest first,
// indexed by ring id. Call it only after the traced run has returned.
func (r *Recorder) Snapshot() [][]Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]Event, len(r.rings))
	for i, g := range r.rings {
		out[i] = g.events()
	}
	return out
}
