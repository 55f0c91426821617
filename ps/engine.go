package ps

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// Engine is a long-lived, concurrency-safe execution service for PS
// programs: it owns the worker pools (one per width, shared by every
// activation at that width), compiled programs are cached by source
// hash with LRU eviction under a configurable compiled-size budget, and
// engine-level default options apply to every Runner prepared from its
// programs. An Engine is the one way to compile a program, whether it
// serves many concurrent requests or one run.
//
//	eng := ps.NewEngine(ps.EngineWorkers(8), ps.WithCacheLimit(64<<20))
//	defer eng.Close()
//	prog, err := eng.Compile("relax.ps", source)
//	run, err := prog.Prepare("Relaxation")
//	out, stats, err := run.Run(ctx, []any{grid, 256, 64})
type Engine struct {
	// workers is the default pool's width.
	workers  int
	defaults []RunOption
	closed   atomic.Bool

	mu sync.Mutex
	// pools holds one pool per width: the default one from NewEngine,
	// any other from the first Prepare at that width.
	pools map[int]*sched.Pool
	// cache maps source hashes to their LRU list elements; lru orders
	// entries most-recently-used first, and cacheBytes totals their
	// compiled-size accounting. With cacheLimit 0 the cache is
	// unbounded (the library default — services set a budget).
	cache      map[[sha256.Size]byte]*list.Element
	lru        *list.List
	cacheBytes int64
	cacheLimit int64

	hits, misses, evictions atomic.Int64
}

// cacheEntry is one cached compiled program with its accounted size.
type cacheEntry struct {
	key  [sha256.Size]byte
	prog *Program
	size int64
}

// engineConfig collects construction options.
type engineConfig struct {
	workers    int
	cacheLimit int64
	defaults   []RunOption
}

// EngineOption configures NewEngine.
type EngineOption func(*engineConfig)

// EngineWorkers sets the default pool's worker count (<= 0 uses all
// CPUs).
func EngineWorkers(n int) EngineOption {
	return func(c *engineConfig) { c.workers = n }
}

// WithCacheLimit bounds the compiled-program cache: when the summed
// compiled size of cached programs exceeds limit bytes, least recently
// used entries are evicted until it fits again. The most recently
// compiled program is never evicted, so a single oversized program
// still caches (with everything else evicted around it). limit <= 0
// keeps the cache unbounded. Evicted programs keep working — eviction
// only drops the cache's reference, so the next Compile of that source
// pays a fresh compilation.
func WithCacheLimit(limit int64) EngineOption {
	return func(c *engineConfig) { c.cacheLimit = limit }
}

// EngineDefaults sets run options applied to every Runner prepared from
// this engine's programs, before per-Prepare options.
func EngineDefaults(opts ...RunOption) EngineOption {
	return func(c *engineConfig) { c.defaults = append(c.defaults, opts...) }
}

// NewEngine starts an engine. Close it when no more runs are needed;
// until then its worker pools stay parked between activations.
func NewEngine(opts ...EngineOption) *Engine {
	var c engineConfig
	for _, f := range opts {
		f(&c)
	}
	pool := sched.NewPool(c.workers)
	return &Engine{
		workers:    pool.Workers(),
		pools:      map[int]*sched.Pool{pool.Workers(): pool},
		defaults:   c.defaults,
		cache:      make(map[[sha256.Size]byte]*list.Element),
		lru:        list.New(),
		cacheLimit: c.cacheLimit,
	}
}

// Workers returns the default pool's worker count.
func (e *Engine) Workers() int { return e.workers }

// Compile parses, checks and schedules a PS source text, returning a
// cached Program when the same (name, source) pair was compiled before.
// Programs are immutable and safe for concurrent use, so one cached
// Program may serve many goroutines. The cache key is the content
// hash, which is what makes hot reload natural: recompiling an
// unchanged source is a cache hit, a changed source compiles fresh and
// the stale entry ages out of the LRU.
func (e *Engine) Compile(name, source string) (*Program, error) {
	if e.closed.Load() {
		return nil, &Error{Phase: PhaseCheck, File: name, Err: errors.New("engine is closed")}
	}
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(source))
	var key [sha256.Size]byte
	h.Sum(key[:0])

	e.mu.Lock()
	if el, ok := e.cache[key]; ok {
		e.lru.MoveToFront(el)
		p := el.Value.(*cacheEntry).prog
		e.mu.Unlock()
		e.hits.Add(1)
		return p, nil
	}
	e.mu.Unlock()
	// Compile outside the lock so a slow compilation never blocks cache
	// hits; concurrent misses on the same key race benignly and the
	// first store wins, preserving pointer identity for all callers.
	e.misses.Add(1)
	p, err := compileProgram(e, name, source)
	if err != nil {
		return nil, err
	}
	size := int64(len(name)+len(source)) + p.ip.CompiledSize()

	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.cache[key]; ok {
		e.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).prog, nil
	}
	e.cache[key] = e.lru.PushFront(&cacheEntry{key: key, prog: p, size: size})
	e.cacheBytes += size
	e.evictLocked()
	return p, nil
}

// evictLocked drops least recently used entries until the cache fits
// its limit again, always keeping the most recent entry. Callers hold
// e.mu.
func (e *Engine) evictLocked() {
	if e.cacheLimit <= 0 {
		return
	}
	for e.cacheBytes > e.cacheLimit && e.lru.Len() > 1 {
		el := e.lru.Back()
		ent := el.Value.(*cacheEntry)
		e.lru.Remove(el)
		delete(e.cache, ent.key)
		e.cacheBytes -= ent.size
		e.evictions.Add(1)
	}
}

// CachedPrograms returns the number of programs in the compile cache.
func (e *Engine) CachedPrograms() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// EngineStats is a snapshot of the engine's cache counters, the raw
// material of a service's cache metrics.
type EngineStats struct {
	// CachedPrograms and CacheBytes describe the cache's current
	// contents (CacheBytes in compiled-size accounting units).
	CachedPrograms int
	CacheBytes     int64
	// CacheLimit is the configured budget (0 = unbounded).
	CacheLimit int64
	// CacheHits and CacheMisses count Compile calls served from /
	// missing the cache; CacheEvictions counts entries dropped by the
	// LRU to stay within the budget.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
}

// Stats returns a snapshot of the engine's cache counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	n, bytes := len(e.cache), e.cacheBytes
	e.mu.Unlock()
	return EngineStats{
		CachedPrograms: n,
		CacheBytes:     bytes,
		CacheLimit:     e.cacheLimit,
		CacheHits:      e.hits.Load(),
		CacheMisses:    e.misses.Load(),
		CacheEvictions: e.evictions.Load(),
	}
}

// pool returns the engine's pool of the given width (<= 0 is the
// default width), starting it on first use. It returns nil once the
// engine is closed.
func (e *Engine) pool(workers int) *sched.Pool {
	if workers <= 0 {
		workers = e.workers
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil
	}
	p := e.pools[workers]
	if p == nil {
		p = sched.NewPool(workers)
		e.pools[workers] = p
	}
	return p
}

// Close stops every pool of the engine; runs that start afterwards on
// its programs fail with the engine-closed *Error, as does preparing a
// parallel Runner. A run in flight does not fail: Close waits for the
// pools' workers to return from the tiles they are running, and the run
// finishes on the goroutine that called it.
func (e *Engine) Close() {
	if e.closed.CompareAndSwap(false, true) {
		e.mu.Lock()
		pools := e.pools
		e.pools = nil
		e.mu.Unlock()
		for _, p := range pools {
			p.Close()
		}
	}
}
