package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/ps"
)

// Config parameterizes a Server. The zero value is usable: an owned
// engine with all CPUs, a per-tenant bound of 256 requests and no rate
// quota. How many activations run at once is not a setting: it is the
// engine's pool width.
type Config struct {
	// Engine, when non-nil, is the execution engine to serve from; the
	// server does not close it. When nil the server creates (and owns)
	// one with Workers and CacheLimit.
	Engine *ps.Engine
	// Workers is the owned engine's pool width (<= 0 = all CPUs).
	// Ignored when Engine is set.
	Workers int
	// CacheLimit bounds the owned engine's compiled-program cache in
	// compiled-size bytes (0 = unbounded). Ignored when Engine is set.
	CacheLimit int64
	// RunOptions apply to every prepared Runner (workers, strictness,
	// ...).
	RunOptions []ps.RunOption

	// QueueDepth bounds each tenant's requests admitted but not yet
	// answered, running or waiting for a run slot (default 256;
	// negative disables the bound).
	QueueDepth int
	// TenantRate is each tenant's token-bucket refill rate in requests
	// per second (0 = no quota); TenantBurst is the bucket capacity
	// (default: ceil(TenantRate), at least 1).
	TenantRate  float64
	TenantBurst int
	// RunTimeout bounds one activation's run (0 = unbounded).
	RunTimeout time.Duration

	// Dir is the program directory served by LoadDir/-based reload:
	// every *.ps file compiles to a program named after its base name.
	Dir string

	// EnableTrace allows ?trace=1 on /v1/run: the activation runs
	// under a recording Runner.TraceRun, the response carries the
	// timing breakdown, and GET /v1/trace?id= exports the retained
	// Chrome trace JSON. Off by default — tracing is opt-in per server.
	EnableTrace bool
	// AccessLog, when non-nil, receives one JSON line per request:
	// request ID, method, path, status, bytes, duration, tenant.
	AccessLog io.Writer
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.TenantBurst <= 0 && c.TenantRate > 0 {
		c.TenantBurst = int(c.TenantRate + 0.999)
		if c.TenantBurst < 1 {
			c.TenantBurst = 1
		}
	}
	return c
}

// Server is the multi-tenant HTTP front end over a ps.Engine.
// Activations POSTed to /v1/run are admitted per tenant (token-bucket
// quota, bounded in-flight requests), wait in arrival order for one of
// the engine's Workers() run slots, and run one activation each on the
// engine's shared pool, whose DOALL and wavefront steps carry the
// parallelism; /metrics exposes the Prometheus counters, /explain the
// lowered plan, /healthz liveness, and /reload re-reads the program
// directory.
//
// Construct with New, serve s.Handler(), and stop with Drain (finish
// admitted work, reject new) followed by Close.
type Server struct {
	cfg     Config
	eng     *ps.Engine
	ownEng  bool
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the access/request-ID envelope

	metrics  *metrics
	access   *accessLogger
	traces   *traceStore
	draining atomic.Bool
	// inflight counts handleRun calls that have not yet written their
	// response. A plain atomic (Drain polls it) rather than a
	// WaitGroup: requests keep arriving during drain — each gets a
	// quick 503 — and WaitGroup forbids Add racing Wait across zero.
	inflight atomic.Int64
	// slots holds one token per running activation; its capacity is
	// the engine's pool width, so at most Workers() activations run at
	// once and the rest wait for a slot in arrival order.
	slots chan struct{}

	mu       sync.Mutex
	programs map[string]*servedProgram
	tenants  map[string]*tenant

	// execHook, when set (by tests only), is called once a request
	// holds a run slot, just before its activation runs, so a test can
	// hold runs while it queues requests behind them.
	execHook func()
}

// servedProgram is one compiled source with its prepared runners.
type servedProgram struct {
	name   string
	source string
	prog   *ps.Program

	mu      sync.Mutex
	runners map[string]*ps.Runner
}

// runner prepares (once) and returns the module's Runner.
func (sp *servedProgram) runner(module string, opts []ps.RunOption) (*ps.Runner, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if r, ok := sp.runners[module]; ok {
		return r, nil
	}
	r, err := sp.prog.Prepare(module, opts...)
	if err != nil {
		return nil, err
	}
	sp.runners[module] = r
	return r, nil
}

// New builds a Server. When cfg.Dir is set the directory is loaded
// immediately; programs can also be added programmatically with
// AddProgram.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		eng:      cfg.Engine,
		metrics:  newMetrics(),
		access:   &accessLogger{w: cfg.AccessLog},
		traces:   newTraceStore(),
		programs: make(map[string]*servedProgram),
		tenants:  make(map[string]*tenant),
	}
	if s.eng == nil {
		s.eng = ps.NewEngine(ps.EngineWorkers(cfg.Workers), ps.WithCacheLimit(cfg.CacheLimit))
		s.ownEng = true
	}
	s.slots = make(chan struct{}, s.eng.Workers())
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /explain", s.handleExplain)
	mux.HandleFunc("POST /reload", s.handleReload)
	s.mux = mux
	s.handler = s.withAccess(mux)
	if cfg.Dir != "" {
		if _, _, err := s.LoadDir(cfg.Dir); err != nil {
			if s.ownEng {
				s.eng.Close()
			}
			return nil, err
		}
	}
	return s, nil
}

// Handler returns the server's HTTP handler: the routes wrapped in the
// observability envelope (request-ID propagation, per-endpoint latency
// histograms, structured access logging).
func (s *Server) Handler() http.Handler { return s.handler }

// Engine returns the engine the server executes on.
func (s *Server) Engine() *ps.Engine { return s.eng }

// AddProgram compiles and registers (or replaces) one program.
// Requests already admitted finish against the compilation they
// resolved; later requests run the new one. An unchanged source is a
// no-op thanks to the engine's content-hash cache.
func (s *Server) AddProgram(name, source string) error {
	prog, err := s.eng.Compile(name+".ps", source)
	if err != nil {
		return err
	}
	sp := &servedProgram{name: name, source: source, prog: prog, runners: make(map[string]*ps.Runner)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.programs[name]; !ok || old.source != source {
		s.programs[name] = sp
	}
	return nil
}

// RemoveProgram unregisters a program.
func (s *Server) RemoveProgram(name string) {
	s.mu.Lock()
	delete(s.programs, name)
	s.mu.Unlock()
}

// LoadDir compiles every *.ps file in dir, registering each under its
// base name, and removes served programs whose file disappeared. It
// reports how many programs are now served and how many were added or
// replaced by this sweep.
func (s *Server) LoadDir(dir string) (loaded, changed int, err error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.ps"))
	if err != nil {
		return 0, 0, err
	}
	sort.Strings(files)
	seen := make(map[string]bool, len(files))
	for _, f := range files {
		src, rerr := os.ReadFile(f)
		if rerr != nil {
			return loaded, changed, rerr
		}
		name := strings.TrimSuffix(filepath.Base(f), ".ps")
		seen[name] = true
		s.mu.Lock()
		old, existed := s.programs[name]
		unchanged := existed && old.source == string(src)
		s.mu.Unlock()
		if !unchanged {
			if aerr := s.AddProgram(name, string(src)); aerr != nil {
				return loaded, changed, fmt.Errorf("%s: %w", f, aerr)
			}
			changed++
		}
		loaded++
	}
	s.mu.Lock()
	var gone []string
	for name := range s.programs {
		if !seen[name] {
			gone = append(gone, name)
		}
	}
	s.mu.Unlock()
	for _, name := range gone {
		s.RemoveProgram(name)
		changed++
	}
	return loaded, changed, nil
}

// Programs lists the served program names, sorted.
func (s *Server) Programs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.programs))
	for name := range s.programs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// tenantFor returns (creating on first use) the named tenant.
func (s *Server) tenantFor(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		t = &tenant{name: name}
		s.tenants[name] = t
	}
	return t
}

// Drain gracefully stops the server: new requests are rejected with
// 503, every admitted activation runs, and Drain returns when all
// in-flight requests have their responses (or ctx expires; the error is
// then ctx.Err()). The engine stays usable — call Close afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Close releases the server's resources: admission stops and an owned
// engine is closed, which fails the activations still running (call
// Drain first for graceful shutdown).
func (s *Server) Close() {
	s.draining.Store(true)
	if s.ownEng {
		s.eng.Close()
	}
}

// runResponse is the /v1/run success payload. BatchSize is always 1
// (one request, one activation). TraceID and Timing are present only
// on ?trace=1 runs: the ID retrieves the Chrome trace via
// GET /v1/trace, the breakdown summarizes where worker time went.
type runResponse struct {
	Program   string              `json:"program"`
	Module    string              `json:"module"`
	Results   map[string]any      `json:"results"`
	BatchSize int                 `json:"batch_size"`
	WallMs    float64             `json:"wall_ms"`
	TraceID   string              `json:"trace_id,omitempty"`
	Timing    *ps.TimingBreakdown `json:"timing,omitempty"`
}

// errorResponse is every non-2xx payload.
type errorResponse struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

// maxBody bounds request payloads (arrays travel as JSON).
const maxBody = 64 << 20

// queueFullRetrySeconds is the Retry-After of a full tenant queue. A
// tenant's slots free as fast as its activations run, well under a
// second, so the smallest whole-second hint is the honest one.
const queueFullRetrySeconds = 1

// handleRun serves POST /v1/run: it reads the body into a pooled buffer
// and splits the envelope in one pass (readRunRequest), converts the
// inputs while they still alias that buffer, admits the request, waits
// for a run slot, runs the activation (traced under ?trace=1 when the
// server allows it) and encodes the results.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := time.Now()
	if s.draining.Load() {
		s.metrics.rejected.add("draining", 1)
		s.reject(w, http.StatusServiceUnavailable, 1, "server is draining")
		return
	}

	buf := getBody(r.ContentLength)
	defer func() { putBody(buf) }()
	req, err := readRunRequest(buf, http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if req.Program == "" || req.Module == "" {
		s.fail(w, http.StatusBadRequest, "program and module are required")
		return
	}
	tenantName := req.Tenant
	if tenantName == "" {
		tenantName = r.Header.Get("X-PS-Tenant")
	}
	if tenantName == "" {
		tenantName = "default"
	}

	s.mu.Lock()
	sp, ok := s.programs[req.Program]
	s.mu.Unlock()
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Sprintf("no program %q", req.Program))
		return
	}
	runner, err := sp.runner(req.Module, s.cfg.RunOptions)
	if err != nil {
		s.fail(w, http.StatusNotFound, err.Error())
		return
	}
	args, err := ps.ArgsFromJSON(sp.prog, req.Module, req.Inputs)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	// args own their storage; the raw inputs alias buf, which the next
	// request may now reuse.
	putBody(buf)
	buf, req.Inputs = nil, nil

	// Admission: quota first (cheap, no state to roll back), then the
	// tenant's in-flight bound, held until the response is written.
	t := s.tenantFor(tenantName)
	if ok, retry := t.takeToken(s.cfg.TenantRate, s.cfg.TenantBurst, time.Now()); !ok {
		s.metrics.rejected.add("quota", 1)
		s.reject(w, http.StatusTooManyRequests, retrySeconds(retry), fmt.Sprintf("tenant %q over rate quota", tenantName))
		return
	}
	if !t.tryEnqueue(s.cfg.QueueDepth) {
		s.metrics.rejected.add("queue_full", 1)
		s.reject(w, http.StatusTooManyRequests, queueFullRetrySeconds, fmt.Sprintf("tenant %q queue is full", tenantName))
		return
	}
	defer t.release()

	// A client that leaves while waiting for a run slot costs no pool
	// time.
	m := s.metrics
	waitStart := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-r.Context().Done():
		m.requests.add("499", 1)
		return
	}
	m.queueWait.observe(time.Since(waitStart).Microseconds())
	traced := s.cfg.EnableTrace && r.URL.Query().Get("trace") == "1"
	values, stats, tr, err := s.run(r.Context(), runner, args, traced)
	m.batches.Add(1)
	m.batchSize.observe(1)
	m.noteRunStats(stats)
	if traced {
		m.tracedRuns.Add(1)
	}
	if err != nil {
		if r.Context().Err() != nil {
			// The client left mid-run and the executor stopped on its
			// context; nobody reads an answer.
			m.requests.add("499", 1)
			return
		}
		m.runErrors.Add(1)
		s.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	m.activations.Add(1)
	results, err := ps.ResultsToJSON(sp.prog, req.Module, values)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := runResponse{
		Program:   req.Program,
		Module:    req.Module,
		Results:   results,
		BatchSize: 1,
		WallMs:    float64(time.Since(start).Microseconds()) / 1000,
	}
	if traced {
		// The handle is retained under the request ID for GET
		// /v1/trace export.
		resp.TraceID = r.Header.Get(requestIDHeader)
		resp.Timing = stats.Timing
		s.traces.put(resp.TraceID, tr)
	}
	m.requests.add("200", 1)
	writeJSON(w, http.StatusOK, resp)
}

// run executes one activation in the run slot its caller took, under
// the request's context and RunTimeout, and frees the slot. A traced
// run records its timeline with Runner.TraceRun.
func (s *Server) run(ctx context.Context, runner *ps.Runner, args ps.Args, traced bool) ([]any, *ps.RunStats, *ps.Trace, error) {
	defer func() { <-s.slots }()
	if hook := s.execHook; hook != nil {
		hook()
	}
	if t := s.cfg.RunTimeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	if traced {
		return runner.TraceRun(ctx, args)
	}
	values, stats, err := runner.Run(ctx, args)
	return values, stats, nil, err
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	depths := make([]labeledValue, 0, len(s.tenants))
	for name, t := range s.tenants {
		depths = append(depths, labeledValue{name, t.queued.Load()})
	}
	s.mu.Unlock()
	sort.Slice(depths, func(i, j int) bool { return depths[i].label < depths[j].label })
	var sb strings.Builder
	s.metrics.render(&sb, depths, s.eng.Stats())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, sb.String())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	progName := r.URL.Query().Get("program")
	module := r.URL.Query().Get("module")
	if progName == "" || module == "" {
		s.fail(w, http.StatusBadRequest, "program and module query parameters are required")
		return
	}
	s.mu.Lock()
	sp, ok := s.programs[progName]
	s.mu.Unlock()
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Sprintf("no program %q", progName))
		return
	}
	runner, err := sp.runner(module, s.cfg.RunOptions)
	if err != nil {
		s.fail(w, http.StatusNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, runner.Explain())
}

func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Dir == "" {
		s.fail(w, http.StatusBadRequest, "server has no program directory configured")
		return
	}
	loaded, changed, err := s.LoadDir(s.cfg.Dir)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.metrics.reloads.Add(1)
	writeJSON(w, http.StatusOK, map[string]int{"programs": loaded, "changed": changed})
}

// reject answers an admission failure with Retry-After guidance.
func (s *Server) reject(w http.ResponseWriter, code, retryAfter int, msg string) {
	if retryAfter < 1 {
		retryAfter = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	s.metrics.requests.add(strconv.Itoa(code), 1)
	writeJSON(w, code, errorResponse{Error: msg, RetryAfter: retryAfter})
}

// fail answers a non-retryable failure.
func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.metrics.requests.add(strconv.Itoa(code), 1)
	writeJSON(w, code, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are out; nothing more to do.
		_ = err
	}
}

// retrySeconds converts a wait hint to whole Retry-After seconds.
func retrySeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}
