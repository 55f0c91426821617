package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/ps"
)

// corpus served by the stress test: a pure DOALL and a hyperplane
// wavefront, so batches cross both schedule shapes.
var testPrograms = map[string]struct {
	src    string
	module string
}{
	"smooth":       {repro.Source("smooth"), "Smooth"},
	"gauss_seidel": {repro.Source("gauss_seidel"), "Relaxation"},
}

// testInputs builds the i-th JSON input set for a program.
func testInputs(prog string, i int) map[string]any {
	switch prog {
	case "smooth":
		n := 16 + 4*i
		xs := make([]float64, n+2)
		for k := range xs {
			xs[k] = float64((k*7+i*3)%13) / 13.0
		}
		return map[string]any{"Xs": xs, "N": n}
	case "gauss_seidel":
		m := 8
		grid := make([][]float64, m+2)
		for r := range grid {
			grid[r] = make([]float64, m+2)
			for c := range grid[r] {
				if r > 0 && r <= m && c > 0 && c <= m {
					grid[r][c] = float64((r*13+c*7+i*5)%11) / 11.0
				}
			}
		}
		return map[string]any{"InitialA": grid, "M": m, "maxK": 3 + i%2}
	}
	panic("unknown program " + prog)
}

// referenceJSON runs one activation directly (sequential Runner.Run on
// an independent compilation) and returns the canonical JSON encoding
// of its results — the bitwise-parity oracle for the served response.
func referenceJSON(t *testing.T, progName string, i int) string {
	t.Helper()
	tp := testPrograms[progName]
	eng := ps.NewEngine()
	defer eng.Close()
	prog, err := eng.Compile(progName+".ps", tp.src)
	if err != nil {
		t.Fatal(err)
	}
	raw := make(map[string]json.RawMessage)
	for k, v := range testInputs(progName, i) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		raw[k] = data
	}
	args, err := ps.ArgsFromJSON(prog, tp.module, raw)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare(tp.module, ps.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := run.Run(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ps.ResultsToJSON(prog, tp.module, out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, tp := range testPrograms {
		if err := srv.AddProgram(name, tp.src); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// runBody is the /v1/run request body of the i-th input set.
func runBody(tenant, prog, module string, i int) []byte {
	payload := map[string]any{"program": prog, "module": module, "inputs": testInputs(prog, i)}
	if tenant != "" {
		payload["tenant"] = tenant
	}
	body, err := json.Marshal(payload)
	if err != nil {
		panic(err) // testInputs holds only numbers
	}
	return body
}

// tryRun issues one /v1/run and returns status, headers and body; it is
// safe off the test goroutine.
func tryRun(ts *httptest.Server, tenant, prog, module string, i int) (int, http.Header, []byte, error) {
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(runBody(tenant, prog, module, i)))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// postRun is tryRun on the test goroutine, failing the test on a
// transport error.
func postRun(t *testing.T, ts *httptest.Server, tenant, prog, module string, i int) (int, http.Header, []byte) {
	t.Helper()
	code, hdr, data, err := tryRun(ts, tenant, prog, module, i)
	if err != nil {
		t.Fatal(err)
	}
	return code, hdr, data
}

// runResult is one asynchronous /v1/run's reply.
type runResult struct {
	code int
	body []byte
	err  error
}

// goRun issues one /v1/run on its own goroutine; the channel receives
// the reply.
func goRun(ts *httptest.Server, tenant, prog, module string, i int) <-chan runResult {
	c := make(chan runResult, 1)
	go func() {
		code, _, body, err := tryRun(ts, tenant, prog, module, i)
		c <- runResult{code, body, err}
	}()
	return c
}

// runHold holds runs of a server at its hook, just after each took its
// run slot, until release; it counts the runs that reached the hook and
// the most that were in it at once.
type runHold struct {
	gate chan struct{}
	once sync.Once

	mu                sync.Mutex
	entered, in, most int
}

// holdRuns installs a runHold on srv that holds the first limit runs,
// or every run when limit is 0; later runs pass through, so a request
// that should have been refused answers instead of hanging. It must run
// before the server's first request. The hold is released at cleanup
// at the latest, so the server can close.
func holdRuns(t *testing.T, srv *Server, limit int) *runHold {
	h := &runHold{gate: make(chan struct{})}
	srv.execHook = func() {
		h.mu.Lock()
		h.entered++
		held := limit == 0 || h.entered <= limit
		h.in++
		h.most = max(h.most, h.in)
		h.mu.Unlock()
		if held {
			<-h.gate
		}
		h.mu.Lock()
		h.in--
		h.mu.Unlock()
	}
	t.Cleanup(h.release)
	return h
}

func (h *runHold) release() { h.once.Do(func() { close(h.gate) }) }

// counts returns how many runs reached the hold so far and the most
// that were in it at once.
func (h *runHold) counts() (entered, most int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.entered, h.most
}

// started reports whether n runs have reached the hold.
func (h *runHold) started(n int) func() bool {
	return func() bool {
		entered, _ := h.counts()
		return entered == n
	}
}

// queuedTotal counts the requests admitted and not yet answered, over
// every tenant.
func queuedTotal(srv *Server) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	n := 0
	for _, tn := range srv.tenants {
		n += int(tn.queued.Load())
	}
	return n
}

// counted returns one series of a labeled counter, 0 when absent.
func counted(c *labeledCounter, label string) int64 {
	for _, lv := range c.snapshot() {
		if lv.label == label {
			return lv.value
		}
	}
	return 0
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkRun requires a 200 reply whose results equal want byte for byte,
// and returns its batch size.
func checkRun(t *testing.T, label string, r runResult, want string) int {
	t.Helper()
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("%s: status %d, err %v: %s", label, r.code, r.err, r.body)
	}
	var rr rawResponse
	if err := json.Unmarshal(r.body, &rr); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if string(rr.Results) != want {
		t.Errorf("%s: results differ from a direct run:\n got %s\nwant %s", label, rr.Results, want)
	}
	return rr.BatchSize
}

// rawResponse decodes just enough of a /v1/run reply to compare the
// results field byte-for-byte against the reference encoding.
type rawResponse struct {
	Results   json.RawMessage `json:"results"`
	BatchSize int             `json:"batch_size"`
}

// TestServeBatchParityStress is the acceptance stress: several tenants
// hammer two programs concurrently and every response must equal —
// bitwise, via the canonical JSON encoding — a direct sequential
// Runner.Run of the same activation. The first runs are held until
// every goroutine's first request is admitted, so all run slots are
// busy with requests waiting behind them, and no more than the pool
// width of runs may ever be in the hook at once. Run with -race.
func TestServeBatchParityStress(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Workers:    4,
		QueueDepth: 1024,
	})
	hold := holdRuns(t, srv, 0)
	workers := srv.Engine().Workers()

	const inputsPerProgram = 3
	refs := make(map[string]string)
	for name := range testPrograms {
		for i := 0; i < inputsPerProgram; i++ {
			refs[fmt.Sprintf("%s/%d", name, i)] = referenceJSON(t, name, i)
		}
	}
	progNames := []string{"smooth", "gauss_seidel"}

	const goroutines, runsEach = 8, 6
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*runsEach)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", g%3)
			for r := 0; r < runsEach; r++ {
				prog := progNames[(g+r)%len(progNames)]
				i := (g * r) % inputsPerProgram
				code, _, body, err := tryRun(ts, tenant, prog, testPrograms[prog].module, i)
				if err != nil {
					errc <- err
					continue
				}
				if code != http.StatusOK {
					errc <- fmt.Errorf("%s/%d: status %d: %s", prog, i, code, body)
					continue
				}
				var rr rawResponse
				if err := json.Unmarshal(body, &rr); err != nil {
					errc <- err
					continue
				}
				if got, want := string(rr.Results), refs[fmt.Sprintf("%s/%d", prog, i)]; got != want {
					errc <- fmt.Errorf("%s/%d: served results differ from direct run:\n got %s\nwant %s", prog, i, got, want)
				}
				if rr.BatchSize != 1 {
					errc <- fmt.Errorf("%s/%d: batch_size %d, want 1", prog, i, rr.BatchSize)
				}
			}
		}(g)
	}
	// Every run slot holds a first request; the other first requests
	// wait for a slot.
	waitFor(t, "the first requests to queue", func() bool {
		return hold.started(workers)() && queuedTotal(srv) == goroutines
	})
	hold.release()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if entered, most := hold.counts(); entered != goroutines*runsEach || most > workers {
		t.Errorf("%d runs reached the hook, at most %d at once; want %d, at most %d (the pool width)",
			entered, most, goroutines*runsEach, workers)
	}

	// Every request accounted, in-flight counts back to zero.
	if got := srv.metrics.activations.Load(); got != goroutines*runsEach {
		t.Errorf("activations counter = %d, want %d", got, goroutines*runsEach)
	}
	if got := srv.metrics.batches.Load(); got != goroutines*runsEach {
		t.Errorf("runs counter = %d, want %d", got, goroutines*runsEach)
	}
	srv.mu.Lock()
	for name, tn := range srv.tenants {
		if q := tn.queued.Load(); q != 0 {
			t.Errorf("tenant %s queue depth %d after drain-to-idle", name, q)
		}
	}
	srv.mu.Unlock()
}

// TestServeQuota pins the token-bucket rejection: burst 1 admits one
// request, the next gets 429 with Retry-After, and an unrelated tenant
// is unaffected.
func TestServeQuota(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:    2,
		TenantRate: 0.001, // one token per ~17 minutes: no refill mid-test
	})
	if code, _, body := postRun(t, ts, "alice", "smooth", "Smooth", 0); code != http.StatusOK {
		t.Fatalf("first request: %d: %s", code, body)
	}
	code, hdr, body := postRun(t, ts, "alice", "smooth", "Smooth", 0)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request: %d: %s", code, body)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q", hdr.Get("Retry-After"))
	}
	var er struct {
		Error      string `json:"error"`
		RetryAfter int    `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "quota") || er.RetryAfter < 1 {
		t.Errorf("quota rejection body: %s", body)
	}
	if code, _, body := postRun(t, ts, "bob", "smooth", "Smooth", 0); code != http.StatusOK {
		t.Errorf("other tenant rejected: %d: %s", code, body)
	}
}

// TestServeQuotaRetryAfterGrows pins the end-to-end Retry-After hint on
// a drained bucket: repeated rejections quote growing waits derived from
// the bucket's actual refill rate — and far above the one-second hint a
// full queue quotes — instead of a constant ~1s that would stampede
// every backed-off client at once.
func TestServeQuotaRetryAfterGrows(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:    2,
		TenantRate: 0.001, // one token per ~17 minutes: no refill mid-test
	})
	if code, _, body := postRun(t, ts, "alice", "smooth", "Smooth", 0); code != http.StatusOK {
		t.Fatalf("first request: %d: %s", code, body)
	}
	prev := 0
	for i := 0; i < 3; i++ {
		code, hdr, body := postRun(t, ts, "alice", "smooth", "Smooth", 0)
		if code != http.StatusTooManyRequests {
			t.Fatalf("rejection %d: %d: %s", i+1, code, body)
		}
		ra, err := strconv.Atoi(hdr.Get("Retry-After"))
		if err != nil {
			t.Fatalf("rejection %d: Retry-After = %q", i+1, hdr.Get("Retry-After"))
		}
		// One token accrues per ~1000s: each rejection joins the backlog
		// and the hint must step up by about that much.
		if ra <= prev || ra < (i+1)*900 {
			t.Errorf("rejection %d: Retry-After = %d, want growing (prev %d) and >= %d", i+1, ra, prev, (i+1)*900)
		}
		prev = ra
	}
	// The drained-bucket wait dwarfs the queue-full hint.
	if prev <= queueFullRetrySeconds {
		t.Errorf("drained-bucket Retry-After %d not above queue-full hint %d", prev, queueFullRetrySeconds)
	}
}

// TestServeQueueFull pins backpressure: with a queue depth of 1, request
// A runs (held) and holds its tenant's one slot until it is answered, so
// C is rejected with 429 and the queue-full Retry-After; once A has
// answered, B is admitted and completes.
func TestServeQueueFull(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 1})
	hold := holdRuns(t, srv, 1)
	a := goRun(ts, "", "smooth", "Smooth", 0)
	waitFor(t, "A's run to start", hold.started(1))

	code, hdr, body := postRun(t, ts, "", "smooth", "Smooth", 2)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-depth request: %d: %s", code, body)
	}
	if got := hdr.Get("Retry-After"); got != strconv.Itoa(queueFullRetrySeconds) {
		t.Errorf("queue-full Retry-After = %q, want %d", got, queueFullRetrySeconds)
	}
	if !strings.Contains(string(body), "queue is full") {
		t.Errorf("queue-full body: %s", body)
	}
	hold.release()
	checkRun(t, "A", <-a, referenceJSON(t, "smooth", 0))
	checkRun(t, "B", <-goRun(ts, "", "smooth", "Smooth", 1), referenceJSON(t, "smooth", 1))
}

// TestServeDrain pins graceful shutdown: with A and B holding both run
// slots and C waiting for one, Drain returns only after all three have
// answered 200 with results equal to direct runs, and the drained
// server answers 503 (run) / 503 (healthz) afterwards.
func TestServeDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	hold := holdRuns(t, srv, 0)
	a := goRun(ts, "", "smooth", "Smooth", 0)
	b := goRun(ts, "", "smooth", "Smooth", 1)
	waitFor(t, "A's and B's runs to start", hold.started(2))
	c := goRun(ts, "", "smooth", "Smooth", 2)
	waitFor(t, "C to queue", func() bool { return queuedTotal(srv) == 3 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()
	waitFor(t, "Drain to stop admission", srv.draining.Load)
	hold.release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain returned after every handler had answered.
	if answered := counted(srv.metrics.requests, "200"); answered != 3 {
		t.Errorf("200 responses when Drain returned = %d, want 3", answered)
	}
	checkRun(t, "A", <-a, referenceJSON(t, "smooth", 0))
	checkRun(t, "B", <-b, referenceJSON(t, "smooth", 1))
	checkRun(t, "C", <-c, referenceJSON(t, "smooth", 2))

	if code, hdr, _ := postRun(t, ts, "", "smooth", "Smooth", 0); code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("post-drain run: %d, Retry-After %q", code, hdr.Get("Retry-After"))
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain healthz: %d", resp.StatusCode)
	}
}

// TestServeCloseMidRun closes the server while its hook holds a run:
// once released, the held request is answered with a JSON error naming
// the closed engine, not dropped or panicked.
func TestServeCloseMidRun(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	hold := holdRuns(t, srv, 0)
	a := goRun(ts, "", "smooth", "Smooth", 0)
	waitFor(t, "the run to reach the hook", hold.started(1))
	srv.Close()
	hold.release()
	res := <-a
	if res.err != nil {
		t.Fatal(res.err)
	}
	var er errorResponse
	if err := json.Unmarshal(res.body, &er); err != nil {
		t.Fatalf("held request's reply is not JSON: %v: %q", err, res.body)
	}
	if res.code != http.StatusInternalServerError || !strings.Contains(er.Error, "engine is closed") {
		t.Errorf("held request: %d %q, want 500 naming the closed engine", res.code, er.Error)
	}
}

// TestServeCoalescesWhileBusy pins the run bound: of six requests from
// two tenants, exactly as many as the pool is wide (two) run at once
// while the others wait for a slot, each wait is observed in
// ps_serve_queue_wait_us, and every response reports batch_size 1 with
// results equal to a direct run.
func TestServeCoalescesWhileBusy(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	hold := holdRuns(t, srv, 0)
	const n = 6
	var replies []<-chan runResult
	for k := 0; k < n; k++ {
		replies = append(replies, goRun(ts, "t"+strconv.Itoa(k%2), "smooth", "Smooth", k))
	}
	waitFor(t, "two runs held and four waiting", func() bool {
		return hold.started(2)() && queuedTotal(srv) == n
	})
	waited := srv.metrics.queueWait.count.Load()
	hold.release()

	for k, c := range replies {
		if bs := checkRun(t, fmt.Sprintf("request %d", k), <-c, referenceJSON(t, "smooth", k)); bs != 1 {
			t.Errorf("request %d: batch_size %d, want 1", k, bs)
		}
	}
	if entered, most := hold.counts(); entered != n || most != 2 {
		t.Errorf("%d runs reached the hook, at most %d at once; want %d, at most 2", entered, most, n)
	}
	if got := srv.metrics.queueWait.count.Load(); got != n || got <= waited {
		t.Errorf("ps_serve_queue_wait_us_count = %d (%d while held), want %d", got, waited, n)
	}
}

// TestServeClientGone pins that a client which leaves while its request
// waits for a run slot costs no pool time: the request is counted as
// 499, never runs, and returns its tenant slot, and no goroutine is
// left once the held runs finish.
func TestServeClientGone(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	hold := holdRuns(t, srv, 0)
	base := runtime.NumGoroutine()
	a := goRun(ts, "", "smooth", "Smooth", 0)
	b := goRun(ts, "", "smooth", "Smooth", 1)
	waitFor(t, "both run slots to be held", hold.started(2))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run",
			bytes.NewReader(runBody("", "smooth", "Smooth", 2)))
		if err == nil {
			var resp *http.Response
			if resp, err = ts.Client().Do(req); err == nil {
				resp.Body.Close()
			}
		}
		gone <- err
	}()
	waitFor(t, "the third request to wait for a run slot", func() bool { return queuedTotal(srv) == 3 })
	cancel()
	if err := <-gone; err == nil {
		t.Fatal("the abandoned request was answered")
	}
	waitFor(t, "the abandoned request to return its tenant slot", func() bool { return queuedTotal(srv) == 2 })
	hold.release()
	checkRun(t, "A", <-a, referenceJSON(t, "smooth", 0))
	checkRun(t, "B", <-b, referenceJSON(t, "smooth", 1))

	if gave := counted(srv.metrics.requests, "499"); gave != 1 {
		t.Errorf(`ps_serve_requests_total{code="499"} = %d, want 1`, gave)
	}
	if got := srv.metrics.activations.Load(); got != 2 {
		t.Errorf("ps_serve_activations_total = %d, want 2 (the abandoned request must not run)", got)
	}
	if entered, _ := hold.counts(); entered != 2 {
		t.Errorf("%d runs reached the hook, want 2", entered)
	}
	if q := queuedTotal(srv); q != 0 {
		t.Errorf("tenant in-flight count %d after every request ended", q)
	}
	ts.Client().CloseIdleConnections()
	if n := settle(base); n > base {
		t.Errorf("%d goroutines after the requests ended, %d before", n, base)
	}
}

// settle waits up to two seconds for the goroutine count to fall back
// to base and returns the last count seen.
func settle(base int) int {
	n := runtime.NumGoroutine()
	for end := time.Now().Add(2 * time.Second); n > base && time.Now().Before(end); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestServeIdleDispatch pins that an idle server runs a request at once:
// no batching delay is added when there is nothing to coalesce. Nine
// back-to-back tiny activations must report a median wall_ms under 2 ms.
func TestServeIdleDispatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	postRun(t, ts, "", "smooth", "Smooth", 0) // compile and prepare
	walls := make([]float64, 9)
	for k := range walls {
		code, _, body := postRun(t, ts, "", "smooth", "Smooth", 0)
		var resp struct {
			WallMs float64 `json:"wall_ms"`
		}
		if err := json.Unmarshal(body, &resp); code != http.StatusOK || err != nil {
			t.Fatalf("run %d: %d (%v): %s", k, code, err, body)
		}
		walls[k] = resp.WallMs
	}
	slices.Sort(walls)
	if med := walls[len(walls)/2]; med >= 2 {
		t.Errorf("median wall_ms %.3f on an idle server, want < 2 (all: %v)", med, walls)
	}
}

// TestServeMetrics runs a little traffic and checks the exposition
// carries the acceptance counters: activations, batch-size histogram,
// queue depth, rejections and engine cache stats.
func TestServeMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, TenantRate: 0.001})
	for i := 0; i < 2; i++ {
		postRun(t, ts, "m"+strconv.Itoa(i), "smooth", "Smooth", i)
	}
	postRun(t, ts, "m0", "smooth", "Smooth", 0) // quota-rejected

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)

	metricValue := func(line string) (int64, bool) {
		for _, l := range strings.Split(text, "\n") {
			if strings.HasPrefix(l, line+" ") {
				v, err := strconv.ParseInt(strings.TrimPrefix(l, line+" "), 10, 64)
				return v, err == nil
			}
		}
		return 0, false
	}
	if v, ok := metricValue("ps_serve_activations_total"); !ok || v != 2 {
		t.Errorf("ps_serve_activations_total = %d (found %v)", v, ok)
	}
	if v, ok := metricValue("ps_serve_batch_size_count"); !ok || v < 1 {
		t.Errorf("ps_serve_batch_size_count = %d (found %v)", v, ok)
	}
	if v, ok := metricValue("ps_serve_queue_wait_us_count"); !ok || v != 2 {
		t.Errorf("ps_serve_queue_wait_us_count = %d (found %v), want one per batched request", v, ok)
	}
	if v, ok := metricValue(`ps_serve_rejected_total{reason="quota"}`); !ok || v != 1 {
		t.Errorf("quota rejection counter = %d (found %v)", v, ok)
	}
	if v, ok := metricValue(`ps_serve_requests_total{code="200"}`); !ok || v != 2 {
		t.Errorf("200 request counter = %d (found %v)", v, ok)
	}
	for _, series := range []string{
		`ps_serve_queue_depth{tenant="m0"}`,
		"ps_run_eq_instances_total",
		"ps_run_doall_chunks_total",
		"ps_engine_cache_misses_total",
		"ps_engine_cache_programs",
		`ps_serve_batch_size_bucket{le="+Inf"}`,
		`ps_serve_queue_wait_us_bucket{le="+Inf"}`,
		"ps_serve_queue_wait_us_sum",
	} {
		if _, ok := metricValue(series); !ok {
			t.Errorf("metrics missing series %s", series)
		}
	}
}

// TestServeReloadExplain pins the directory lifecycle: LoadDir serves
// *.ps files by base name, /reload picks up edits (content-hash makes
// unchanged files free) and drops deleted programs, /explain prints the
// lowered plan.
func TestServeReloadExplain(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("smooth.ps", repro.Source("smooth"))
	write("gauss_seidel.ps", repro.Source("gauss_seidel"))

	srv, err := New(Config{Workers: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	if got := srv.Programs(); len(got) != 2 {
		t.Fatalf("programs after LoadDir: %v", got)
	}
	if code, _, body := postRun(t, ts, "", "smooth", "Smooth", 0); code != http.StatusOK {
		t.Fatalf("run from loaded dir: %d: %s", code, body)
	}

	// Unchanged reload is a no-op; an edit counts as changed and a
	// deleted file drops its program.
	reload := func() map[string]int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("reload: %d: %s", resp.StatusCode, body)
		}
		var out map[string]int
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if out := reload(); out["changed"] != 0 || out["programs"] != 2 {
		t.Errorf("no-op reload: %v", out)
	}
	write("smooth.ps", repro.Source("smooth")+"\n(* edited *)\n")
	if out := reload(); out["changed"] != 1 {
		t.Errorf("edit reload: %v", out)
	}
	if code, _, body := postRun(t, ts, "", "smooth", "Smooth", 0); code != http.StatusOK {
		t.Fatalf("run after edit reload: %d: %s", code, body)
	}
	if err := os.Remove(filepath.Join(dir, "gauss_seidel.ps")); err != nil {
		t.Fatal(err)
	}
	if out := reload(); out["programs"] != 1 {
		t.Errorf("delete reload: %v", out)
	}
	if code, _, _ := postRun(t, ts, "", "gauss_seidel", "Relaxation", 0); code != http.StatusNotFound {
		t.Errorf("deleted program still served: %d", code)
	}

	// Explain renders the plan of a served module.
	resp, err := ts.Client().Get(ts.URL + "/explain?program=smooth&module=Smooth")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(strings.ToLower(string(data)), "doall") {
		t.Errorf("explain: %d: %s", resp.StatusCode, data)
	}
	if resp, err := ts.Client().Get(ts.URL + "/explain?program=nope&module=Nope"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("explain of unknown program: %d", resp.StatusCode)
		}
	}
}

// TestServeBadRequests pins the 4xx surface.
func TestServeBadRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	if err := srv.AddProgram("flags", `
Flags: module (N: int; Fs: array[I] of bool): [Gs: array[I] of bool];
type I = 1 .. N;
define
    Gs[I] = Fs[I];
end Flags;
`); err != nil {
		t.Fatal(err)
	}
	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{`, http.StatusBadRequest},
		{"missing fields", `{"inputs":{}}`, http.StatusBadRequest},
		{"unknown program", `{"program":"nope","module":"Nope","inputs":{}}`, http.StatusNotFound},
		{"unknown module", `{"program":"smooth","module":"Nope","inputs":{}}`, http.StatusNotFound},
		{"missing inputs", `{"program":"smooth","module":"Smooth","inputs":{}}`, http.StatusBadRequest},
		{"undeclared input", `{"program":"smooth","module":"Smooth","inputs":{"Xs":[0,1,2],"N":1,"Bogus":1}}`, http.StatusBadRequest},
		{"bad input type", `{"program":"smooth","module":"Smooth","inputs":{"Xs":"zap","N":2}}`, http.StatusBadRequest},
		{"number in a bool array", `{"program":"flags","module":"Flags","inputs":{"N":2,"Fs":[1,0]}}`, http.StatusBadRequest},
		{"bound beyond the input", `{"program":"smooth","module":"Smooth","inputs":{"Xs":[0,1],"N":1000000000000}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, body := post(c.body); code != c.want {
			t.Errorf("%s: status %d (want %d): %s", c.name, code, c.want, body)
		}
	}
	// Reload without a configured directory is a 400.
	resp, err := ts.Client().Post(ts.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("dirless reload: %d", resp.StatusCode)
	}
	// Healthz is fine on a healthy server.
	if resp, err := ts.Client().Get(ts.URL + "/healthz"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz: %d", resp.StatusCode)
		}
	}
}

// TestBatcherRoundRobin pins per-tenant isolation. Run slots are taken
// in arrival order, so the QueueDepth bound is what keeps one tenant
// from holding the server: a tenant at its bound is refused with 429
// while another tenant is admitted and answered.
func TestBatcherRoundRobin(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 1})
	hold := holdRuns(t, srv, 1)
	a := goRun(ts, "a", "smooth", "Smooth", 0)
	waitFor(t, "a's run to start", hold.started(1))

	code, _, body := postRun(t, ts, "a", "smooth", "Smooth", 1)
	if code != http.StatusTooManyRequests || !strings.Contains(string(body), "queue is full") {
		t.Errorf("tenant a over its bound: %d: %s", code, body)
	}
	code, _, body = postRun(t, ts, "b", "smooth", "Smooth", 2)
	checkRun(t, "tenant b", runResult{code: code, body: body}, referenceJSON(t, "smooth", 2))

	hold.release()
	checkRun(t, "tenant a", <-a, referenceJSON(t, "smooth", 0))
	if got := counted(srv.metrics.rejected, "queue_full"); got != 1 {
		t.Errorf("queue_full rejections = %d, want 1", got)
	}
}

// TestTenantTokenBucket pins the quota arithmetic with synthetic time.
func TestTenantTokenBucket(t *testing.T) {
	tn := &tenant{name: "x"}
	t0 := time.Unix(1000, 0)
	// First touch fills to burst.
	for i := 0; i < 2; i++ {
		if ok, _ := tn.takeToken(1, 2, t0); !ok {
			t.Fatalf("token %d denied at burst 2", i)
		}
	}
	ok, retry := tn.takeToken(1, 2, t0)
	if ok || retry != time.Second {
		t.Fatalf("empty bucket: ok=%v retry=%v", ok, retry)
	}
	// Half a second refills half a token, but the client rejected above
	// is ahead in line: the hint covers its token plus the caller's.
	ok, retry = tn.takeToken(1, 2, t0.Add(500*time.Millisecond))
	if ok || retry != 1500*time.Millisecond {
		t.Fatalf("half refill behind one rejection: ok=%v retry=%v", ok, retry)
	}
	if ok, _ := tn.takeToken(1, 2, t0.Add(3*time.Second)); !ok {
		t.Fatal("full refill denied")
	}
	// rate <= 0 disables the quota entirely.
	if ok, _ := tn.takeToken(0, 0, t0); !ok {
		t.Fatal("unlimited tenant denied")
	}
}

// TestTenantRetryAfterBacklog pins the contention-aware Retry-After:
// every rejection since the last admission adds one token of deficit,
// so concurrent clients hammering a drained bucket are spread out
// across successive refill intervals instead of all being told the
// same sub-second hint (which stampedes them back at once). Admission
// clears the backlog.
func TestTenantRetryAfterBacklog(t *testing.T) {
	tn := &tenant{name: "x"}
	t0 := time.Unix(1000, 0)
	if ok, _ := tn.takeToken(1, 1, t0); !ok {
		t.Fatal("burst token denied")
	}
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		ok, retry := tn.takeToken(1, 1, t0)
		if ok || retry != want {
			t.Fatalf("rejection %d: ok=%v retry=%v, want %v", i+1, ok, retry, want)
		}
	}
	// A successful take resets the backlog: the next rejection quotes a
	// single token again.
	if ok, _ := tn.takeToken(1, 1, t0.Add(time.Second)); !ok {
		t.Fatal("refilled token denied")
	}
	ok, retry := tn.takeToken(1, 1, t0.Add(time.Second))
	if ok || retry != time.Second {
		t.Fatalf("post-admission rejection: ok=%v retry=%v, want 1s", ok, retry)
	}
}
