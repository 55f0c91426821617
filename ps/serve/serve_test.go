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
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/psrc"
	"repro/ps"
)

// corpus served by the stress test: a pure DOALL and a hyperplane
// wavefront, so batches cross both schedule shapes.
var testPrograms = map[string]struct {
	src    string
	module string
}{
	"smooth":       {psrc.Smooth, "Smooth"},
	"gauss_seidel": {psrc.RelaxationGS, "Relaxation"},
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
	prog, err := ps.CompileProgram(progName+".ps", tp.src)
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

// postRun issues one /v1/run and returns status, headers and body.
func postRun(t *testing.T, ts *httptest.Server, tenant, prog, module string, i int) (int, http.Header, []byte) {
	t.Helper()
	payload := map[string]any{"program": prog, "module": module, "inputs": testInputs(prog, i)}
	if tenant != "" {
		payload["tenant"] = tenant
	}
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// rawResponse decodes just enough of a /v1/run reply to compare the
// results field byte-for-byte against the reference encoding.
type rawResponse struct {
	Results   json.RawMessage `json:"results"`
	BatchSize int             `json:"batch_size"`
}

// TestServeBatchParityStress is the acceptance stress: several tenants
// hammer two programs concurrently, responses are coalesced into fused
// batches, and every response must equal — bitwise, via the canonical
// JSON encoding — a direct sequential Runner.Run of the same
// activation. Run with -race.
func TestServeBatchParityStress(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Workers:     4,
		BatchWindow: 500 * time.Microsecond,
		MaxBatch:    16,
		QueueDepth:  1024,
	})

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
				code, _, body := postRun(t, ts, tenant, prog, testPrograms[prog].module, i)
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
				if rr.BatchSize < 1 {
					errc <- fmt.Errorf("%s/%d: batch_size %d", prog, i, rr.BatchSize)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The stress must have produced real batching state: every request
	// accounted, queue drained back to zero.
	if got := srv.metrics.activations.Load(); got != goroutines*runsEach {
		t.Errorf("activations counter = %d, want %d", got, goroutines*runsEach)
	}
	if srv.metrics.batches.Load() < 1 {
		t.Error("no batches dispatched")
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
// the bucket's actual refill rate — and far above the momentary
// batch-window hint a full queue quotes — instead of a constant ~1s
// that would stampede every backed-off client at once.
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
	// The drained-bucket wait dwarfs a queue-full hint, which quotes at
	// most the batch window (whole seconds, minimum 1).
	if queueHint := retrySeconds(time.Second); prev <= queueHint {
		t.Errorf("drained-bucket Retry-After %d not above queue-full hint %d", prev, queueHint)
	}
}

// TestServeQueueFull pins backpressure: with a queue depth of 1 and a
// long batch window, a second concurrent request is rejected with 429
// while the first is still waiting for its batch.
func TestServeQueueFull(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Workers:     2,
		BatchWindow: 400 * time.Millisecond,
		QueueDepth:  1,
	})
	type result struct {
		code int
		body []byte
	}
	first := make(chan result, 1)
	go func() {
		code, _, body := postRun(t, ts, "", "smooth", "Smooth", 0)
		first <- result{code, body}
	}()
	// Wait until the first request holds the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for srv.tenantFor("default").queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	code, hdr, body := postRun(t, ts, "", "smooth", "Smooth", 1)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-depth request: %d: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("queue-full rejection missing Retry-After")
	}
	if !strings.Contains(string(body), "queue is full") {
		t.Errorf("queue-full body: %s", body)
	}
	if r := <-first; r.code != http.StatusOK {
		t.Fatalf("queued request: %d: %s", r.code, r.body)
	}
}

// TestServeDrain pins graceful shutdown: a request waiting in a batch
// window completes when Drain flushes it, and the drained server
// answers 503 (run) / 503 (healthz) afterwards.
func TestServeDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Workers:     2,
		BatchWindow: 10 * time.Second, // only drain can flush this
	})
	want := referenceJSON(t, "smooth", 0)
	type result struct {
		code int
		body []byte
	}
	first := make(chan result, 1)
	go func() {
		code, _, body := postRun(t, ts, "", "smooth", "Smooth", 0)
		first <- result{code, body}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.tenantFor("default").queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	r := <-first
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: %d: %s", r.code, r.body)
	}
	var rr rawResponse
	if err := json.Unmarshal(r.body, &rr); err != nil {
		t.Fatal(err)
	}
	if string(rr.Results) != want {
		t.Errorf("drained request results differ:\n got %s\nwant %s", rr.Results, want)
	}

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
	write("smooth.ps", psrc.Smooth)
	write("gauss_seidel.ps", psrc.RelaxationGS)

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
	write("smooth.ps", psrc.Smooth+"\n(* edited *)\n")
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

// TestBatcherRoundRobin pins drain fairness at the unit level: one
// request per tenant per ring pass, so a deep backlog from one tenant
// cannot fill the whole batch.
func TestBatcherRoundRobin(t *testing.T) {
	b := &batcher{
		queues:  make(map[string][]*pending),
		wake:    make(chan struct{}, 1),
		stopped: make(chan struct{}),
	}
	tn := func(name string) *tenant { return &tenant{name: name} }
	a, c, d := tn("a"), tn("c"), tn("d")
	for _, p := range []*pending{
		{tenant: a}, {tenant: a}, {tenant: a}, {tenant: a},
		{tenant: c}, {tenant: c},
		{tenant: d},
	} {
		p.tenant.queued.Add(1)
		if !b.enqueue(p) {
			t.Fatal("enqueue failed")
		}
	}
	b.mu.Lock()
	got := b.takeLocked(5)
	b.mu.Unlock()
	var order []string
	for _, p := range got {
		order = append(order, p.tenant.name)
	}
	// Pass 1 takes one from each of a, c, d; pass 2 wraps back to a, c.
	want := []string{"a", "c", "d", "a", "c"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("drain order %v, want %v", order, want)
	}
	b.mu.Lock()
	rest := b.takeLocked(0) // 0 = take everything
	b.mu.Unlock()
	if len(rest) != 2 || b.total != 0 {
		t.Errorf("second drain took %d, total %d", len(rest), b.total)
	}
	for _, x := range []*tenant{a, c, d} {
		if q := x.queued.Load(); q != 0 {
			t.Errorf("tenant %s queued %d after full drain", x.name, q)
		}
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
