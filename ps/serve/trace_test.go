package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// syncBuffer lets the access-log tests read what concurrent handlers
// wrote without racing the logger.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// postTraced issues one /v1/run?trace=1 with an explicit request ID.
func postTraced(t *testing.T, ts *httptest.Server, reqID, prog, module string, i int) (int, http.Header, []byte) {
	t.Helper()
	payload := map[string]any{"program": prog, "module": module, "inputs": testInputs(prog, i)}
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run?trace=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-PS-Request-ID", reqID)
	}
	resp, err := ts.Client().Do(req)
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

// TestServeRequestID pins the correlation contract: a client-supplied
// X-PS-Request-ID is echoed back verbatim; an absent one is generated
// and still echoed.
func TestServeRequestID(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-PS-Request-ID", "client-abc-123")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-PS-Request-ID"); got != "client-abc-123" {
		t.Errorf("propagated request ID = %q, want client-abc-123", got)
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-PS-Request-ID"); got == "" {
		t.Error("no request ID generated for a bare request")
	}
}

// tracedResponse decodes the trace-specific fields of a ?trace=1 reply.
type tracedResponse struct {
	Results   json.RawMessage `json:"results"`
	BatchSize int             `json:"batch_size"`
	TraceID   string          `json:"trace_id"`
	Timing    *struct {
		Workers   int   `json:"Workers"`
		WallNs    int64 `json:"WallNs"`
		ComputeNs int64 `json:"ComputeNs"`
	} `json:"timing"`
}

// TestServeTraceRun exercises the full traced-request flow: ?trace=1
// bypasses the batcher, the response carries the trace handle and the
// timing breakdown, results stay bitwise-identical to a direct run,
// and GET /v1/trace exports a valid Chrome timeline under the same ID.
func TestServeTraceRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, EnableTrace: true})

	const reqID = "trace-req-7"
	code, hdr, body := postTraced(t, ts, reqID, "gauss_seidel", "Relaxation", 0)
	if code != http.StatusOK {
		t.Fatalf("traced run: status %d: %s", code, body)
	}
	if got := hdr.Get("X-PS-Request-ID"); got != reqID {
		t.Errorf("request ID on traced response = %q", got)
	}
	var tr tracedResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != reqID {
		t.Errorf("trace_id = %q, want %q", tr.TraceID, reqID)
	}
	if tr.BatchSize != 1 {
		t.Errorf("batch_size = %d, want 1 (traced runs are never batched)", tr.BatchSize)
	}
	if tr.Timing == nil {
		t.Fatal("traced response has no timing breakdown")
	}
	if tr.Timing.ComputeNs <= 0 || tr.Timing.WallNs <= 0 {
		t.Errorf("degenerate breakdown: compute=%d wall=%d", tr.Timing.ComputeNs, tr.Timing.WallNs)
	}
	if want := referenceJSON(t, "gauss_seidel", 0); string(tr.Results) != want {
		t.Errorf("traced results diverge from direct run:\n got %s\nwant %s", tr.Results, want)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/trace?id=" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace export: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("trace export content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &chrome); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	spans := 0
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Error("exported trace has no spans")
	}

	if resp, err := ts.Client().Get(ts.URL + "/v1/trace?id=no-such-trace"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown trace ID: status %d, want 404", resp.StatusCode)
		}
	}
	if resp, err := ts.Client().Get(ts.URL + "/v1/trace"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("missing trace ID: status %d, want 400", resp.StatusCode)
		}
	}
}

// TestServeTraceDisabled: without EnableTrace, ?trace=1 is ignored and
// the request takes the normal batched path with no trace handle.
func TestServeTraceDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, _, body := postTraced(t, ts, "untraced-1", "smooth", "Smooth", 0)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var tr tracedResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != "" {
		t.Errorf("trace_id = %q on a server without -trace", tr.TraceID)
	}
	if tr.Timing != nil {
		t.Error("timing breakdown present on an untraced run")
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/trace?id=untraced-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace export without tracing: status %d, want 404", resp.StatusCode)
	}
}

// TestServeAccessLog checks the structured access log: one JSON object
// per request with the correlation ID, route, status and latency.
func TestServeAccessLog(t *testing.T) {
	logbuf := &syncBuffer{}
	_, ts := newTestServer(t, Config{Workers: 2, AccessLog: logbuf})

	postRun(t, ts, "t0", "smooth", "Smooth", 0)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-PS-Request-ID", "log-check-9")
	if resp, err := ts.Client().Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	lines := strings.Split(strings.TrimSpace(logbuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2: %q", len(lines), logbuf.String())
	}
	type entry struct {
		Time      string  `json:"time"`
		RequestID string  `json:"request_id"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		Bytes     int64   `json:"bytes"`
		DurMs     float64 `json:"dur_ms"`
	}
	var run, health entry
	if err := json.Unmarshal([]byte(lines[0]), &run); err != nil {
		t.Fatalf("access line is not JSON: %v: %s", err, lines[0])
	}
	if err := json.Unmarshal([]byte(lines[1]), &health); err != nil {
		t.Fatalf("access line is not JSON: %v: %s", err, lines[1])
	}
	if run.Method != "POST" || run.Path != "/v1/run" || run.Status != 200 {
		t.Errorf("run entry = %+v", run)
	}
	if run.RequestID == "" || run.Time == "" || run.Bytes <= 0 || run.DurMs < 0 {
		t.Errorf("run entry missing fields: %+v", run)
	}
	if health.Path != "/healthz" || health.RequestID != "log-check-9" {
		t.Errorf("health entry = %+v", health)
	}
}

// TestServeObsMetrics pins the observability series added alongside
// tracing: execution counters fed from RunStats, the per-endpoint HTTP
// latency histogram, the run wall-time histogram, and the traced-run
// counter.
func TestServeObsMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, EnableTrace: true})
	postRun(t, ts, "t0", "gauss_seidel", "Relaxation", 0)
	if code, _, body := postTraced(t, ts, "m-trace", "smooth", "Smooth", 1); code != http.StatusOK {
		t.Fatalf("traced run: status %d: %s", code, body)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)

	for _, series := range []string{
		"ps_run_doacross_tiles_total ",
		"ps_run_specialized_total ",
		"ps_run_arena_reuses_total ",
		"ps_run_wall_us_count ",
		`ps_serve_http_latency_us_bucket{endpoint="run",le="+Inf"}`,
		`ps_serve_http_latency_us_count{endpoint="run"}`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing series %s", series)
		}
	}
	for _, gone := range []string{"ps_run_pipeline_stages_total", "ps_run_stage_stalls_total"} {
		if strings.Contains(text, gone) {
			t.Errorf("metrics still export %s", gone)
		}
	}
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "ps_serve_traced_runs_total ") {
			if !strings.HasSuffix(l, " 1") {
				t.Errorf("ps_serve_traced_runs_total = %q, want 1", l)
			}
			return
		}
	}
	t.Error("metrics missing ps_serve_traced_runs_total")
}

// TestEndpointLabel pins route normalization for latency-metric
// cardinality.
func TestEndpointLabel(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/run":    "run",
		"/v1/trace":  "trace",
		"/v1/future": "v1_other",
		"/metrics":   "metrics",
		"/healthz":   "healthz",
		"/explain":   "explain",
		"/reload":    "reload",
		"/favicon":   "other",
	} {
		if got := endpointLabel(path); got != want {
			t.Errorf("endpointLabel(%q) = %q, want %q", path, got, want)
		}
	}
}
