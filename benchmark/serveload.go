package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/ps"
	"repro/ps/serve"
)

const (
	// serveRate is the fixed arrival rate of the open loop, requests/s.
	serveRate = 100
	// serveLimit is the latency limit: an answer later than this after
	// the request was due counts as a failed op. A server that cannot
	// keep up passes it within a round; the limit is no tighter because
	// on a shared 2-CPU host an idle server already answers a few
	// requests per hour 80 to 200 ms late, and a limit the host alone
	// can break would make failures a property of the host.
	serveLimit = time.Second
	// smoothShare of the requests run Smooth, the rest gauss_seidel.
	smoothShare = 0.7
)

// serveInst is one round of serve_open: a server with every Config
// field but Workers at its default, behind httptest, and a client with
// K keep-alive connections. An op is one POST /v1/run round trip.
type serveInst struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	acts   []*activation // the set is two programs: Smooth, then the wavefront
	// bodies[kind][tenant] is a ready request; the generator encodes
	// nothing while it measures.
	bodies [2][2][]byte
	rng    *rand.Rand
	// base is the /metrics scrape taken after the warm-up; the round's
	// server counters are later scrapes minus this one.
	base map[string]float64
}

func setupServe(r *run) (instance, error) {
	srv, err := serve.New(serve.Config{Workers: r.cfg.workers})
	if err != nil {
		return nil, err
	}
	in := &serveInst{srv: srv, rng: seededRand(r.cfg.seed)}
	in.acts = newActivations(in.rng, r.w.set)
	for kind, a := range in.acts {
		if err := srv.AddProgram(a.prog.name, a.src); err != nil {
			srv.Close()
			return nil, err
		}
		for tenant := range in.bodies[kind] {
			in.bodies[kind][tenant], err = json.Marshal(map[string]any{
				"program": a.prog.name, "module": a.prog.module,
				"tenant": "tenant" + strconv.Itoa(tenant), "inputs": a.inputsJSON(),
			})
			if err != nil {
				srv.Close()
				return nil, err
			}
		}
	}
	in.ts = httptest.NewServer(srv.Handler())
	in.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: r.cfg.conns, MaxConnsPerHost: r.cfg.conns}}
	var buf bytes.Buffer
	for k := 0; k < r.w.warm; k++ {
		err := in.request(k%2, k%2, &buf)
		r.checked(err)
	}
	if in.base, err = in.scrape(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *serveInst) close() {
	in.client.CloseIdleConnections()
	in.ts.Close()
	in.srv.Close()
}

// post does one round trip and returns when the body has been read; the
// caller stops its clock, then calls check.
func (in *serveInst) post(kind, tenant int, buf *bytes.Buffer) error {
	resp, err := in.client.Post(in.ts.URL+"/v1/run", "application/json", bytes.NewReader(in.bodies[kind][tenant]))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// check decodes a response and compares its results with the reference.
func (in *serveInst) check(kind int, body []byte) error {
	var resp struct {
		Results map[string]json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	return in.acts[kind].checkJSON(resp.Results)
}

// request is one untimed, checked round trip.
func (in *serveInst) request(kind, tenant int, buf *bytes.Buffer) error {
	err := in.post(kind, tenant, buf)
	if err == nil {
		err = in.check(kind, buf.Bytes())
	}
	return err
}

// arrivals is a Poisson process at serveRate conditioned on its count:
// n = rate × d arrival times, independent and uniform over d, sorted.
// Fixing the count keeps the offered load identical for every seed. The
// kinds are an exact smoothShare split in seeded order.
func arrivals(rng *rand.Rand, d time.Duration) (due []time.Duration, kinds []int) {
	n := int(serveRate * d.Seconds())
	due = make([]time.Duration, n)
	kinds = make([]int, n)
	for k := range due {
		due[k] = time.Duration(rng.Int63n(int64(d)))
		if float64(k) >= smoothShare*float64(n) {
			kinds[k] = 1
		}
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
	rng.Shuffle(n, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	return due, kinds
}

// measure is the open loop: a dispatcher releases each request at its
// due time whatever the server is doing, K connection goroutines send
// them, and every op is timed from the instant it was due.
func (in *serveInst) measure(r *run, s *samples, d time.Duration, tr *tracer) {
	due, kinds := arrivals(in.rng, d)
	if len(due) == 0 {
		return
	}
	type done struct {
		op, http, lag, decode time.Duration
		err                   error
	}
	outcomes := make([]done, len(due))
	released := make([]time.Duration, len(due)) // when the dispatcher let each request go
	firstOp := r.nextOp
	r.nextOp += len(due)
	work := make(chan int, len(due)) // holds every request, so the dispatcher never waits for a connection
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < r.cfg.conns; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for k := range work {
				root := tr.root("op", firstOp+k+1, lane)
				sent := time.Since(start)
				sp := tr.child("serve.http", root)
				err := in.post(kinds[k], k%2, &buf)
				tr.end(sp)
				end := time.Since(start)
				sp = tr.child("harness.client_json", root)
				if err == nil {
					err = in.check(kinds[k], buf.Bytes())
				}
				tr.end(sp)
				o := done{op: end - due[k], http: end - sent, lag: released[k] - due[k], decode: time.Since(start) - end, err: err}
				if err == nil && o.op > serveLimit {
					o.err = fmt.Errorf("answer %v after it was due, limit %v", o.op, serveLimit)
				}
				outcomes[k] = o
				tr.end(root)
			}
		}()
	}
	for k, at := range due {
		time.Sleep(at - time.Since(start))
		released[k] = time.Since(start)
		work <- k
	}
	close(work)
	wg.Wait()
	// The round lasts d even when the last answer arrives sooner, so
	// ops_per_s equals the offered rate unless the server falls behind.
	s.wall += max(time.Since(start), d)

	for _, o := range outcomes {
		r.checked(o.err)
		if o.err != nil {
			continue // a failed op completes nothing: it lowers ops_per_s
		}
		s.opMs = append(s.opMs, ms(o.op))
		s.put("http_ms", ms(o.http))
		s.put("lag_ms", ms(o.lag))
		s.put("client_json_us", us(o.decode))
	}
}

// layers reads the server's counters for the open-loop phases just
// measured, then runs a closed loop for capacity (K callers back to
// back, no think time) and the same mix without the serving shell.
func (in *serveInst) layers(r *run, d time.Duration, tr *tracer) {
	open, err := in.scrape()
	if err != nil {
		r.attempt(err)
		return
	}
	s := r.samples("server")
	for name, v := range open {
		s.put(name, v-in.base[name])
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	completed := 0
	start := time.Now()
	for lane := 0; lane < r.cfg.conns; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for n := lane; time.Since(start) < d/2; n++ {
				err := in.request(n%2, lane%2, &buf)
				mu.Lock()
				r.checked(err)
				if err == nil {
					completed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.samples("closed").put("rps", float64(completed)/time.Since(start).Seconds())

	in.probeDirect(r, tr, d/2)
}

// scrape reads the server's Prometheus counters.
func (in *serveInst) scrape() (map[string]float64, error) {
	resp, err := in.client.Get(in.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// probeDirect runs the same request mix on a prepared Runner, without
// the serving shell, and times the JSON conversions of one Smooth
// request on their own.
func (in *serveInst) probeDirect(r *run, tr *tracer, d time.Duration) {
	ctx := context.Background()
	eng := ps.NewEngine(ps.EngineWorkers(r.cfg.workers))
	defer eng.Close()
	var progs [2]*ps.Program
	var runs [2]*ps.Runner
	var args [2][]any
	for kind, a := range in.acts {
		var err error
		if progs[kind], err = eng.Compile(a.prog.name+".ps", a.src); err == nil {
			runs[kind], err = progs[kind].Prepare(a.prog.module)
		}
		if err != nil {
			r.attempt(err)
			return
		}
		args[kind] = a.args()
	}
	_, kinds := arrivals(in.rng, d)
	s := r.samples("direct")
	smooth, inputs := in.acts[0], in.acts[0].inputsJSON()
	for _, kind := range kinds {
		root := tr.root("probe.direct", r.op(), 0)
		sp := tr.child("interp.run."+in.acts[kind].prog.name, root)
		t0 := time.Now()
		results, _, err := runs[kind].Run(ctx, args[kind])
		s.put("run_ms", ms(time.Since(t0)))
		tr.end(sp)
		if err == nil {
			err = in.acts[kind].checkArrays(results)
		}
		if err == nil && kind == 0 {
			sp = tr.child("ps.args_from_json.smooth", root)
			t0 = time.Now()
			_, err = ps.ArgsFromJSON(progs[0], smooth.prog.module, inputs)
			s.put("args_from_json_us", us(time.Since(t0)))
			tr.end(sp)
			if err == nil {
				sp = tr.child("ps.results_to_json.smooth", root)
				t0 = time.Now()
				var obj map[string]any
				if obj, err = ps.ResultsToJSON(progs[0], smooth.prog.module, results); err == nil {
					_, err = json.Marshal(obj)
				}
				s.put("results_to_json_us", us(time.Since(t0)))
				tr.end(sp)
			}
		}
		tr.end(root)
		r.checked(err)
	}
}

func finishServe(r *run, _ *tracer) {
	un, server, direct := r.samples("untraced"), r.samples("server"), r.samples("direct")
	// The traced pass only adds client-side spans, so the tails pool
	// both passes: a p99 needs a thousand samples.
	traced := r.samples("traced")
	http := sorted(append(un.series["http_ms"], traced.series["http_ms"]...))
	r.layer["serve.http_ms_p90"] = tail(http, 0.90)
	r.layer["serve.http_ms_p99"] = tail(http, 0.99)
	r.layer["harness.send_lag_ms_p99"] = tail(sorted(append(un.series["lag_ms"], traced.series["lag_ms"]...)), 0.99)
	r.layer["harness.client_json_us"] = median(un.series["client_json_us"])
	r.layer["serve.closed_loop_rps"] = median(r.samples("closed").series["rps"])
	r.layer["serve.overhead_ms"] = median(un.opMs) - median(direct.series["run_ms"])
	r.layer["ps.args_from_json_us.smooth"] = median(direct.series["args_from_json_us"])
	r.layer["ps.results_to_json_us.smooth"] = median(direct.series["results_to_json_us"])

	// Each round's sample covers its open-loop phases, traced and not.
	sum := func(name string) float64 {
		var total float64
		for _, v := range server.series[name] {
			total += v
		}
		return total
	}
	r.layer["serve.server_ms_mean"] = ratio(sum(`ps_serve_http_latency_us_sum{endpoint="run"}`), sum(`ps_serve_http_latency_us_count{endpoint="run"}`)) / 1e3
	r.layer["serve.execute_ms_per_batch"] = ratio(sum("ps_run_wall_us_sum"), sum("ps_run_wall_us_count")) / 1e3
	r.layer["serve.mean_batch"] = ratio(sum("ps_serve_batch_size_sum"), sum("ps_serve_batch_size_count"))
	r.layer["serve.run_errors"] = sum("ps_serve_run_errors_total")
	for name := range server.series {
		if strings.HasPrefix(name, "ps_serve_rejected_total{") {
			r.layer["serve.rejected"] += sum(name)
		}
	}
	// The server's own RunStats totals, per served activation.
	acts := sum("ps_serve_activations_total")
	eq := sum("ps_run_eq_instances_total")
	r.layer["interp.eq_instances_per_op"] = ratio(eq, acts)
	r.layer["interp.doall_chunks_per_op"] = ratio(sum("ps_run_doall_chunks_total"), acts)
	r.layer["interp.specialized_ratio"] = ratio(sum("ps_run_specialized_total"), eq)
	r.layer["sched.planes_per_op"] = ratio(sum("ps_run_wavefront_planes_total"), acts)
	r.layer["sched.tiles_per_op"] = ratio(sum("ps_run_doacross_tiles_total"), acts)
	r.layer["sched.doacross_stalls_per_op"] = ratio(sum("ps_run_doacross_stalls_total"), acts)
	r.layer["pipe.stages_per_op"] = ratio(sum("ps_run_pipeline_stages_total"), acts)
	r.layer["pipe.stage_stalls_per_op"] = ratio(sum("ps_run_stage_stalls_total"), acts)
	r.layer["value.arena_reuses_per_op"] = ratio(sum("ps_run_arena_reuses_total"), acts)
}
