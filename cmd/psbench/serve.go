package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/psrc"
	"repro/ps/serve"
)

// serveLevel is one measured concurrency level of the serving layer.
type serveLevel struct {
	Concurrency int     `json:"concurrency"`
	Requests    int64   `json:"requests"`
	ReqPerSec   float64 `json:"req_per_sec"`
	MeanBatch   float64 `json:"mean_batch"`
}

// serveFile is the JSON document the -serve mode writes.
type serveFile struct {
	Workers  int          `json:"workers"`
	NumCPU   int          `json:"num_cpu"`
	Duration string       `json:"duration"`
	Module   string       `json:"module"`
	N        int64        `json:"n"`
	Levels   []serveLevel `json:"levels"`
}

// serveResponse is the slice of the /v1/run reply the bench reads.
type serveResponse struct {
	BatchSize int `json:"batch_size"`
}

// runServeBench measures end-to-end requests/s through the HTTP
// serving layer at client concurrencies 1, 8 and 64. Each request is
// one activation; at most the pool width of them run at once, so the
// levels trace how the serving path holds up from one client to many
// more clients than run slots. mean_batch reads the responses'
// batch_size, which is always 1.
func runServeBench(out string, workers int, per time.Duration) error {
	const n = 2048
	srv, err := serve.New(serve.Config{
		Workers:    workers,
		CacheLimit: 64 << 20,
		QueueDepth: 4096,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := srv.AddProgram("smooth", psrc.Smooth); err != nil {
		return err
	}

	xs := make([]float64, n+2)
	for i := range xs {
		xs[i] = float64((i*31)%17) / 17.0
	}
	body, err := json.Marshal(map[string]any{
		"program": "smooth",
		"module":  "Smooth",
		"inputs":  map[string]any{"Xs": xs, "N": n},
	})
	if err != nil {
		return err
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 128

	post := func() (int, error) {
		resp, err := client.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return 0, fmt.Errorf("POST /v1/run: %s: %s", resp.Status, msg)
		}
		var sr serveResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			return 0, err
		}
		return sr.BatchSize, nil
	}
	// Warm: compile, prepare, pool spin-up.
	if _, err := post(); err != nil {
		return err
	}

	doc := serveFile{Workers: workers, NumCPU: runtime.NumCPU(), Duration: per.String(), Module: "Smooth", N: n}
	for _, conc := range []int{1, 8, 64} {
		var (
			requests  atomic.Int64
			batchSum  atomic.Int64
			errMu     sync.Mutex
			firstErr  error
			wg        sync.WaitGroup
			deadline  = time.Now().Add(per)
			stopped   atomic.Bool
			startGate = make(chan struct{})
		)
		for c := 0; c < conc; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-startGate
				for !stopped.Load() && time.Now().Before(deadline) {
					bs, err := post()
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						stopped.Store(true)
						return
					}
					requests.Add(1)
					batchSum.Add(int64(bs))
				}
			}()
		}
		start := time.Now()
		close(startGate)
		wg.Wait()
		elapsed := time.Since(start)
		if firstErr != nil {
			return firstErr
		}
		reqs := requests.Load()
		lvl := serveLevel{Concurrency: conc, Requests: reqs}
		if elapsed > 0 {
			lvl.ReqPerSec = float64(reqs) / elapsed.Seconds()
		}
		if reqs > 0 {
			lvl.MeanBatch = float64(batchSum.Load()) / float64(reqs)
		}
		doc.Levels = append(doc.Levels, lvl)
		fmt.Fprintf(os.Stderr, "psbench: serve conc=%-3d %10.1f req/s (mean batch %.1f, n=%d)\n",
			conc, lvl.ReqPerSec, lvl.MeanBatch, reqs)
	}

	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		os.Stdout.Write(data)
		return nil
	}
	return os.WriteFile(out, data, 0o644)
}
