// Command psserve runs the multi-tenant HTTP serving layer (package
// ps/serve) over a directory of PS programs.
//
// Usage:
//
//	psserve -programs ./testdata -addr :8080
//
// Every *.ps file in the program directory is compiled and served
// under its base name. POST /v1/run executes one module activation on
// the engine's shared pool; at most -workers activations run at once
// and the rest wait for a run slot in arrival order. GET /metrics
// exposes Prometheus counters, GET /explain?program=&module= prints a
// lowered plan, GET /healthz reports liveness, and POST /reload
// re-reads the program directory. SIGINT/SIGTERM drain gracefully: new
// requests get 503, admitted activations finish.
//
// Every request carries an X-PS-Request-ID (propagated from the client
// or generated) echoed on the response; -access-log writes one JSON
// line per request. With -trace, POST /v1/run?trace=1 runs the
// activation under the execution recorder and GET /v1/trace?id=
// exports its Chrome trace-event timeline.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/ps/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		programs    = flag.String("programs", "", "directory of *.ps programs to serve (required)")
		workers     = flag.Int("workers", 0, "worker pool width (0 = all CPUs)")
		cacheLimit  = flag.Int64("cache-limit", 64<<20, "compiled-program cache budget in bytes (0 = unbounded)")
		queueDepth  = flag.Int("queue-depth", 256, "per-tenant bound on requests admitted but not yet answered")
		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant token-bucket rate in requests/s (0 = unlimited)")
		tenantBurst = flag.Int("tenant-burst", 0, "per-tenant token-bucket burst (default: ceil(rate))")
		runTimeout  = flag.Duration("run-timeout", 0, "bound on one activation's run (0 = unbounded)")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight work")
		trace       = flag.Bool("trace", false, "allow ?trace=1 traced runs and GET /v1/trace export")
		accessLog   = flag.String("access-log", "", "write JSON access-log lines to this file (- for stderr)")
	)
	flag.Parse()
	if *programs == "" {
		fmt.Fprintln(os.Stderr, "psserve: -programs is required")
		flag.Usage()
		os.Exit(2)
	}
	var logw io.Writer
	switch *accessLog {
	case "":
	case "-":
		logw = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("psserve: %v", err)
		}
		defer f.Close()
		logw = f
	}

	srv, err := serve.New(serve.Config{
		Workers:     *workers,
		CacheLimit:  *cacheLimit,
		QueueDepth:  *queueDepth,
		TenantRate:  *tenantRate,
		TenantBurst: *tenantBurst,
		RunTimeout:  *runTimeout,
		Dir:         *programs,
		EnableTrace: *trace,
		AccessLog:   logw,
	})
	if err != nil {
		log.Fatalf("psserve: %v", err)
	}
	defer srv.Close()
	log.Printf("psserve: serving %d program(s) from %s on %s", len(srv.Programs()), *programs, *addr)

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatalf("psserve: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("psserve: draining (up to %v)...", *drainWait)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("psserve: drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("psserve: shutdown: %v", err)
	}
	log.Printf("psserve: done")
}
