// Dmpserve runs the DMP simulation-as-a-service daemon: an HTTP/JSON server
// that accepts compile+simulate jobs (generator presets or DML source),
// executes them on a bounded worker pool with priorities and backpressure,
// shares one process-wide simulation cache across all requests, and serves
// job status, streamed pipeline events and service metrics.
//
// Usage:
//
//	dmpserve [-addr :8377] [-workers N] [-queue N] [-max-insts N]
//	         [-drain-timeout 30s]
//
// In daemon mode, SIGINT/SIGTERM starts a graceful drain: new submissions
// are rejected with 503 while queued and running jobs complete (bounded by
// -drain-timeout, after which in-flight simulations are force-cancelled).
//
// perfbench's serve-open workload measures the daemon under open-loop load
// (bash perfbench/run.sh --workload serve-open).
//
// Example:
//
//	curl -s -X POST localhost:8377/jobs \
//	  -d '{"preset":"deep-hammock","seed":7,"algo":"heur"}'
//	curl -s localhost:8377/jobs/j-000001
//	curl -s localhost:8377/metrics
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmp/internal/serve"
	"dmp/internal/workpool"
)

func main() {
	addr := flag.String("addr", ":8377", "listen address")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 256, "queued-job cap; beyond it submissions get 429")
	maxInsts := flag.Uint64("max-insts", serve.DefaultMaxInsts, "per-run simulated-instruction cap")
	retain := flag.Int("retain", serve.DefaultRetainJobs, "terminal jobs retained for status queries; older ones are evicted")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on SIGTERM")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("dmpserve: ")

	// The daemon's worker count is the real concurrency cap: harness pools
	// reached from inside a job run inline on the job's worker goroutine
	// instead of spawning helpers of their own.
	workpool.SetHelperBudget(0)

	cfg := serve.Config{
		Workers:    *workers,
		QueueCap:   *queue,
		MaxInsts:   *maxInsts,
		RetainJobs: *retain,
		Logf:       log.Printf,
	}
	srv := serve.New(cfg)
	srv.Start()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	log.Printf("listening on %s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%s: draining (timeout %s)", sig, *drainTimeout)
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting new connections, then drain the job queue.
	_ = httpSrv.Shutdown(ctx)
	srv.Shutdown(ctx)
	log.Printf("drained; bye")
}
