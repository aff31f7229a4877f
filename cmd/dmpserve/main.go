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
//	dmpserve -selftest [N] [-selftest-conc N]
//
// In daemon mode, SIGINT/SIGTERM starts a graceful drain: new submissions
// are rejected with 503 while queued and running jobs complete (bounded by
// -drain-timeout, after which in-flight simulations are force-cancelled).
//
// -selftest starts an in-process daemon on a loopback port and drives N
// (default 200) concurrent preset jobs over real HTTP, with deliberate
// duplicate specs to exercise the shared cache. It prints a JSON load
// report (throughput, latency percentiles, cache hit rate) and exits
// non-zero unless every job completed and the cache saw hits.
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
	"encoding/json"
	"flag"
	"fmt"
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
	selftest := flag.Bool("selftest", false, "run the built-in load test against an in-process daemon and exit")
	selftestN := flag.Int("selftest-jobs", 200, "selftest: total jobs to drive")
	selftestConc := flag.Int("selftest-conc", 32, "selftest: concurrent client goroutines")
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
	if *selftest {
		os.Exit(runSelftest(cfg, *selftestN, *selftestConc))
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

// runSelftest boots an in-process daemon on a loopback port and drives the
// load test against it over real HTTP.
func runSelftest(cfg serve.Config, jobs, conc int) int {
	srv := serve.New(cfg)
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Printf("selftest: listen: %v", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	log.Printf("selftest: daemon on %s, driving %d jobs (%d client goroutines)", base, jobs, conc)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	rep, err := serve.LoadTest(ctx, base, serve.LoadOptions{Jobs: jobs, Concurrency: conc})
	if err != nil {
		log.Printf("selftest: %v", err)
		return 1
	}

	out, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(out))

	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	_ = httpSrv.Shutdown(sctx)
	srv.Shutdown(sctx)

	if !rep.OK() {
		log.Printf("selftest: FAIL (done=%d/%d failed=%d canceled=%d panics=%d cache_hit_rate=%.3f)",
			rep.Done, rep.Jobs, rep.Failed, rep.Canceled,
			rep.Server.PanicsRecovered, rep.Server.CacheHitRate)
		return 1
	}
	log.Printf("selftest: OK: %d jobs in %.2fs (%.1f jobs/s), p50 %.1fms p99 %.1fms, cache hit rate %.3f",
		rep.Done, rep.WallSec, rep.JobsPerSec,
		rep.Server.LatencyP50MS, rep.Server.LatencyP99MS, rep.Server.CacheHitRate)
	return 0
}
