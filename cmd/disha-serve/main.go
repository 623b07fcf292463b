// Command disha-serve runs the sweep job server: an HTTP API that accepts
// experiment specifications, executes each as one sweep through a
// coordinator, and serves status and results.
//
//	disha-serve -addr :8080
//
//	# submit Figure 4 at small scale, 3 replicas per point
//	curl -s localhost:8080/jobs -d '{"figure":"4","scale":"small","replicas":3}'
//
//	# watch it run (one NDJSON status line per tick)
//	curl -Ns 'localhost:8080/jobs/job-0001?watch=1'
//
//	# fetch the finished curves
//	curl -s localhost:8080/jobs/job-0001/result.csv
//	curl -s localhost:8080/jobs/job-0001/result.json
//
//	# sweep progress + server totals (Prometheus text format)
//	curl -s localhost:8080/metrics
//
//	# liveness probe and build metadata
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/buildz
//
// Every sweep point goes through one coordinator: it runs on a registered
// disha-worker when any is live and in-process otherwise, and finished
// points land in a result cache keyed by content fingerprint, so identical
// sub-requests across jobs dedupe to one execution. With -data-dir that
// cache is also a file, <data-dir>/results.jsonl, in the format of
// disha-sweep -journal (either reads the other's), beside mid-point
// checkpoints in <data-dir>/ckpt: a killed server restarted on the
// directory computes only what no earlier job finished, however the
// resubmitted request is phrased:
//
//	disha-serve -addr :8080 -data-dir /var/lib/disha -checkpoint-every 2000
//
// -fleet is the switch that exposes the (unauthenticated) worker API under
// /fleet/ so workers can register at all:
//
//	disha-serve -addr :8080 -fleet
//	disha-worker -coordinator http://host:8080/fleet   # on each worker box
//
// The server logs the address it actually bound, so -addr 127.0.0.1:0
// (any free port) is usable from scripts and tests.
//
// On SIGINT/SIGTERM the server drains gracefully: it stops accepting
// submissions (503 + Retry-After), lets points already executing finish,
// and aborts the rest (with -data-dir a resubmission runs only those).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/jobserver"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		queue       = flag.Int("queue", 64, "maximum queued (not yet running) jobs")
		dataDir     = flag.String("data-dir", "", "persistence directory: every finished point is kept in <dir>/results.jsonl (a disha-sweep -journal file) and in-flight points checkpoint to <dir>/ckpt, so a restarted server computes only what no earlier job finished (empty = in-memory only)")
		ckptN       = flag.Int("checkpoint-every", 2000, "cycles between mid-point checkpoints when -data-dir is set (0 = finished points only)")
		fleet       = flag.Bool("fleet", false, "coordinate a worker fleet: serve the /fleet/ API and execute sweep points on registered disha-worker processes (local fallback when none are live)")
		leaseTTL    = flag.Duration("lease-ttl", 15*time.Second, "fleet lease time-to-live: a worker silent this long is presumed dead and its points re-dispatched")
		maxAttempts = flag.Int("max-attempts", 3, "fleet dispatch attempts per point before falling back to local execution")
		rateLimit   = flag.Float64("rate-limit", 0, "per-client POST /jobs rate limit in requests/second (0 = unlimited)")
		rateBurst   = flag.Int("rate-burst", 5, "per-client burst for -rate-limit")
		drainWait   = flag.Duration("drain-timeout", 2*time.Minute, "how long a signal-triggered drain waits for in-flight points before exiting anyway")
		version     = flag.Bool("version", false, "print build metadata and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(telemetry.Build().String())
		return
	}

	opts := jobserver.Options{
		QueueDepth:      *queue,
		DataDir:         *dataDir,
		CheckpointEvery: *ckptN,
		RateLimit:       *rateLimit,
		RateBurst:       *rateBurst,
	}
	var coord *fabric.Coordinator
	if *fleet {
		coord = fabric.NewCoordinator(fabric.CoordinatorOptions{
			LeaseTTL:        *leaseTTL,
			MaxAttempts:     *maxAttempts,
			CheckpointEvery: *ckptN,
		})
		defer coord.Close()
		opts.Fleet = coord
	}
	srv, err := jobserver.NewWithOptions(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "disha-serve:", err)
		os.Exit(1)
	}
	defer srv.Close()
	if coord != nil {
		// Register the fleet gauges/counters on the server's registry so
		// /metrics shows coordinator state alongside sweep progress.
		coord.RegisterMetrics(srv.Registry())
	}
	// Listen before announcing, and announce the bound address: with a
	// port of 0 that is the only way anything can find the server.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "disha-serve:", err)
		os.Exit(1)
	}
	// No WriteTimeout: ?watch=1 streams NDJSON for the lifetime of a job.
	// The read-side timeouts bound how long a client can hold a connection
	// open without sending a complete request (slowloris).
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	api := "POST /jobs, GET /jobs/{id}, GET /metrics, GET /healthz, GET /buildz"
	if *fleet {
		api += ", worker API on /fleet/"
	}
	fmt.Fprintf(os.Stderr, "disha-serve: listening on %s (%s)\n", ln.Addr(), api)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "disha-serve:", err)
			os.Exit(1)
		}
	case s := <-sig:
		// Graceful drain: refuse new submissions, let executing points
		// finish, abort the rest (with -data-dir a resubmission runs only those).
		fmt.Fprintf(os.Stderr, "disha-serve: %v: draining (in-flight points finish, queue is refused)\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "disha-serve:", err)
		}
		if coord != nil {
			// Idle workers are parked in /fleet/lease for up to half a lease
			// TTL, and Shutdown waits for handlers: answer them now.
			coord.Close()
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "disha-serve: shutdown:", err)
		}
		fmt.Fprintln(os.Stderr, "disha-serve: drained")
	}
}
