// Package jobserver is the HTTP front end of the experiment harness: a job
// server that accepts sweep specifications as JSON, queues them, runs each
// as one harness sweep through a fabric.Coordinator, and serves live status
// and finished results (JSON and CSV). It backs cmd/disha-serve.
//
// Jobs run one at a time from a FIFO queue — a job offers all its points to
// the coordinator at once and simulates up to "parallel" of them on this
// process's cores, so running sweeps concurrently would only thrash the cache
// and blur the per-job ETA. Determinism is inherited from the identity-keyed
// seeds: submitting the same spec twice returns bit-identical results
// regardless of server load.
//
// API:
//
//	POST /jobs                 submit a sweep spec (SweepRequest JSON) -> 202 + job status
//	GET  /jobs                 list all jobs, oldest first
//	GET  /jobs/{id}            job status; ?watch=1 streams NDJSON status until terminal
//	GET  /jobs/{id}/result.json finished curves as JSON
//	GET  /jobs/{id}/result.csv  finished curves as CSV
//	GET  /metrics              telemetry registry (engine progress + server totals)
//	GET  /healthz              liveness probe
//	GET  /buildz               build metadata (debug.ReadBuildInfo)
//	GET  /debug/pprof/         standard profiles
package jobserver

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// SweepRequest is the JSON body of POST /jobs. Figure and Scale select one
// of the canned paper sweeps; the remaining fields override its knobs.
type SweepRequest struct {
	// Figure is the paper figure to sweep: "3a", "3b", "4", "5", "6", "7".
	Figure string `json:"figure"`
	// Scale is "paper" (16x16, the default) or "small" (8x8).
	Scale string `json:"scale,omitempty"`
	// Loads overrides the swept offered-load rates.
	Loads []float64 `json:"loads,omitempty"`
	// Parallel is how many points the server process simulates at once
	// (0 = all cores). It does not throttle a fleet: every point of the job
	// is offered to the workers immediately.
	Parallel int `json:"parallel,omitempty"`
	// Replicas aggregates this many independent runs per point into
	// mean ± 95% CI (default 1).
	Replicas int `json:"replicas,omitempty"`
	// Retries is how many extra attempts a failing point gets (see
	// harness.Spec.CheckSweep for this and the other numbers' defaults).
	Retries int `json:"retries,omitempty"`
	// Warmup/Measure override the scale's cycle counts.
	Warmup  int `json:"warmup,omitempty"`
	Measure int `json:"measure,omitempty"`
	// Seed overrides the scale's base seed.
	Seed uint64 `json:"seed,omitempty"`
}

// spec builds the harness spec the request describes (harness.SpecFor, which
// disha-sweep's flags resolve through too).
func (r *SweepRequest) spec() (*harness.Spec, error) {
	return harness.SpecFor(r.Figure, r.Scale, r.Warmup, r.Measure, r.Seed, r.Loads)
}

// Progress is the live completion state of a job.
type Progress struct {
	Done           int     `json:"done"`
	Failed         int     `json:"failed"`
	Total          int     `json:"total"`
	ETASeconds     float64 `json:"eta_seconds"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// EpisodeCounts aggregates a finished sweep's recovery-episode totals
// across every measured point: how often deadlock was presumed, how often
// the recovery Token was seized, and how many WFG samples found a true
// deadlocked configuration.
type EpisodeCounts struct {
	Presumptions  int64 `json:"presumptions"`
	TokenSeizures int64 `json:"token_seizures"`
	TrueDeadlocks int64 `json:"true_deadlocks"`
}

// episodeCounts sums the per-point recovery counters over all curves.
func episodeCounts(res *harness.Result) *EpisodeCounts {
	ec := &EpisodeCounts{}
	for _, pts := range res.Points {
		for _, p := range pts {
			ec.Presumptions += p.TimeoutEvents
			ec.TokenSeizures += p.TokenSeizures
			ec.TrueDeadlocks += p.TrueDeadlocks
		}
	}
	return ec
}

// JobStatus is the JSON rendering of one job.
type JobStatus struct {
	ID       string       `json:"id"`
	State    string       `json:"state"` // "queued", "running", "done", "failed"
	Request  SweepRequest `json:"request"`
	Created  time.Time    `json:"created"`
	Started  *time.Time   `json:"started,omitempty"`
	Finished *time.Time   `json:"finished,omitempty"`
	Progress Progress     `json:"progress"`
	Error    string       `json:"error,omitempty"`
	// Report is the sweep's batch summary, present once the job settled.
	Report *engine.Report `json:"report,omitempty"`
	// Episodes totals the sweep's recovery-episode counters, present once
	// the job settled with results.
	Episodes *EpisodeCounts `json:"episodes,omitempty"`
}

func (s JobStatus) terminal() bool { return s.State == "done" || s.State == "failed" }

// jobResult is the serialized form of a finished sweep.
type jobResult struct {
	Name   string                           `json:"name"`
	Series []metrics.Series                 `json:"series"`
	Points map[string][]harness.PointResult `json:"points"`
}

type job struct {
	status JobStatus
	spec   *harness.Spec
	result *harness.Result
}

// Server is the job server. Create it with NewWithOptions and mount Handler.
type Server struct {
	mu    sync.Mutex
	jobs  map[string]*job
	order []string
	queue chan string
	next  int

	dataDir         string
	checkpointEvery int

	// fleet executes every sweep point; ownFleet marks the private
	// coordinator built when Options.Fleet was nil (never mounted, closed
	// when the runner exits).
	fleet    *fabric.Coordinator
	ownFleet bool
	limiter  *fabric.RateLimiter

	reg *telemetry.Registry
	em  *engine.Metrics

	accepted  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	queued    atomic.Int64
	rejected  atomic.Int64 // 503s: queue full or draining
	throttled atomic.Int64 // 429s: per-client rate limit

	draining   atomic.Bool
	drainCh    chan struct{} // closed by Drain; every sweep's RunOptions.Stop
	runnerDone chan struct{} // closed when the runner goroutine exits
	drainOnce  sync.Once
	closeOnce  sync.Once
	done       chan struct{}
}

// Options configures a job server.
type Options struct {
	// QueueDepth bounds the number of jobs waiting to run (submissions
	// beyond it get 503); 0 means 64.
	QueueDepth int
	// DataDir, when non-empty, makes results durable: the coordinator's
	// result cache is kept in DataDir/results.jsonl (see
	// fabric.Coordinator.OpenStore), so a server restarted on the same DataDir
	// serves every point any earlier job finished — whichever request asked
	// for it, however it was phrased — and computes only the rest. It is the
	// file disha-sweep -journal keeps: one of those can be dropped in, and
	// this one handed to disha-sweep. The directory is created if missing.
	DataDir string
	// CheckpointEvery additionally snapshots each in-progress point's full
	// simulation state to DataDir/ckpt every that many cycles, so resumption
	// is mid-point, not just between points (see harness.RunOptions). It is
	// ignored without DataDir; 0 disables mid-point checkpointing.
	CheckpointEvery int
	// Fleet is the coordinator every sweep point executes through: points
	// run on whichever fleet workers hold leases, in-process when no workers
	// are live, and identical points dedupe through its result cache. A
	// supplied coordinator has its worker API mounted under /fleet/ (and stays
	// the caller's to Close); nil means a private coordinator with the
	// defaults whose API is not mounted, so it never has workers.
	Fleet *fabric.Coordinator
	// RateLimit, when positive, throttles POST /jobs per client address to
	// this many submissions per second (burst RateBurst, default 5); excess
	// submissions get 429 with a Retry-After header.
	RateLimit float64
	// RateBurst is the per-client burst for RateLimit (default 5).
	RateBurst int
}

// NewWithOptions starts a job server with full configuration; it fails only
// when a requested DataDir cannot be created or its result store not opened.
func NewWithOptions(opts Options) (*Server, error) {
	queueDepth := opts.QueueDepth
	if queueDepth <= 0 {
		queueDepth = 64
	}
	if opts.DataDir != "" {
		if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("jobserver: data dir: %w", err)
		}
	}
	s := &Server{
		jobs:            make(map[string]*job),
		queue:           make(chan string, queueDepth),
		dataDir:         opts.DataDir,
		checkpointEvery: opts.CheckpointEvery,
		fleet:           opts.Fleet,
		ownFleet:        opts.Fleet == nil,
		reg:             telemetry.NewRegistry(),
		drainCh:         make(chan struct{}),
		runnerDone:      make(chan struct{}),
		done:            make(chan struct{}),
	}
	if s.ownFleet {
		s.fleet = fabric.NewCoordinator(fabric.CoordinatorOptions{})
	}
	if s.dataDir != "" {
		if _, err := s.fleet.OpenStore(filepath.Join(s.dataDir, "results.jsonl")); err != nil {
			if s.ownFleet {
				s.fleet.Close()
			}
			return nil, fmt.Errorf("jobserver: %w", err)
		}
	}
	if opts.RateLimit > 0 {
		burst := float64(opts.RateBurst)
		if burst <= 0 {
			burst = 5
		}
		s.limiter = fabric.NewRateLimiter(opts.RateLimit, burst)
	}
	// Server totals are pull-style metrics over atomics so the registry can
	// render them from any goroutine; the engine's own progress metrics
	// serialize through em's mutex (see engine.Metrics).
	s.reg.CounterFunc("serve_jobs_accepted_total", "sweep jobs accepted", nil, s.accepted.Load)
	s.reg.CounterFunc("serve_jobs_completed_total", "sweep jobs finished successfully", nil, s.completed.Load)
	s.reg.CounterFunc("serve_jobs_failed_total", "sweep jobs finished with failures", nil, s.failed.Load)
	s.reg.GaugeFunc("serve_jobs_queued", "sweep jobs waiting to run", nil,
		func() float64 { return float64(s.queued.Load()) })
	s.reg.CounterFunc("serve_jobs_rejected_total", "sweep submissions rejected with 503 (queue full or draining)", nil, s.rejected.Load)
	s.reg.CounterFunc("serve_jobs_throttled_total", "sweep submissions throttled with 429 (per-client rate limit)", nil, s.throttled.Load)
	s.em = engine.NewMetrics(s.reg)
	s.em.Publish()
	go s.runner()
	return s, nil
}

// Close stops the runner after the in-flight job (if any) finishes. Submits
// after Close fail with 503.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.done) })
}

// Drain gracefully shuts the server down: new submissions are refused with
// 503 (Retry-After set), the in-flight sweep is drained — points already
// executing, here or on a fleet worker, finish (and reach the result store),
// every point that has not started is withdrawn from the coordinator's queue,
// counted as aborted and left for a resubmission — and Drain returns once the
// runner is idle or ctx expires.
// It is safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
	s.Close()
	select {
	case <-s.runnerDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobserver: drain: %w", ctx.Err())
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Registry exposes the server's telemetry registry (tests, embedding).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

func (s *Server) runner() {
	defer close(s.runnerDone)
	if s.ownFleet {
		// Closed only here, behind the last job: closing it with the server
		// would shut the store under the points a drain lets finish.
		defer s.fleet.Close()
	}
	for {
		select {
		case <-s.done:
			return
		case id := <-s.queue:
			s.queued.Add(-1)
			s.runJob(id)
		}
	}
}

func (s *Server) runJob(id string) {
	s.mu.Lock()
	j := s.jobs[id]
	now := time.Now()
	j.status.State = "running"
	j.status.Started = &now
	spec := j.spec
	req := j.status.Request
	s.mu.Unlock()

	opts := harness.RunOptions{
		Parallel: req.Parallel,
		Replicas: req.Replicas,
		Retries:  req.Retries,
		Metrics:  s.em,
		Stop:     s.drainCh,
		// Every point goes through the coordinator, which decides between a
		// stored result, a fleet worker, or the local closure.
		PointRunner: s.fleet.Execute,
	}
	if s.dataDir != "" && s.checkpointEvery > 0 {
		// One directory for every job: a checkpoint file is named by, and
		// verified against, its point key.
		opts.CheckpointEvery = s.checkpointEvery
		opts.CheckpointDir = filepath.Join(s.dataDir, "ckpt")
	}
	opts.Status = func(st engine.Status) {
		s.mu.Lock()
		j.status.Progress = Progress{
			Done:           st.Done,
			Failed:         st.Failed,
			Total:          st.Total,
			ETASeconds:     st.ETA.Seconds(),
			ElapsedSeconds: st.Elapsed.Seconds(),
		}
		s.mu.Unlock()
	}
	res, report, err := spec.RunWith(opts)

	s.mu.Lock()
	end := time.Now()
	j.status.Finished = &end
	j.status.Report = report
	j.result = res
	if res != nil {
		j.status.Episodes = episodeCounts(res)
	}
	switch {
	case err != nil:
		j.status.State = "failed"
		j.status.Error = err.Error()
		s.failed.Add(1)
	case report != nil && report.Aborted > 0:
		// Drained mid-sweep: the result store holds every finished point, so
		// resubmitting the request after a restart computes only the rest.
		// Mark the job failed so clients notice it is incomplete.
		j.status.State = "failed"
		j.status.Error = fmt.Sprintf("drained by shutdown with %d of %d points pending", report.Aborted, report.Total)
		s.failed.Add(1)
	default:
		j.status.State = "done"
		s.completed.Add(1)
	}
	s.mu.Unlock()
	// Refresh the published snapshot so the server totals move even between
	// engine updates.
	s.em.Publish()
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result.json", s.handleResultJSON)
	mux.HandleFunc("GET /jobs/{id}/result.csv", s.handleResultCSV)
	if !s.ownFleet {
		mux.Handle("/fleet/", http.StripPrefix("/fleet", s.fleet.Handler()))
	}
	// Reuse the telemetry exposition handler (it also serves pprof, the
	// liveness probe and build metadata).
	th := telemetry.Handler(s.reg)
	mux.Handle("GET /metrics", th)
	mux.Handle("GET /healthz", th)
	mux.Handle("GET /buildz", th)
	mux.Handle("/debug/pprof/", th)
	return mux
}

// maxSubmitBytes bounds the POST /jobs body. A sweep spec is a few hundred
// bytes of JSON; 1 MiB leaves generous headroom while keeping a hostile
// client from streaming an unbounded body into the decoder.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Admission control runs before the body is even read: a draining server
	// and a throttled client get their answer cheaply.
	if s.draining.Load() {
		s.rejected.Add(1)
		unavailable(w, http.StatusServiceUnavailable, 60, "server is draining for shutdown")
		return
	}
	if ok, retry := s.limiter.Allow(clientKey(r)); !ok {
		s.throttled.Add(1)
		unavailable(w, http.StatusTooManyRequests, retrySeconds(retry), "rate limit exceeded for %s", clientKey(r))
		return
	}
	var req SweepRequest
	if fabric.DecodeBody(w, r, maxSubmitBytes, &req) != nil {
		return
	}
	spec, err := req.spec()
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad sweep spec: %v", err)
		return
	}
	if err := spec.CheckSweep(req.Parallel, req.Replicas, req.Retries, req.Warmup, req.Measure); err != nil {
		httpError(w, http.StatusBadRequest, "bad sweep spec: %v", err)
		return
	}

	// The queue slot is taken before the job is registered, so a refused
	// submission leaves no record behind. Both happen under s.mu, which the
	// runner takes before it looks the received id up.
	s.mu.Lock()
	id := fmt.Sprintf("job-%04d", s.next+1)
	select {
	case s.queue <- id:
	default:
		s.mu.Unlock()
		s.rejected.Add(1)
		unavailable(w, http.StatusServiceUnavailable, s.retryHintSeconds(), "job queue full")
		return
	}
	s.next++
	s.jobs[id] = &job{
		status: JobStatus{ID: id, State: "queued", Request: req, Created: time.Now()},
		spec:   spec,
	}
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.queued.Add(1)
	s.accepted.Add(1)
	s.em.Publish()
	w.Header().Set("Location", "/jobs/"+id)
	writeJSON(w, http.StatusAccepted, s.snapshot(id))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.lookup(id); !ok {
		httpError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if r.URL.Query().Get("watch") == "" {
		writeJSON(w, http.StatusOK, s.snapshot(id))
		return
	}
	// Streaming mode: one NDJSON status line per tick until the job settles.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		st := s.snapshot(id)
		if err := enc.Encode(st); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(250 * time.Millisecond):
		}
	}
}

func (s *Server) handleResultJSON(w http.ResponseWriter, r *http.Request) {
	res, status, ok := s.finishedResult(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, jobResult{Name: status.Request.Figure, Series: res.Series, Points: res.Points})
}

func (s *Server) handleResultCSV(w http.ResponseWriter, r *http.Request) {
	res, _, ok := s.finishedResult(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(res.CSV()))
}

// finishedResult resolves {id} to a finished job's result, writing the
// appropriate error response otherwise. Failed jobs with partial results
// still serve them (the failure is visible in the status report).
func (s *Server) finishedResult(w http.ResponseWriter, r *http.Request) (*harness.Result, JobStatus, bool) {
	id := r.PathValue("id")
	j, ok := s.lookup(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job %q", id)
		return nil, JobStatus{}, false
	}
	s.mu.Lock()
	st := j.status
	res := j.result
	s.mu.Unlock()
	if !st.terminal() {
		httpError(w, http.StatusConflict, "job %s is %s; results are available once it settles", id, st.State)
		return nil, JobStatus{}, false
	}
	if res == nil {
		httpError(w, http.StatusNotFound, "job %s produced no results: %s", id, st.Error)
		return nil, JobStatus{}, false
	}
	return res, st, true
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) snapshot(id string) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id].status
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// unavailable writes a 503/429 with a Retry-After header and the same
// structured JSON error body as every other error path (413, 400, ...), plus
// a machine-readable retry_after_seconds mirror of the header.
func unavailable(w http.ResponseWriter, code, retryAfter int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeJSON(w, code, map[string]any{
		"error":               fmt.Sprintf(format, args...),
		"retry_after_seconds": retryAfter,
	})
}

// retrySeconds renders a duration as a Retry-After value: whole seconds,
// rounded up, at least 1.
func retrySeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// retryHintSeconds estimates when a queue slot might free up: the in-flight
// job's ETA when one is running (clamped to [1s, 5min]), a flat 30s
// otherwise.
func (s *Server) retryHintSeconds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.status.State == "running" && j.status.Progress.ETASeconds > 0 {
			secs := int(math.Ceil(j.status.Progress.ETASeconds))
			if secs < 1 {
				secs = 1
			}
			if secs > 300 {
				secs = 300
			}
			return secs
		}
	}
	return 30
}

// clientKey identifies the submitting client for rate limiting: the remote
// IP without the ephemeral port, falling back to the raw RemoteAddr.
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}
