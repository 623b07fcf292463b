package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Status is a progress snapshot of a running sweep, handed to
// RunOptions.Status after every settled point and exported through Metrics.
type Status struct {
	Total   int // jobs in the batch
	Done    int // completed successfully
	Failed  int // ran and returned an error
	Elapsed time.Duration
	// ETA estimates the remaining wall time from the completion rate; zero
	// until the first job completes.
	ETA time.Duration
}

// Failure is one job that ran and returned an error.
type Failure struct {
	Key string
	Err string
}

// Report summarizes a finished batch.
type Report struct {
	Total     int
	Completed int       // successful jobs
	Aborted   int       // jobs withdrawn unrun because the sweep was drained
	Failures  []Failure // in batch order
	Elapsed   time.Duration
	Workers   int // jobs this process computed at once, at most
}

// Failed returns the number of jobs that did not complete.
func (r *Report) Failed() int { return len(r.Failures) }

// String renders the one-line summary CLIs print after a sweep.
func (r *Report) String() string {
	s := fmt.Sprintf("%d/%d jobs completed in %v (%d workers)", r.Completed, r.Total,
		r.Elapsed.Round(time.Millisecond), r.Workers)
	if r.Aborted > 0 {
		s += fmt.Sprintf("; %d aborted by drain", r.Aborted)
	}
	if len(r.Failures) > 0 {
		s += fmt.Sprintf("; %d FAILED", len(r.Failures))
	}
	return s
}

// Metrics exports sweep progress through an internal/telemetry registry:
// jobs done/failed, batch totals, elapsed time and the ETA estimate, as
// reads of plain fields. Unlike the simulator's telemetry (strictly
// single-goroutine, see package telemetry), sweep progress is concurrent
// with whatever else renders the registry — an HTTP scrape, for example —
// so every update, and every Publish that reads the fields, holds one
// mutex owned here. Anything else registered on the same registry must be
// safe to read from any goroutine, as the job server's serve_jobs_* totals
// (reads of atomics) are.
type Metrics struct {
	mu  sync.Mutex
	reg *telemetry.Registry

	runsStarted, runsFinished, jobsDone, jobsFailed               int64
	jobsTotal, jobsRemaining, etaSeconds, elapsedSeconds, running float64
}

// NewMetrics registers the engine_* metric families on reg. Call once per
// registry; the returned Metrics may be shared by any number of sequential
// or concurrent sweeps (counters accumulate across runs, gauges track
// the most recent update).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{reg: reg}
	counter := func(name, help string, v *int64) {
		reg.CounterFunc(name, help, nil, func() int64 { return *v })
	}
	gauge := func(name, help string, v *float64) {
		reg.GaugeFunc(name, help, nil, func() float64 { return *v })
	}
	counter("engine_runs_started_total", "engine batches started", &m.runsStarted)
	counter("engine_runs_finished_total", "engine batches finished", &m.runsFinished)
	counter("engine_jobs_done_total", "jobs completed successfully", &m.jobsDone)
	counter("engine_jobs_failed_total", "jobs that ran and returned an error", &m.jobsFailed)
	gauge("engine_jobs_total", "jobs in the current batch", &m.jobsTotal)
	gauge("engine_jobs_remaining", "jobs not yet settled in the current batch", &m.jobsRemaining)
	gauge("engine_eta_seconds", "estimated remaining wall time of the current batch", &m.etaSeconds)
	gauge("engine_elapsed_seconds", "wall time spent on the current batch", &m.elapsedSeconds)
	gauge("engine_running", "1 while a batch is in flight", &m.running)
	return m
}

// Publish renders the registry snapshot for HTTP exposition.
func (m *Metrics) Publish() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reg.Publish()
}

func (m *Metrics) beginRun(total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runsStarted++
	m.jobsTotal = float64(total)
	m.jobsRemaining = float64(total)
	m.etaSeconds, m.elapsedSeconds = 0, 0
	m.running = 1
	m.reg.Publish()
}

func (m *Metrics) observe(st Status, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if failed {
		m.jobsFailed++
	} else {
		m.jobsDone++
	}
	m.jobsRemaining = float64(st.Total - st.Done - st.Failed)
	m.etaSeconds = st.ETA.Seconds()
	m.elapsedSeconds = st.Elapsed.Seconds()
	m.reg.Publish()
}

func (m *Metrics) endRun(st Status) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runsFinished++
	m.running, m.etaSeconds = 0, 0
	m.elapsedSeconds = st.Elapsed.Seconds()
	m.reg.Publish()
}
