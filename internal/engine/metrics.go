package engine

import (
	"sync"

	"repro/internal/telemetry"
)

// Metrics exports sweep progress through an internal/telemetry registry:
// jobs done/failed/retried, batch totals, elapsed time and the ETA estimate.
// Unlike the simulator's telemetry (which is strictly single-goroutine, see
// package telemetry), sweep progress is inherently concurrent with whatever
// else updates the registry — an HTTP server's own metrics, for example — so
// all writes and every Publish go through one mutex owned here. Other
// writers to the same registry must either share this mutex via Locked or
// register pull-style metrics over atomic values, which are safe to render
// from any goroutine.
type Metrics struct {
	mu  sync.Mutex
	reg *telemetry.Registry

	runsStarted  *telemetry.Counter
	runsFinished *telemetry.Counter
	jobsDone     *telemetry.Counter
	jobsFailed   *telemetry.Counter
	jobsRetried  *telemetry.Counter

	jobsTotal      *telemetry.Gauge
	jobsRemaining  *telemetry.Gauge
	etaSeconds     *telemetry.Gauge
	elapsedSeconds *telemetry.Gauge
	running        *telemetry.Gauge
}

// NewMetrics registers the engine_* metric families on reg. Call once per
// registry; the returned Metrics may be shared by any number of sequential
// or concurrent sweeps (counters accumulate across runs, gauges track
// the most recent update).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		reg:            reg,
		runsStarted:    reg.Counter("engine_runs_started_total", "engine batches started", nil),
		runsFinished:   reg.Counter("engine_runs_finished_total", "engine batches finished", nil),
		jobsDone:       reg.Counter("engine_jobs_done_total", "jobs completed successfully", nil),
		jobsFailed:     reg.Counter("engine_jobs_failed_total", "jobs that exhausted their retries", nil),
		jobsRetried:    reg.Counter("engine_jobs_retried_total", "extra attempts spent on failing jobs", nil),
		jobsTotal:      reg.Gauge("engine_jobs_total", "jobs in the current batch", nil),
		jobsRemaining:  reg.Gauge("engine_jobs_remaining", "jobs not yet settled in the current batch", nil),
		etaSeconds:     reg.Gauge("engine_eta_seconds", "estimated remaining wall time of the current batch", nil),
		elapsedSeconds: reg.Gauge("engine_elapsed_seconds", "wall time spent on the current batch", nil),
		running:        reg.Gauge("engine_running", "1 while a batch is in flight", nil),
	}
}

// Registry returns the registry the metrics publish into.
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

// Publish renders the registry snapshot for HTTP exposition.
func (m *Metrics) Publish() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reg.Publish()
}

func (m *Metrics) beginRun(total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runsStarted.Inc()
	m.jobsTotal.Set(float64(total))
	m.jobsRemaining.Set(float64(total))
	m.etaSeconds.Set(0)
	m.elapsedSeconds.Set(0)
	m.running.Set(1)
	m.reg.Publish()
}

func (m *Metrics) observe(st Status, failed bool, retries int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if failed {
		m.jobsFailed.Inc()
	} else {
		m.jobsDone.Inc()
	}
	if retries > 0 {
		m.jobsRetried.Add(int64(retries))
	}
	m.jobsRemaining.Set(float64(st.Total - st.Done - st.Failed))
	m.etaSeconds.Set(st.ETA.Seconds())
	m.elapsedSeconds.Set(st.Elapsed.Seconds())
	m.reg.Publish()
}

func (m *Metrics) endRun(st Status) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runsFinished.Inc()
	m.running.Set(0)
	m.etaSeconds.Set(0)
	m.elapsedSeconds.Set(st.Elapsed.Seconds())
	m.reg.Publish()
}
