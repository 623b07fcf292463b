// Package engine holds what every executor of a sweep agrees on: how a
// point's random seed follows from its identity (SeedFor), and the progress
// vocabulary a sweep reports in — Status while it runs, Report and Failure
// when it ends, Metrics on a telemetry registry.
//
// Determinism rests on two rules. First, a point's seed is derived only from
// the sweep's base seed and the point's identity key, never from who ran it
// or the order points finish in. Second, results are keyed by identity and
// the caller assembles them in its own fixed order, so completion order is
// invisible downstream.
//
// The package schedules nothing and starts no goroutine: harness.RunWith
// starts the points and feeds their outcomes, in completion order and from
// one goroutine, to a Fold.
package engine

import (
	"fmt"
	"time"
)

// Status is a progress snapshot of a running sweep, returned by Fold.Settle
// and exported through telemetry.
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

// Fold accumulates one sweep's progress: Begin, one Settle per job that came
// to an answer (success or final failure), End. It is not safe for
// concurrent use; metrics, if given, are updated on the calling goroutine.
type Fold struct {
	start   time.Time
	st      Status
	metrics *Metrics
	workers int
	failed  map[int]Failure // by index in the batch
}

// Begin opens the fold of a batch of total jobs, of which this process
// computes at most workers at once.
func Begin(total, workers int, metrics *Metrics) *Fold {
	if metrics != nil {
		metrics.beginRun(total)
	}
	return &Fold{start: time.Now(), st: Status{Total: total}, metrics: metrics, workers: workers, failed: make(map[int]Failure)}
}

// Settle records the outcome of the job at index in the batch — errMsg is ""
// on success — and returns the status including it.
func (f *Fold) Settle(index int, key, errMsg string) Status {
	st := &f.st
	if errMsg != "" {
		st.Failed++
		f.failed[index] = Failure{Key: key, Err: errMsg}
	} else {
		st.Done++
	}
	st.Elapsed = time.Since(f.start)
	st.ETA = 0
	if remaining := st.Total - st.Done - st.Failed; st.Done > 0 && remaining > 0 {
		st.ETA = time.Duration(float64(st.Elapsed) / float64(st.Done) * float64(remaining))
	}
	if f.metrics != nil {
		f.metrics.observe(*st, errMsg != "")
	}
	return *st
}

// End closes the fold. Jobs that never settled are the ones a drain withdrew.
func (f *Fold) End() *Report {
	st := &f.st
	st.Elapsed = time.Since(f.start)
	if f.metrics != nil {
		f.metrics.endRun(*st)
	}
	report := &Report{
		Total: st.Total, Completed: st.Done,
		Aborted: st.Total - st.Done - st.Failed,
		Elapsed: st.Elapsed, Workers: f.workers,
	}
	// Failures in deterministic batch order, not completion order.
	for i := 0; i < st.Total && len(report.Failures) < len(f.failed); i++ {
		if failure, ok := f.failed[i]; ok {
			report.Failures = append(report.Failures, failure)
		}
	}
	return report
}
