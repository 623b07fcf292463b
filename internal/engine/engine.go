// Package engine is the deterministic parallel experiment engine: it fans a
// batch of independent jobs (one simulation point each, typically) out
// across a worker pool while keeping results bit-identical to a serial run.
//
// Determinism rests on two rules. First, a job's random seed is derived only
// from the engine's base seed and the job's identity key (SeedFor), never
// from the worker that picked it up or the order jobs finish in. Second, the
// engine returns results keyed by job identity and the caller assembles them
// in its own fixed order, so completion order is invisible downstream.
// Together they make `Workers: 1` and `Workers: 64` produce the same bytes.
//
// Around that core the engine provides the operational features a long
// sweep needs: panic isolation with per-job retries and a failed-jobs
// report, a drain signal, and live progress (done/total, ETA) exported
// through an internal/telemetry registry. It only schedules: it keeps no
// results between runs. What a finished job leaves behind is its Run
// function's business (a sweep point goes through fabric.Coordinator, whose
// store serves it to the next run).
package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one unit of work: an identity key and a function that computes the
// result from the job's derived seed. Run must be self-contained — it may
// not share mutable state with other jobs, because jobs execute concurrently.
type Job[T any] struct {
	// Key uniquely identifies the job within the batch (e.g.
	// "fig4-uniform/disha-m3@0.60#2"). It keys the seed derivation and the
	// result map.
	Key string
	// Run computes the job's result. It is retried on error or panic.
	Run func(seed uint64) (T, error)
}

// Status is a progress snapshot passed to the OnDone callback and exported
// through telemetry.
type Status struct {
	Total   int // jobs in the batch
	Done    int // completed successfully
	Failed  int // exhausted their retries
	Retried int // extra attempts spent across all jobs
	Elapsed time.Duration
	// ETA estimates the remaining wall time from the completion rate; zero
	// until the first job completes.
	ETA time.Duration
}

// JobResult describes one settled job (success or failure).
type JobResult[T any] struct {
	Key      string
	Seed     uint64
	Value    T
	Err      string // "" on success
	Attempts int
	Elapsed  time.Duration
}

// Failure is one job that exhausted its retries.
type Failure struct {
	Key      string
	Err      string
	Attempts int
}

// Report summarizes a finished batch.
type Report struct {
	Total     int
	Completed int // successful jobs
	Retried   int
	Aborted   int       // jobs never dispatched because Stop closed mid-run
	Failures  []Failure // in batch order
	Elapsed   time.Duration
	Workers   int
}

// Failed returns the number of jobs that did not complete.
func (r *Report) Failed() int { return len(r.Failures) }

// String renders the one-line summary CLIs print after a sweep.
func (r *Report) String() string {
	s := fmt.Sprintf("%d/%d jobs completed in %v (%d workers", r.Completed, r.Total,
		r.Elapsed.Round(time.Millisecond), r.Workers)
	if r.Retried > 0 {
		s += fmt.Sprintf(", %d retries", r.Retried)
	}
	s += ")"
	if r.Aborted > 0 {
		s += fmt.Sprintf("; %d aborted by drain", r.Aborted)
	}
	if len(r.Failures) > 0 {
		s += fmt.Sprintf("; %d FAILED", len(r.Failures))
	}
	return s
}

// Config controls one engine run.
type Config[T any] struct {
	// Workers is the worker-pool size; 0 or negative means GOMAXPROCS.
	Workers int
	// Seed is the base seed every job seed is derived from (SeedFor).
	Seed uint64
	// Retries is how many additional attempts a failing job gets (0 = one
	// attempt total). Panics count as failures and are isolated per job.
	Retries int
	// Metrics, when non-nil, receives live progress (jobs done/total, ETA)
	// on the telemetry registry it was built from.
	Metrics *Metrics
	// Stop, when non-nil, makes the run drainable: once the channel is
	// closed no further jobs are handed to workers, jobs already executing
	// finish normally, and the undispatched remainder is counted in
	// Report.Aborted instead of being run. Results stay deterministic — a
	// drained run is a prefix-complete subset of the full batch.
	Stop <-chan struct{}
	// OnDone, when non-nil, is called after every settled job (success or
	// final failure), always from the calling goroutine.
	OnDone func(Status, JobResult[T])
}

// outcome travels from a worker to the collector.
type outcome[T any] struct {
	index    int
	seed     uint64
	value    T
	err      string
	attempts int
	elapsed  time.Duration
}

// Run executes the batch and returns the results of all successful jobs
// keyed by job key, plus a report of failures. The returned error covers a
// malformed batch (empty or duplicate keys, a nil Run); job failures are
// reported, not returned, so callers can use partial results. Callbacks and
// metrics updates happen on the calling goroutine.
func Run[T any](cfg Config[T], jobs []Job[T]) (map[string]T, *Report, error) {
	start := time.Now()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}

	seen := make(map[string]struct{}, len(jobs))
	for _, j := range jobs {
		if j.Key == "" || j.Run == nil {
			return nil, nil, fmt.Errorf("engine: job with empty key or nil run")
		}
		if _, dup := seen[j.Key]; dup {
			return nil, nil, fmt.Errorf("engine: duplicate job key %q", j.Key)
		}
		seen[j.Key] = struct{}{}
	}

	results := make(map[string]T, len(jobs))
	report := &Report{Total: len(jobs), Workers: workers}
	st := Status{Total: len(jobs)}
	if cfg.Metrics != nil {
		cfg.Metrics.beginRun(len(jobs))
	}
	settle := func(res JobResult[T]) {
		st.Elapsed = time.Since(start)
		if remaining := st.Total - st.Done - st.Failed; st.Done > 0 && remaining > 0 {
			st.ETA = time.Duration(float64(st.Elapsed) / float64(st.Done) * float64(remaining))
		} else {
			st.ETA = 0
		}
		if cfg.Metrics != nil {
			cfg.Metrics.observe(st, res.Err != "", res.Attempts-1)
		}
		if cfg.OnDone != nil {
			cfg.OnDone(st, res)
		}
	}

	// Fan the jobs out. Workers only compute; every mutation of results,
	// metrics and callbacks happens here on the collector side, in completion
	// order, which the deterministic seed derivation makes harmless.
	// The cursor into jobs: the next index to claim. A plain int64 under
	// atomic.AddInt64, because inside this generic function the compiler
	// leaves atomic.Int64's Add as a call instead of the intrinsic.
	var next int64
	outCh := make(chan outcome[T], workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Stop is checked before every claim and nothing is claimed
				// ahead of time, so a drain hands out no further job once the
				// channel closes (a nil Stop is never ready).
				select {
				case <-cfg.Stop:
					return
				default:
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(jobs) {
					return
				}
				job := jobs[i]
				seed := SeedFor(cfg.Seed, job.Key)
				jobStart := time.Now()
				var (
					v        T
					errMsg   string
					attempts int
				)
				for attempts = 1; ; attempts++ {
					var err error
					v, err = runIsolated(job, seed)
					if err == nil {
						errMsg = ""
						break
					}
					errMsg = err.Error()
					if attempts > cfg.Retries {
						break
					}
				}
				outCh <- outcome[T]{
					index: i, seed: seed, value: v, err: errMsg,
					attempts: attempts, elapsed: time.Since(jobStart),
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(outCh)
	}()

	failures := make(map[string]Failure)
	received := 0
	for o := range outCh {
		received++
		res := JobResult[T]{
			Key: jobs[o.index].Key, Seed: o.seed, Err: o.err,
			Attempts: o.attempts, Elapsed: o.elapsed,
		}
		st.Retried += o.attempts - 1
		report.Retried += o.attempts - 1
		if o.err != "" {
			st.Failed++
			failures[res.Key] = Failure{Key: res.Key, Err: o.err, Attempts: o.attempts}
		} else {
			res.Value = o.value
			results[res.Key] = o.value
			st.Done++
			report.Completed++
		}
		settle(res)
	}
	// Every claimed job reports exactly once before the pool closes outCh;
	// what was never claimed is what Stop cut off.
	report.Aborted = len(jobs) - received

	// Failures in deterministic batch order, not completion order.
	for _, j := range jobs {
		if f, failed := failures[j.Key]; failed {
			report.Failures = append(report.Failures, f)
		}
	}
	report.Elapsed = time.Since(start)
	if cfg.Metrics != nil {
		cfg.Metrics.endRun(st)
	}
	return results, report, nil
}

// runIsolated invokes the job, converting a panic into an error so one bad
// simulation point cannot take down the whole sweep.
func runIsolated[T any](job Job[T], seed uint64) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return job.Run(seed)
}
