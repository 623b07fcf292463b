package engine

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// simJob mimics a simulation point: its result is a pure function of the
// seed the engine hands it, so any seed-derivation or ordering bug shows up
// as a value difference.
type simResult struct {
	Key  string  `json:"key"`
	Sum  uint64  `json:"sum"`
	Mean float64 `json:"mean"`
}

func simJobs(n int, jitter bool) []Job[simResult] {
	jobs := make([]Job[simResult], 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("point-%02d", i)
		jobs = append(jobs, Job[simResult]{
			Key: key,
			Run: func(seed uint64) (simResult, error) {
				rng := sim.NewRNG(seed)
				if jitter {
					// Shuffle completion order so parallel runs finish in a
					// different order than serial ones.
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
				}
				var sum uint64
				var mean float64
				for k := 0; k < 100; k++ {
					sum += rng.Uint64() >> 32
					mean += rng.Float64()
				}
				return simResult{Key: key, Sum: sum, Mean: mean / 100}, nil
			},
		})
	}
	return jobs
}

// assemble renders results in batch order — the deterministic aggregation a
// real caller performs.
func assemble(t *testing.T, jobs []Job[simResult], results map[string]simResult) []byte {
	t.Helper()
	ordered := make([]simResult, 0, len(jobs))
	for _, j := range jobs {
		r, ok := results[j.Key]
		if !ok {
			t.Fatalf("missing result for %s", j.Key)
		}
		ordered = append(ordered, r)
	}
	b, err := json.Marshal(ordered)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDeterminismParallelMatchesSerial(t *testing.T) {
	jobs := simJobs(24, true)
	serial, repS, err := Run(Config[simResult]{Workers: 1, Seed: 42}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, repP, err := Run(Config[simResult]{Workers: 8, Seed: 42}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if repS.Failed() != 0 || repP.Failed() != 0 {
		t.Fatalf("unexpected failures: serial=%d parallel=%d", repS.Failed(), repP.Failed())
	}
	a, b := assemble(t, jobs, serial), assemble(t, jobs, parallel)
	if string(a) != string(b) {
		t.Fatalf("parallel run diverged from serial:\nserial:   %s\nparallel: %s", a, b)
	}
	// A different base seed must change the results.
	other, _, err := Run(Config[simResult]{Workers: 8, Seed: 43}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if string(assemble(t, jobs, other)) == string(a) {
		t.Fatal("base seed does not reach the jobs")
	}
}

func TestSeedForIsIdentityKeyed(t *testing.T) {
	if SeedFor(1, "a") != SeedFor(1, "a") {
		t.Fatal("SeedFor must be deterministic")
	}
	if SeedFor(1, "a") == SeedFor(1, "b") {
		t.Fatal("distinct keys must get distinct seeds")
	}
	if SeedFor(1, "a") == SeedFor(2, "a") {
		t.Fatal("distinct base seeds must get distinct seeds")
	}
	// Zero base stays usable (the harness default seed may be anything).
	if SeedFor(0, "a") == SeedFor(0, "b") {
		t.Fatal("zero base must still separate keys")
	}
}

func TestStopDrainsWithoutDispatchingMore(t *testing.T) {
	// Closing Stop mid-run must let in-flight jobs finish and count the
	// undispatched remainder as Aborted. (That a second run over the same
	// result store completes the batch is TestStopDrainsThenResumes.)
	jobs := simJobs(10, false)

	stop := make(chan struct{})
	var settled atomic.Int64
	gate := make(chan struct{})
	gated := make([]Job[simResult], len(jobs))
	copy(gated, jobs)
	for i := range gated {
		run := jobs[i].Run
		gated[i].Run = func(seed uint64) (simResult, error) {
			<-gate // hold every dispatched job until the drain is signaled
			return run(seed)
		}
	}
	done := make(chan struct{})
	var rep *Report
	var drained map[string]simResult
	var err error
	go func() {
		defer close(done)
		drained, rep, err = Run(Config[simResult]{
			Workers: 2, Seed: 5, Stop: stop,
			OnDone: func(Status, JobResult[simResult]) { settled.Add(1) },
		}, gated)
	}()
	close(stop) // drain before any job can complete...
	close(gate) // ...then release the (at most workers+1 queued) in-flight jobs
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted == 0 {
		t.Fatalf("drain dispatched the whole batch (aborted=0, completed=%d)", rep.Completed)
	}
	if rep.Completed+rep.Aborted != rep.Total {
		t.Fatalf("completed=%d + aborted=%d != total=%d", rep.Completed, rep.Aborted, rep.Total)
	}
	// The cursor's contract: workers claim jobs in batch order and finish
	// what they claim, so the completed keys are a prefix of the batch.
	assertPrefix := func(done map[string]simResult, rep *Report) {
		t.Helper()
		for i, j := range jobs {
			if _, ok := done[j.Key]; ok != (i < rep.Completed) {
				t.Fatalf("job %d (%s) completed=%v, want the first %d jobs exactly", i, j.Key, ok, rep.Completed)
			}
		}
	}
	assertPrefix(drained, rep)

	// The same contract when the drain lands mid-batch: job 3 closes Stop
	// itself and later jobs wait for the close, so jobs 0-3 finish, plus
	// job 4 if the second worker had claimed it, and nothing after.
	midStop := make(chan struct{})
	mid := make([]Job[simResult], len(jobs))
	copy(mid, jobs)
	mid[3].Run = func(seed uint64) (simResult, error) {
		close(midStop)
		return jobs[3].Run(seed)
	}
	for i := 4; i < len(mid); i++ {
		run := jobs[i].Run
		mid[i].Run = func(seed uint64) (simResult, error) {
			<-midStop // at most the one job the second worker claimed early
			return run(seed)
		}
	}
	midDone, midRep, err := Run(Config[simResult]{Workers: 2, Seed: 5, Stop: midStop}, mid)
	if err != nil {
		t.Fatal(err)
	}
	if midRep.Completed < 4 || midRep.Completed > 5 || midRep.Completed+midRep.Aborted != midRep.Total {
		t.Fatalf("mid-batch drain: completed=%d aborted=%d, want 4 or 5 completed of %d", midRep.Completed, midRep.Aborted, midRep.Total)
	}
	assertPrefix(midDone, midRep)
}

func TestPanicIsolationAndRetry(t *testing.T) {
	var firstAttempts atomic.Int64
	jobs := []Job[simResult]{
		{Key: "flaky", Run: func(seed uint64) (simResult, error) {
			if firstAttempts.Add(1) == 1 {
				panic("transient panic")
			}
			return simResult{Key: "flaky", Sum: seed}, nil
		}},
		{Key: "doomed", Run: func(uint64) (simResult, error) {
			panic("permanent panic")
		}},
		{Key: "healthy", Run: func(seed uint64) (simResult, error) {
			return simResult{Key: "healthy", Sum: seed}, nil
		}},
	}
	res, rep, err := Run(Config[simResult]{Workers: 2, Seed: 9, Retries: 1}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 1 || rep.Failures[0].Key != "doomed" {
		t.Fatalf("failures = %+v, want only doomed", rep.Failures)
	}
	if !strings.Contains(rep.Failures[0].Err, "permanent panic") {
		t.Fatalf("failure should carry the panic message, got %q", rep.Failures[0].Err)
	}
	if rep.Failures[0].Attempts != 2 {
		t.Fatalf("doomed attempts = %d, want 2 (one retry)", rep.Failures[0].Attempts)
	}
	if _, ok := res["flaky"]; !ok {
		t.Fatal("flaky job must succeed on retry")
	}
	if _, ok := res["healthy"]; !ok {
		t.Fatal("healthy job lost")
	}
	if rep.Retried < 2 {
		t.Fatalf("retried = %d, want >= 2", rep.Retried)
	}
}

func TestBadBatchesRejected(t *testing.T) {
	ok := func(uint64) (simResult, error) { return simResult{}, nil }
	if _, _, err := Run(Config[simResult]{}, []Job[simResult]{{Key: "a", Run: ok}, {Key: "a", Run: ok}}); err == nil {
		t.Fatal("duplicate keys must be rejected")
	}
	if _, _, err := Run(Config[simResult]{}, []Job[simResult]{{Key: "", Run: ok}}); err == nil {
		t.Fatal("empty key must be rejected")
	}
	if _, _, err := Run(Config[simResult]{}, []Job[simResult]{{Key: "a"}}); err == nil {
		t.Fatal("nil run must be rejected")
	}
}

func TestProgressCallbackAndMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	jobs := simJobs(10, false)
	var calls int
	var lastDone int
	_, rep, err := Run(Config[simResult]{
		Workers: 4, Seed: 5, Metrics: m,
		OnDone: func(st Status, jr JobResult[simResult]) {
			calls++
			if st.Total != 10 {
				t.Errorf("status total = %d", st.Total)
			}
			if st.Done < lastDone {
				t.Errorf("done went backwards: %d -> %d", lastDone, st.Done)
			}
			lastDone = st.Done
			if jr.Key == "" {
				t.Error("job result without key")
			}
		},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 10 || rep.Completed != 10 {
		t.Fatalf("OnDone calls = %d, completed = %d", calls, rep.Completed)
	}
	text := string(reg.Published())
	for _, want := range []string{
		"engine_jobs_done_total 10",
		"engine_jobs_total 10",
		"engine_jobs_remaining 0",
		"engine_runs_finished_total 1",
		"engine_running 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("published metrics missing %q:\n%s", want, text)
		}
	}
}

func TestReportString(t *testing.T) {
	r := &Report{Total: 10, Completed: 8, Retried: 2, Workers: 4,
		Failures: []Failure{{Key: "x"}, {Key: "y"}}, Elapsed: 1500 * time.Millisecond}
	s := r.String()
	for _, want := range []string{"8/10", "4 workers", "2 retries", "2 FAILED"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
}
