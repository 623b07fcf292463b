package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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

func TestResumeEqualsUninterrupted(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.journal.jsonl")
	jobs := simJobs(12, false)

	clean, _, err := Run(Config[simResult]{Workers: 4, Seed: 7}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := assemble(t, jobs, clean)

	// First attempt: half the jobs fail (simulating a sweep that died
	// partway); the journal checkpoints the successes.
	flaky := make([]Job[simResult], len(jobs))
	copy(flaky, jobs)
	for i := range flaky {
		if i%2 == 1 {
			flaky[i].Run = func(uint64) (simResult, error) {
				return simResult{}, fmt.Errorf("injected crash")
			}
		}
	}
	_, rep, err := Run(Config[simResult]{Workers: 4, Seed: 7, Journal: journal}, flaky)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 6 || rep.Completed != 6 {
		t.Fatalf("partial run: completed=%d failed=%d", rep.Completed, rep.Failed())
	}

	// Resume with the healthy jobs: the six checkpointed jobs must be served
	// from the journal, the rest recomputed, and the assembled bytes must
	// equal the uninterrupted run.
	resumed, rep2, err := Run(Config[simResult]{Workers: 4, Seed: 7, Journal: journal}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.FromJournal != 6 {
		t.Fatalf("restored %d jobs from journal, want 6", rep2.FromJournal)
	}
	if got := assemble(t, jobs, resumed); string(got) != string(want) {
		t.Fatalf("resumed run diverged from uninterrupted run:\nwant %s\ngot  %s", want, got)
	}

	// Resuming a fully journaled sweep must not run any job at all.
	poisoned := make([]Job[simResult], len(jobs))
	copy(poisoned, jobs)
	for i := range poisoned {
		poisoned[i].Run = func(uint64) (simResult, error) {
			panic("job executed despite full journal")
		}
	}
	all, rep3, err := Run(Config[simResult]{Workers: 4, Seed: 7, Journal: journal}, poisoned)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.FromJournal != len(jobs) || rep3.Failed() != 0 {
		t.Fatalf("full resume: restored=%d failed=%d", rep3.FromJournal, rep3.Failed())
	}
	if got := assemble(t, jobs, all); string(got) != string(want) {
		t.Fatal("journal round-trip changed the results")
	}
}

func TestJournalToleratesTornLines(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.journal.jsonl")
	jobs := simJobs(4, false)
	if _, _, err := Run(Config[simResult]{Workers: 2, Seed: 3, Journal: journal}, jobs); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-write: append garbage and a torn JSON prefix.
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json\n{\"key\":\"point-00\",\"val"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	res, rep, err := Run(Config[simResult]{Workers: 2, Seed: 3, Journal: journal}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromJournal != 4 || len(res) != 4 {
		t.Fatalf("torn journal broke resume: restored=%d results=%d", rep.FromJournal, len(res))
	}
}

func TestJournalResumeSkipsTruncatedLastLine(t *testing.T) {
	// A SIGKILL can land mid-append, leaving the journal's final record cut
	// short at an arbitrary byte. Resume must treat the partial line as
	// never-written — recompute exactly that job — and still produce results
	// identical to an uninterrupted run.
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.journal.jsonl")
	jobs := simJobs(6, false)

	clean, _, err := Run(Config[simResult]{Workers: 2, Seed: 11}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := assemble(t, jobs, clean)

	if _, _, err := Run(Config[simResult]{Workers: 2, Seed: 11, Journal: journal}, jobs); err != nil {
		t.Fatal(err)
	}
	// Truncate the file mid-way through its last line (drop the trailing
	// "}\n" plus a few value bytes) to simulate the crash.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimRight(string(data), "\n")
	lines := strings.Split(body, "\n")
	if len(lines) != 6 {
		t.Fatalf("journal has %d lines, want 6", len(lines))
	}
	last := lines[len(lines)-1]
	truncated := strings.Join(lines[:len(lines)-1], "\n") + "\n" + last[:len(last)/2]
	if err := os.WriteFile(journal, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	res, rep, err := Run(Config[simResult]{Workers: 2, Seed: 11, Journal: journal}, jobs)
	if err != nil {
		t.Fatalf("resume over a truncated journal must not fail: %v", err)
	}
	if rep.FromJournal != 5 {
		t.Fatalf("restored %d jobs, want 5 (the torn record must be recomputed)", rep.FromJournal)
	}
	if rep.Failed() != 0 {
		t.Fatalf("unexpected failures: %v", rep.Failures)
	}
	if got := assemble(t, jobs, res); string(got) != string(want) {
		t.Fatalf("truncated-journal resume diverged:\nwant %s\ngot  %s", want, got)
	}
	// The recomputed record was appended behind the torn tail; it must sit on
	// a line of its own, or the next read would lose it along with the tail.
	if _, rep, err = Run(Config[simResult]{Workers: 2, Seed: 11, Journal: journal}, jobs); err != nil || rep.FromJournal != 6 {
		t.Fatalf("second resume restored %d of 6 (err %v): the record after the torn line was lost", rep.FromJournal, err)
	}
}

func TestStopDrainsWithoutDispatchingMore(t *testing.T) {
	// Closing Stop mid-run must let in-flight jobs finish, journal them, and
	// count the undispatched remainder as Aborted — and a resumed run must
	// complete the batch with results identical to an uninterrupted one.
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.journal.jsonl")
	jobs := simJobs(10, false)

	clean, _, err := Run(Config[simResult]{Workers: 2, Seed: 5}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := assemble(t, jobs, clean)

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
	go func() {
		defer close(done)
		drained, rep, err = Run(Config[simResult]{
			Workers: 2, Seed: 5, Journal: journal, Stop: stop,
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

	// Resume finishes the batch; the combined results match the clean run.
	res, rep2, err := Run(Config[simResult]{Workers: 2, Seed: 5, Journal: journal}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.FromJournal != rep.Completed {
		t.Fatalf("resume restored %d, want %d", rep2.FromJournal, rep.Completed)
	}
	if got := assemble(t, jobs, res); string(got) != string(want) {
		t.Fatal("drain+resume changed the results")
	}
}

// TestJournalIsKeyedByKeyAndSeed: a record is a result for one (key, derived
// seed) pair. A run under another base seed must not be served it.
func TestJournalIsKeyedByKeyAndSeed(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.journal.jsonl")
	jobs := simJobs(4, false)
	if _, _, err := Run(Config[simResult]{Workers: 2, Seed: 7, Journal: journal}, jobs); err != nil {
		t.Fatal(err)
	}
	clean, _, err := Run(Config[simResult]{Workers: 2, Seed: 8}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := Run(Config[simResult]{Workers: 2, Seed: 8, Journal: journal}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromJournal != 0 {
		t.Fatalf("seed 8 run was served %d records written under seed 7", rep.FromJournal)
	}
	if want := assemble(t, jobs, clean); string(assemble(t, jobs, got)) != string(want) {
		t.Fatal("seed 8 run over a seed 7 journal differs from a journal-free seed 8 run")
	}
	// The fresh records come later in the file, so they win the next read.
	if _, rep, err = Run(Config[simResult]{Workers: 2, Seed: 8, Journal: journal}, jobs); err != nil || rep.FromJournal != len(jobs) {
		t.Fatalf("rerun under seed 8: restored %d of %d, err %v", rep.FromJournal, len(jobs), err)
	}
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
	r := &Report{Total: 10, Completed: 8, FromJournal: 3, Retried: 2, Workers: 4,
		Failures: []Failure{{Key: "x"}, {Key: "y"}}, Elapsed: 1500 * time.Millisecond}
	s := r.String()
	for _, want := range []string{"8/10", "4 workers", "3 restored", "2 retries", "2 FAILED"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
}

// FuzzReadJournal feeds ReadJournal hostile files — the bytes a kill, a full
// disk or another program can leave behind. The coordinator's result store
// reads through the same function, so this covers both files. It must never
// panic; it returns records or an error; every returned record is usable
// (non-empty key, non-nil value); and a well-formed line ahead of the
// garbage survives it.
func FuzzReadJournal(f *testing.F) {
	const good = `{"key":"first","seed":9,"attempts":1,"elapsed_ms":0.5,"value":{"sum":1}}` + "\n"
	for _, seed := range []string{
		"",
		`{"key":"a","seed":1,"value":{"sum":2}}` + "\n" + `{"key":"b","se`,                                // torn tail
		"\x00\x00\x00\n" + `{"key":"a","value":1}` + "\x00\n",                                             // NUL bytes
		`{"key":"a","value":1}` + "\n" + `{"key":"a","value":2}` + "\n",                                   // duplicate keys
		"[1,2,3]\n\"str\"\n42\nnull\n",                                                                    // non-object lines
		`{"key":"a","seed":1,"value":}` + "\n" + `{"key":"b","value":null}` + "\n" + `{"key":"c"}` + "\n", // empty value
		`{"key":"","value":1}` + "\n\n\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, garbage []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, append([]byte(good), garbage...), 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadJournal(path)
		if err != nil {
			if recs != nil {
				t.Fatalf("error %v returned alongside %d records", err, len(recs))
			}
			return // e.g. a line beyond the scanner's 16 MiB bound
		}
		for key, rec := range recs {
			if key == "" || rec.Key != key || rec.Value == nil {
				t.Fatalf("unusable record under %q: %+v", key, rec)
			}
		}
		// The first line ends in a newline, so nothing after it can tear it;
		// only a later well-formed record for the same key may replace it.
		if _, ok := recs["first"]; !ok {
			t.Fatalf("well-formed first line lost behind %q", garbage)
		}
	})
}
