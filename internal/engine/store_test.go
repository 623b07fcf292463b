package engine_test

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/harness"
)

// A sweep keeps nothing between runs; these tests pin what it gets when its
// points go through the one thing that does, a fabric.Coordinator's result
// store, the way disha-sweep -journal runs: a fresh coordinator per
// "process", OpenStore on the shared file, every point through Execute. What
// a run took from the file reads off Stats: CacheHits were served, LocalRuns
// computed. They were engine journal tests until PR 25 and keep their names
// (and this package path, which an external test package may share while
// importing fabric, engine's own importer; moving them beside the store
// renames thirteen test ids at once, which CHANGES.md, PR 26, explains it did
// not).

// runBatch offers n stub points under base seed to c all at once, as RunWith
// does, and returns the results by key and how many points failed. local, if
// non-nil, replaces purePoint as point i's computation.
func runBatch(c *fabric.Coordinator, n int, base uint64, local func(i int, seed uint64) (harness.PointResult, error)) (map[string]harness.PointResult, int) {
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		results = make(map[string]harness.PointResult, n)
		failed  int
	)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("point-%02d", i)
		seed := engine.SeedFor(base, key)
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr, err := c.Execute(nil, harness.PointTask{Key: key, Seed: seed}, func() (harness.PointResult, error) {
				if local != nil {
					return local(i, seed)
				}
				return purePoint(seed)
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failed++
			} else {
				results[key] = pr
			}
		}()
	}
	wg.Wait()
	return results, failed
}

// openStore is one "process" over the store file: a coordinator that
// loaded it, closed with the test.
func openStore(t *testing.T, path string, wantLoaded int) *fabric.Coordinator {
	t.Helper()
	c := fabric.NewCoordinator(fabric.CoordinatorOptions{})
	t.Cleanup(c.Close)
	if n, err := c.OpenStore(path); err != nil || n != wantLoaded {
		t.Fatalf("OpenStore: loaded %d records, err %v; want %d", n, err, wantLoaded)
	}
	return c
}

// runStored runs n pure jobs under base seed through c and checks what the
// store served and what ran.
func runStored(t *testing.T, c *fabric.Coordinator, n int, seed uint64, wantHits, wantRuns int64) map[string]harness.PointResult {
	t.Helper()
	res, failed := runBatch(c, n, seed, nil)
	if failed != 0 || len(res) != n {
		t.Fatalf("run through the store: %d results, %d failed", len(res), failed)
	}
	if st := c.Stats(); st.CacheHits != wantHits || st.LocalRuns != wantRuns || st.StoreErrors != 0 {
		t.Fatalf("served %d, ran %d (store_errors %d); want %d served, %d run", st.CacheHits, st.LocalRuns, st.StoreErrors, wantHits, wantRuns)
	}
	return res
}

// clean is the store-free reference: the same jobs through a coordinator
// with no file.
func clean(t *testing.T, n int, seed uint64) map[string]harness.PointResult {
	t.Helper()
	c := fabric.NewCoordinator(fabric.CoordinatorOptions{})
	defer c.Close()
	return runStored(t, c, n, seed, 0, int64(n))
}

// TestResumeEqualsUninterrupted: failures are not stored, and only they run
// again; a fully stored batch runs nothing.
func TestResumeEqualsUninterrupted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal.jsonl")
	want := clean(t, 12, 7)

	// First attempt: half the jobs fail (a sweep that died partway).
	c1 := openStore(t, path, 0)
	half, failed := runBatch(c1, 12, 7, func(i int, seed uint64) (harness.PointResult, error) {
		if i%2 == 1 {
			return harness.PointResult{}, fmt.Errorf("injected crash")
		}
		return purePoint(seed)
	})
	if failed != 6 || len(half) != 6 {
		t.Fatalf("partial run: %d completed, %d failed", len(half), failed)
	}
	c1.Close()

	// The six successes are served, the six failures computed, and the
	// results equal the uninterrupted run's.
	c2 := openStore(t, path, 6)
	if got := runStored(t, c2, 12, 7, 6, 6); !maps.Equal(got, want) {
		t.Fatalf("resumed run diverged from uninterrupted run:\nwant %v\ngot  %v", want, got)
	}
	c2.Close()

	// A fully stored sweep must not run any job at all.
	c3 := openStore(t, path, 12)
	all, failed := runBatch(c3, 12, 7, func(int, uint64) (harness.PointResult, error) {
		panic("point executed despite a full store")
	})
	if failed != 0 || c3.Stats().LocalRuns != 0 {
		t.Fatalf("full resume: %d failed, local_runs %d", failed, c3.Stats().LocalRuns)
	}
	if !maps.Equal(all, want) {
		t.Fatal("store round-trip changed the results")
	}
}

func TestJournalToleratesTornLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal.jsonl")
	c1 := openStore(t, path, 0)
	runStored(t, c1, 4, 3, 0, 4)
	c1.Close()
	// Simulate a kill mid-write: append garbage and a torn JSON prefix.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json\n{\"key\":\"point-00\",\"val"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	runStored(t, openStore(t, path, 4), 4, 3, 4, 0)
}

func TestJournalResumeSkipsTruncatedLastLine(t *testing.T) {
	// A SIGKILL can land mid-append, leaving the file's final record cut
	// short at an arbitrary byte. The next run must treat the partial line as
	// never-written — compute exactly that job — and still produce results
	// identical to an uninterrupted run.
	path := filepath.Join(t.TempDir(), "sweep.journal.jsonl")
	want := clean(t, 6, 11)
	c1 := openStore(t, path, 0)
	runStored(t, c1, 6, 11, 0, 6)
	c1.Close()

	// Truncate the file mid-way through its last line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("store has %d lines, want 6", len(lines))
	}
	last := lines[len(lines)-1]
	truncated := strings.Join(lines[:len(lines)-1], "\n") + "\n" + last[:len(last)/2]
	if err := os.WriteFile(path, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := openStore(t, path, 5)
	if got := runStored(t, c2, 6, 11, 5, 1); !maps.Equal(got, want) {
		t.Fatalf("truncated-store resume diverged:\nwant %v\ngot  %v", want, got)
	}
	c2.Close()
	// The recomputed record was appended behind the torn tail; it must sit on
	// a line of its own, or the next read would lose it along with the tail.
	runStored(t, openStore(t, path, 6), 6, 11, 6, 0)
}

// TestJournalIsKeyedByKeyAndSeed: a record is a result for one (key, derived
// seed) pair. A run under another base seed must not be served it.
func TestJournalIsKeyedByKeyAndSeed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal.jsonl")
	c1 := openStore(t, path, 0)
	runStored(t, c1, 4, 7, 0, 4)
	c1.Close()

	c2 := openStore(t, path, 4)
	if got := runStored(t, c2, 4, 8, 0, 4); !maps.Equal(got, clean(t, 4, 8)) {
		t.Fatal("seed 8 run over a seed 7 store differs from a store-free seed 8 run")
	}
	c2.Close()
	// The fresh records come later in the file, so they win the next read.
	runStored(t, openStore(t, path, 4), 4, 8, 4, 0)
}

// TestStopDrainsThenResumes: what a drained sweep finished is in the store,
// and a second sweep over it completes the batch with the results of an
// uninterrupted one.
func TestStopDrainsThenResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal.jsonl")
	through := func(c *fabric.Coordinator, opts harness.RunOptions) harness.RunOptions {
		opts.Parallel = 2
		opts.PointRunner = c.Execute
		return opts
	}
	want, _, err := stubSpec(t, 5).RunWith(harness.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	c1 := openStore(t, path, 0)
	started, gate, stop := make(chan struct{}, 24), make(chan struct{}), make(chan struct{})
	done := make(chan *engine.Report, 1)
	go func() {
		_, rep, _ := gatedSpec(t, started, gate).RunWith(through(c1, harness.RunOptions{Stop: stop}))
		done <- rep
	}()
	<-started
	<-started   // two points hold the slots
	close(stop) // drain before either can complete...
	close(gate) // ...then release them
	rep := <-done
	if rep == nil || rep.Completed != 2 || rep.Completed+rep.Aborted != rep.Total {
		t.Fatalf("drain did not land mid-batch: %v", rep)
	}
	c1.Close()
	harness.PointHook = nil // the resumed sweep is not gated

	c2 := openStore(t, path, rep.Completed)
	got, _, err := stubSpec(t, 5).RunWith(through(c2, harness.RunOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.CacheHits != int64(rep.Completed) || st.LocalRuns != int64(rep.Aborted) {
		t.Fatalf("resumed sweep: %d served, %d run; want %d and %d", st.CacheHits, st.LocalRuns, rep.Completed, rep.Aborted)
	}
	if got.CSV() != want.CSV() {
		t.Fatal("drain+resume changed the results")
	}
}

// FuzzReadJournal feeds ReadJournal hostile files — the bytes a kill, a full
// disk or another program can leave behind in a -journal file or a
// results.jsonl. It must never panic; it returns records or an error; every
// returned record is usable (non-empty key, non-nil value); and a
// well-formed line ahead of the garbage survives it. The first line is a
// record as PR 18 wrote them, with the two fields nothing reads any more.
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
		recs, err := fabric.ReadJournal(path)
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
