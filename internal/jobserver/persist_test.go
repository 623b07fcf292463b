package jobserver

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/harness"
)

func startDurableServer(t *testing.T, dataDir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewWithOptions(Options{QueueDepth: 4, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func fetchCSV(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + id + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// TestPersistentJobsResumeAcrossServers simulates the disha-serve crash
// story: a job runs to completion under one server (leaving its results in
// the data dir's store), the server is torn down, and a new server over the
// same data dir serves the request — rephrased, then widened — from the
// store: bit-identical CSV, nothing recomputed that any job already finished.
// The store is the file disha-sweep -journal keeps, so either opens the other's.
func TestPersistentJobsResumeAcrossServers(t *testing.T) {
	dataDir := t.TempDir()
	store := filepath.Join(dataDir, "results.jsonl")

	s1, ts1 := startDurableServer(t, dataDir)
	st := submit(t, ts1, tinyReq())
	st = waitDone(t, ts1, st.ID)
	if st.State != "done" {
		t.Fatalf("first job state = %s (%s)", st.State, st.Error)
	}
	firstCSV := fetchCSV(t, ts1, st.ID)
	if firstCSV == "" {
		t.Fatal("empty CSV from first run")
	}
	total := st.Report.Total
	s1.Close()
	<-s1.runnerDone
	// One store, whatever the requests were, and nothing else.
	if entries, _ := os.ReadDir(dataDir); len(entries) != 1 || entries[0].Name() != "results.jsonl" {
		t.Fatalf("data dir after a finished job: %v, want only results.jsonl", entries)
	}

	// A "restarted" server over the same data dir. The request differs in a
	// field that names no point (parallel): every point comes from the store.
	s2, ts2 := startDurableServer(t, dataDir)
	rephrased := tinyReq()
	rephrased.Parallel = 1
	st2 := waitDone(t, ts2, submit(t, ts2, rephrased).ID)
	if st2.State != "done" {
		t.Fatalf("resubmitted job state = %s (%s)", st2.State, st2.Error)
	}
	if fs := s2.fleet.Stats(); fs.CacheHits != int64(total) || fs.LocalRuns != 0 {
		t.Fatalf("restarted server: cache_hits=%d local_runs=%d, want %d and 0", fs.CacheHits, fs.LocalRuns, total)
	}
	if got := fetchCSV(t, ts2, st2.ID); got != firstCSV {
		t.Fatal("CSV served from the store differs from the original run")
	}
	// A superset request runs only its new half.
	wider := tinyReq()
	wider.Loads = []float64{0.2, 0.3}
	st3 := waitDone(t, ts2, submit(t, ts2, wider).ID)
	if st3.State != "done" || st3.Report.Total != 2*total {
		t.Fatalf("superset job: state %s, report %+v", st3.State, st3.Report)
	}
	if fs := s2.fleet.Stats(); fs.LocalRuns != int64(st3.Report.Total/2) {
		t.Fatalf("superset job ran %d points, want the new half (%d)", fs.LocalRuns, st3.Report.Total/2)
	}
	s2.Close()
	<-s2.runnerDone

	// The server's file is a sweep journal (what disha-sweep -journal does
	// with it: a coordinator of its own, no workers)...
	req := tinyReq()
	spec, err := req.spec()
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(journal string) (*harness.Result, fabric.Stats) {
		t.Helper()
		c := fabric.NewCoordinator(fabric.CoordinatorOptions{})
		defer c.Close()
		if _, err := c.OpenStore(journal); err != nil {
			t.Fatal(err)
		}
		res, _, err := spec.RunWith(harness.RunOptions{PointRunner: c.Execute})
		if err != nil {
			t.Fatal(err)
		}
		return res, c.Stats()
	}
	if res, fs := sweep(store); fs.LocalRuns != 0 || res.CSV() != firstCSV {
		t.Fatalf("sweep over the server's store ran %d points (served %d)", fs.LocalRuns, fs.CacheHits)
	}
	// ...and a sweep journal is a server's store.
	otherDir := t.TempDir()
	sweep(filepath.Join(otherDir, "results.jsonl"))
	s4, ts4 := startDurableServer(t, otherDir)
	st4 := waitDone(t, ts4, submit(t, ts4, tinyReq()).ID)
	if fs := s4.fleet.Stats(); st4.State != "done" || fs.LocalRuns != 0 {
		t.Fatalf("server over a sweep's journal: state %s, local_runs=%d, want 0", st4.State, fs.LocalRuns)
	}
	if got := fetchCSV(t, ts4, st4.ID); got != firstCSV {
		t.Fatal("CSV served from a sweep's journal differs from the original run")
	}
}

// TestDrainLeavesFinishedPointsInStore: a drain lets executing points finish,
// so it must not close the store under them — every point the drained job
// counts as completed has its record on disk when Drain returns.
func TestDrainLeavesFinishedPointsInStore(t *testing.T) {
	dataDir := t.TempDir()
	s, ts := startDurableServer(t, dataDir)
	slow := tinyReq()
	slow.Measure = 2500
	slow.Loads = []float64{0.2, 0.3, 0.4, 0.5}
	slow.Parallel = 2
	st := submit(t, ts, slow)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var js JobStatus
		getJSON(t, ts.URL+"/jobs/"+st.ID, &js)
		if js.Progress.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no point finished: %+v", js)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	var js JobStatus
	getJSON(t, ts.URL+"/jobs/"+st.ID, &js)
	if js.Report == nil || js.Report.Completed == 0 || js.Report.Aborted == 0 {
		t.Fatalf("drain did not land mid-sweep: %+v", js.Report)
	}
	recs, err := fabric.ReadJournal(filepath.Join(dataDir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if fs := s.fleet.Stats(); len(recs) != js.Report.Completed || fs.StoreErrors != 0 {
		t.Fatalf("store holds %d records for %d completed points (store_errors=%d)", len(recs), js.Report.Completed, fs.StoreErrors)
	}
}
