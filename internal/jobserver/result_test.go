package jobserver

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/harness"
)

// fetch returns the body of GET url, which must answer 200.
func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v: %s", url, resp.StatusCode, err, body)
	}
	return string(body)
}

// results returns a settled job's result.json and result.csv.
func results(t *testing.T, ts *httptest.Server, id string) (json, csv string) {
	t.Helper()
	return fetch(t, ts.URL+"/jobs/"+id+"/result.json"), fetch(t, ts.URL+"/jobs/"+id+"/result.csv")
}

// direct returns what the job server must answer for req: the result.json
// and result.csv of a Spec.RunWith of the request, with no coordinator.
func direct(t *testing.T, req SweepRequest) (json, csv string) {
	t.Helper()
	spec, err := req.spec()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := spec.RunWith(harness.RunOptions{Replicas: req.Replicas})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, jobResult{Name: req.Figure, Points: res.Points})
	return rec.Body.String(), res.CSV()
}

// TestResultMatchesDirectRun: a settled job keeps no result of its own, so
// its result.json and result.csv are collected from the coordinator's cache
// on each read. They are byte for byte those of a direct Spec.RunWith of the
// request: for a single run, for three replicas per point, and for a
// resubmission the cache serves whole.
func TestResultMatchesDirectRun(t *testing.T) {
	s, ts := startServer(t)
	replicated := tinyReq()
	replicated.Replicas = 3
	for _, c := range []struct {
		name string
		req  SweepRequest
	}{
		{"single run", tinyReq()},
		{"three replicas", replicated},
		{"cached resubmission", tinyReq()},
	} {
		hits := s.fleet.Stats().CacheHits
		st := waitDone(t, ts, submit(t, ts, c.req).ID)
		if st.State != "done" {
			t.Fatalf("%s: job state %s (%s)", c.name, st.State, st.Error)
		}
		if c.name == "cached resubmission" && s.fleet.Stats().CacheHits-hits != int64(st.Report.Total) {
			t.Fatalf("%s: %d of %d points served from the cache", c.name, s.fleet.Stats().CacheHits-hits, st.Report.Total)
		}
		gotJSON, gotCSV := results(t, ts, st.ID)
		wantJSON, wantCSV := direct(t, c.req)
		if gotJSON != wantJSON {
			t.Errorf("%s: result.json\n%s\nwant\n%s", c.name, gotJSON, wantJSON)
		}
		if gotCSV != wantCSV {
			t.Errorf("%s: result.csv\n%s\nwant\n%s", c.name, gotCSV, wantCSV)
		}
	}
}

// TestResultKeepsItsOwnPoints: a failed job and a drained job serve the
// points their own runs completed, and keep serving exactly those after a
// later job on the same coordinator completes the rest — which the
// coordinator's cache then holds.
func TestResultKeepsItsOwnPoints(t *testing.T) {
	coord := fabric.NewCoordinator(fabric.CoordinatorOptions{})
	defer coord.Close()
	serve := func() (*Server, *httptest.Server) {
		s, err := NewWithOptions(Options{QueueDepth: 4, Fleet: coord})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		return s, ts
	}
	t.Cleanup(func() { harness.PointHook = nil })
	s1, ts1 := serve()

	// Failed: every point at load 0.3 panics.
	failing := tinyReq()
	failing.Loads = []float64{0.2, 0.3}
	spec, err := failing.spec()
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := spec.Tasks(0)
	if err != nil {
		t.Fatal(err)
	}
	poison := map[string]bool{}
	for _, task := range tasks {
		poison[task.Key] = task.Load == 0.3
	}
	harness.PointHook = func(key string) {
		if poison[key] {
			panic("poison")
		}
	}
	failed := waitDone(t, ts1, submit(t, ts1, failing).ID)
	if failed.State != "failed" || failed.Report.Completed != 2 || failed.Report.Failed() != 2 {
		t.Fatalf("poisoned job: state %s, report %+v", failed.State, failed.Report)
	}

	// Drained: the first of four serial points is held until the drain has
	// begun, so it completes and the other three are withdrawn.
	draining := tinyReq()
	draining.Loads = []float64{0.4, 0.5}
	draining.Parallel = 1
	started, release := make(chan struct{}, 1), make(chan struct{})
	harness.PointHook = func(string) {
		select {
		case started <- struct{}{}:
			<-release
		default:
		}
	}
	id := submit(t, ts1, draining).ID
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s1.Drain(ctx) }()
	<-s1.drainCh
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	harness.PointHook = nil
	held := waitDone(t, ts1, id)
	if held.State != "failed" || held.Report.Completed != 1 || held.Report.Aborted != 3 {
		t.Fatalf("drained job: state %s, report %+v", held.State, held.Report)
	}

	before := map[string][2]string{}
	for _, id := range []string{failed.ID, held.ID} {
		json, csv := results(t, ts1, id)
		before[id] = [2]string{json, csv}
	}
	// The failed job serves the load its run completed and not the other.
	if wantJSON, _ := direct(t, failing); before[failed.ID][0] == wantJSON {
		t.Fatal("the failed job serves the points that failed")
	}

	// A second server on the coordinator completes both requests.
	_, ts2 := serve()
	for _, req := range []SweepRequest{failing, draining} {
		st := waitDone(t, ts2, submit(t, ts2, req).ID)
		if st.State != "done" {
			t.Fatalf("later job: state %s (%s)", st.State, st.Error)
		}
		gotJSON, gotCSV := results(t, ts2, st.ID)
		if wantJSON, wantCSV := direct(t, req); gotJSON != wantJSON || gotCSV != wantCSV {
			t.Fatalf("later job's result differs from a direct run")
		}
	}
	if n := coord.Stats().CacheSize; n != 8 {
		t.Fatalf("coordinator caches %d points, want all 8", n)
	}
	for _, id := range []string{failed.ID, held.ID} {
		if json, csv := results(t, ts1, id); json != before[id][0] || csv != before[id][1] {
			t.Errorf("%s's result changed once a later job completed its points:\n%s\nwas\n%s", id, csv, before[id][1])
		}
	}
}

// TestResultServedAfterDrainAndClose: a finished job's result outlives the
// runner. Drain and Close both end it, and the runner closes the server's
// private coordinator on its way out; a closed coordinator keeps its cache,
// so the result reads the same as before.
func TestResultServedAfterDrainAndClose(t *testing.T) {
	for _, stop := range []string{"drain", "close"} {
		t.Run(stop, func(t *testing.T) {
			s, ts := startServer(t)
			st := waitDone(t, ts, submit(t, ts, tinyReq()).ID)
			if st.State != "done" {
				t.Fatalf("job state %s (%s)", st.State, st.Error)
			}
			json, csv := results(t, ts, st.ID)
			if stop == "drain" {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := s.Drain(ctx); err != nil {
					t.Fatal(err)
				}
			} else {
				s.Close()
				<-s.runnerDone
			}
			// A closed coordinator answers a lease request at once; an open
			// one holds it for half its 15 s lease TTL.
			t0 := time.Now()
			if wu := s.fleet.LeaseWait(context.Background(), "probe"); wu != nil || time.Since(t0) > time.Second {
				t.Fatalf("the private coordinator is open after the runner exited (lease %v after %v)", wu, time.Since(t0))
			}
			if gotJSON, gotCSV := results(t, ts, st.ID); gotJSON != json || gotCSV != csv {
				t.Fatalf("result after %s:\n%s\nwas\n%s", stop, gotCSV, csv)
			}
		})
	}
}
