package jobserver

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/harness"
)

// TestFleetModeMatchesSerialRun runs the same sweep twice: once on a plain
// in-process server and once in fleet mode where every point executes on a
// remote worker over HTTP. The CSVs must be byte-identical — the fabric is
// an execution transport, never a result transform — and a resubmission in
// fleet mode must be served entirely from the shared result cache.
func TestFleetModeMatchesSerialRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulation points")
	}
	// Serial reference.
	_, serialTS := startServer(t)
	serial := submit(t, serialTS, tinyReq())
	if st := waitDone(t, serialTS, serial.ID); st.State != "done" {
		t.Fatalf("serial job: %s (%s)", st.State, st.Error)
	}
	wantCSV := fetchCSV(t, serialTS, serial.ID)

	// Fleet server with one remote worker.
	coord := fabric.NewCoordinator(fabric.CoordinatorOptions{LeaseTTL: 5 * time.Second})
	defer coord.Close()
	s, err := NewWithOptions(Options{QueueDepth: 4, Fleet: coord})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := fabric.NewWorker(fabric.WorkerOptions{
		Coordinator:   ts.URL + "/fleet",
		ID:            "fleet-test-worker",
		CheckpointDir: t.TempDir(),
		Logf:          t.Logf,
	})
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); w.Run(ctx) }()
	for deadline := time.Now().Add(10 * time.Second); coord.Stats().WorkersLive == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered through /fleet/")
		}
		time.Sleep(10 * time.Millisecond)
	}

	st := submit(t, ts, tinyReq())
	if final := waitDone(t, ts, st.ID); final.State != "done" {
		t.Fatalf("fleet job: %s (%s)", final.State, final.Error)
	}
	if got := fetchCSV(t, ts, st.ID); got != wantCSV {
		t.Fatalf("fleet CSV diverges from serial run:\n--- serial ---\n%s--- fleet ---\n%s", wantCSV, got)
	}
	fs := coord.Stats()
	if fs.RemoteRuns == 0 {
		t.Fatalf("no points ran remotely: %+v", fs)
	}
	if fs.LocalRuns != 0 {
		t.Fatalf("points leaked to local fallback with a live worker: %+v", fs)
	}

	// Identical resubmission: every point is a cache hit, nothing re-executes.
	before := fs.RemoteRuns
	st2 := submit(t, ts, tinyReq())
	if final := waitDone(t, ts, st2.ID); final.State != "done" {
		t.Fatalf("resubmitted fleet job: %s (%s)", final.State, final.Error)
	}
	if got := fetchCSV(t, ts, st2.ID); got != wantCSV {
		t.Fatal("cached fleet CSV diverges")
	}
	fs = coord.Stats()
	if fs.CacheHits == 0 {
		t.Fatalf("resubmission did not hit the result cache: %+v", fs)
	}
	if fs.RemoteRuns != before {
		t.Fatalf("resubmission re-executed points: %d -> %d remote runs", before, fs.RemoteRuns)
	}

	// The coordinator's status endpoint is reachable through the job server.
	var stats fabric.Stats
	if code := getJSON(t, ts.URL+"/fleet/status", &stats); code != http.StatusOK || stats.CacheHits == 0 {
		t.Fatalf("/fleet/status: code=%d stats=%+v", code, stats)
	}

	cancel()
	select {
	case <-workerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not stop")
	}
}

// TestDrainStopsAcceptingAndAbortsPending proves graceful shutdown: Drain
// refuses new submissions with 503 + Retry-After, aborts the in-flight
// sweep's undispatched points, and returns once the runner is idle.
func TestDrainStopsAcceptingAndAbortsPending(t *testing.T) {
	s := newServer(t, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A sweep with many serial points so a drain lands mid-run.
	slow := tinyReq()
	slow.Measure = 2500
	slow.Loads = []float64{0.2, 0.3, 0.4, 0.5}
	slow.Parallel = 1
	st := submit(t, ts, slow)

	// Wait until it is actually running.
	for deadline := time.Now().Add(10 * time.Second); ; {
		var js JobStatus
		getJSON(t, ts.URL+"/jobs/"+st.ID, &js)
		if js.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", js)
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}

	// The in-flight job settled as failed with the drain marker, and its
	// engine report accounts for every point as done, failed or aborted.
	var js JobStatus
	getJSON(t, ts.URL+"/jobs/"+st.ID, &js)
	if js.State != "failed" || !strings.Contains(js.Error, "drained by shutdown") {
		t.Fatalf("drained job: state=%s error=%q", js.State, js.Error)
	}
	if js.Report == nil || js.Report.Aborted == 0 {
		t.Fatalf("drained job report: %+v", js.Report)
	}
	if got := js.Report.Completed + js.Report.Aborted + js.Report.Failed(); got != js.Report.Total {
		t.Fatalf("report does not balance: %+v", js.Report)
	}

	// New submissions are refused with 503, Retry-After, and the structured
	// JSON error body.
	body, _ := json.Marshal(tinyReq())
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	var e struct {
		Error      string `json:"error"`
		RetryAfter int    `json:"retry_after_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" || e.RetryAfter < 1 {
		t.Fatalf("503 body not structured: %v (%+v)", err, e)
	}

	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestDrainWithdrawsQueuedPoints: a drain does not wait for units nobody
// started. The fleet here is one live worker id that never asks for work, so
// a job's eight points all sit pending; one is leased by hand. Drain withdraws
// the other seven at once — it does not wait for a worker to free up, nor the
// two lease TTLs (two minutes here, beyond the drain's deadline) after which
// the sweeper would pull them local and compute them — and still waits for
// the leased one, which settles and is in the store.
func TestDrainWithdrawsQueuedPoints(t *testing.T) {
	dataDir := t.TempDir()
	coord := fabric.NewCoordinator(fabric.CoordinatorOptions{LeaseTTL: time.Minute})
	defer coord.Close()
	s, err := NewWithOptions(Options{QueueDepth: 4, Fleet: coord, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	coord.Heartbeat("stalled", nil)

	req := tinyReq()
	req.Loads = []float64{0.2, 0.3, 0.4, 0.5}
	req.Parallel = 1
	st := submit(t, ts, req)
	waitFleet := func(what string, cond func(fabric.Stats) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(coord.Stats()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, coord.Stats())
			}
		}
	}
	waitFleet("all eight points pending", func(fs fabric.Stats) bool { return fs.QueueDepth == 8 })
	wu := coord.Lease("stalled")
	if wu == nil {
		t.Fatal("nothing to lease")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	waitFleet("the seven pending units to be withdrawn", func(fs fabric.Stats) bool { return fs.UnitsInFlight == 1 })
	if again := coord.Lease("stalled"); again != nil {
		t.Fatalf("a withdrawn unit was leased: %+v", again)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a leased unit outstanding", err)
	default:
	}
	coord.Deliver(fabric.ResultUpload{Worker: "stalled", Fingerprint: wu.Fingerprint, Key: wu.Key, Result: &harness.PointResult{Load: 0.2, MeanLatency: 1}})
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	var js JobStatus
	getJSON(t, ts.URL+"/jobs/"+st.ID, &js)
	if js.State != "failed" || js.Report == nil || js.Report.Aborted != 7 || js.Report.Completed != 1 || js.Report.Failed() != 0 {
		t.Fatalf("drained job: state %s, report %+v; want 7 aborted, 1 completed", js.State, js.Report)
	}
	if fs := coord.Stats(); fs.LocalRuns != 0 || fs.RemoteRuns != 1 {
		t.Fatalf("a withdrawn unit was computed: %+v", fs)
	}
	recs, err := fabric.ReadJournal(filepath.Join(dataDir, "results.jsonl"))
	if _, ok := recs[wu.Key]; err != nil || len(recs) != 1 || !ok {
		t.Fatalf("store holds %d records (err %v), want exactly the leased point %q", len(recs), err, wu.Key)
	}
}

// TestMetricsShowFleetBeforeAnyJob: GET /metrics renders the registry on
// the scrape, so families registered after the server was built — the
// coordinator's fleet_* — show with live values before any job has run.
func TestMetricsShowFleetBeforeAnyJob(t *testing.T) {
	coord := fabric.NewCoordinator(fabric.CoordinatorOptions{LeaseTTL: 5 * time.Second})
	defer coord.Close()
	s, err := NewWithOptions(Options{Fleet: coord})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	coord.RegisterMetrics(s.Registry())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/fleet/heartbeat", "application/json", strings.NewReader(`{"worker":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat: status %d", resp.StatusCode)
	}
	if text := scrape(t, ts); !strings.Contains(text, "\nfleet_workers_live 1\n") {
		t.Fatalf("want fleet_workers_live 1 before any job:\n%s", text)
	}
}

// TestMetricsScrapedWhileJobRuns renders /metrics while a sweep updates the
// same registry (the race detector's half of rendering on scrape), and the
// scrape after the job reads its totals at once.
func TestMetricsScrapedWhileJobRuns(t *testing.T) {
	_, ts := startServer(t)
	slow := tinyReq()
	slow.Measure = 3000
	slow.Loads = []float64{0.2, 0.4}
	id := submit(t, ts, slow).ID
	state := func() string {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status code = %d", code)
		}
		return st.State
	}
	during := 0 // scrapes with the job running before and after them
	for st := state(); st == "queued" || st == "running"; {
		scrape(t, ts)
		next := state()
		if st == "running" && next == "running" {
			during++
		}
		st = next
	}
	if during == 0 {
		t.Fatal("no scrape landed while the job ran")
	}
	text := scrape(t, ts)
	for _, want := range []string{"\nserve_jobs_completed_total 1\n", "\nengine_jobs_done_total 4\n", "\nengine_running 0\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape after the job missing %q:\n%s", want, text)
		}
	}
}

// TestRateLimitThrottlesPerClient proves the 429 admission path: a client
// past its token bucket gets 429 with Retry-After and the structured error
// body, while the server keeps serving once the bucket refills.
func TestRateLimitThrottlesPerClient(t *testing.T) {
	s, err := NewWithOptions(Options{QueueDepth: 8, RateLimit: 20, RateBurst: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Burn the burst with cheap invalid submissions (admission runs before
	// the body is read, so these cost tokens but never queue jobs).
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"figure":"99"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("burst request %d: %d, want 400", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"figure":"99"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("beyond burst: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var e struct {
		Error      string `json:"error"`
		RetryAfter int    `json:"retry_after_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" || e.RetryAfter < 1 {
		t.Fatalf("429 body not structured: %v (%+v)", err, e)
	}
	resp.Body.Close()

	// At 20 tokens/s the bucket refills quickly and service resumes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"figure":"99"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusBadRequest {
			break // admitted again (and rejected on spec, as intended)
		}
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(50 * time.Millisecond)
	}

	if s.throttled.Load() == 0 {
		t.Fatal("throttle counter did not move")
	}
}
