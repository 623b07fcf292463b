package jobserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// tinyReq is a sweep small enough for a unit test: one low load on the 8x8
// scale with short windows.
func tinyReq() SweepRequest {
	return SweepRequest{
		Figure:  "3a",
		Scale:   "small",
		Loads:   []float64{0.2},
		Warmup:  100,
		Measure: 300,
	}
}

// newServer builds a default server (private coordinator, no persistence)
// with the given job-queue depth.
func newServer(t *testing.T, queueDepth int) *Server {
	t.Helper()
	s, err := NewWithOptions(Options{QueueDepth: queueDepth})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func startServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := newServer(t, 4)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, req SweepRequest) JobStatus {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status code = %d", code)
		}
		if st.terminal() {
			return st
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle in time", id)
	return JobStatus{}
}

func TestSubmitRunAndFetchResults(t *testing.T) {
	s, ts := startServer(t)
	st := submit(t, ts, tinyReq())
	if st.ID == "" || st.State == "" {
		t.Fatalf("bad submit response: %+v", st)
	}

	final := waitDone(t, ts, st.ID)
	if final.State != "done" {
		t.Fatalf("job state = %s (error %q)", final.State, final.Error)
	}
	if final.Report == nil || final.Report.Completed != final.Report.Total || final.Report.Total == 0 {
		t.Fatalf("report = %+v", final.Report)
	}
	if final.Progress.Done != final.Report.Total {
		t.Fatalf("progress done = %d, want %d", final.Progress.Done, final.Report.Total)
	}
	if final.Started == nil || final.Finished == nil {
		t.Fatal("timestamps missing")
	}

	// CSV result.
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := func() ([]byte, error) {
		defer resp.Body.Close()
		b := new(bytes.Buffer)
		_, e := b.ReadFrom(resp.Body)
		return b.Bytes(), e
	}()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(csv), "series,load,latency,throughput") {
		t.Fatalf("csv result: code=%d body=%q", resp.StatusCode, csv)
	}

	// JSON result.
	var res jobResult
	if code := getJSON(t, ts.URL+"/jobs/"+st.ID+"/result.json", &res); code != http.StatusOK {
		t.Fatalf("result.json code = %d", code)
	}
	if len(res.Series) != 2 || len(res.Points) != 2 {
		t.Fatalf("result series=%d points=%d, want 2 curves", len(res.Series), len(res.Points))
	}
	for label, pts := range res.Points {
		if len(pts) != 1 || pts[0].Delivered == 0 {
			t.Fatalf("curve %s points %+v", label, pts)
		}
	}

	// Determinism across submissions: same spec, same bytes.
	st2 := submit(t, ts, tinyReq())
	if got := waitDone(t, ts, st2.ID); got.State != "done" {
		t.Fatalf("second job state = %s", got.State)
	}
	resp2, err := http.Get(ts.URL + "/jobs/" + st2.ID + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	csv2 := new(bytes.Buffer)
	csv2.ReadFrom(resp2.Body)
	resp2.Body.Close()
	if csv2.String() != string(csv) {
		t.Fatalf("resubmitted sweep diverged:\n--- first ---\n%s--- second ---\n%s", csv, csv2.String())
	}
	// ...and without re-running anything: a server without a fleet still
	// sweeps through a coordinator, whose result cache served the second job.
	if fs := s.fleet.Stats(); fs.CacheHits < int64(final.Report.Total) || fs.LocalRuns != int64(final.Report.Total) {
		t.Fatalf("resubmission was not served from the coordinator cache: %+v", fs)
	}
	if code := getJSON(t, ts.URL+"/fleet/status", nil); code != http.StatusNotFound {
		t.Fatalf("/fleet/status on a server given no coordinator: %d, want 404", code)
	}

	// The job list shows both, oldest first.
	var list []JobStatus
	if code := getJSON(t, ts.URL+"/jobs", &list); code != http.StatusOK || len(list) != 2 {
		t.Fatalf("list code=%d len=%d", code, len(list))
	}
	if list[0].ID != st.ID || list[1].ID != st2.ID {
		t.Fatalf("list order %s, %s", list[0].ID, list[1].ID)
	}
}

func TestWatchStreamsStatusUntilTerminal(t *testing.T) {
	_, ts := startServer(t)
	st := submit(t, ts, tinyReq())
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines int
	var last JobStatus
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if lines == 0 {
		t.Fatal("watch stream produced no status lines")
	}
	if !last.terminal() {
		t.Fatalf("stream ended before terminal state: %+v", last)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := startServer(t)
	st := submit(t, ts, tinyReq())
	waitDone(t, ts, st.ID)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	text := body.String()
	for _, want := range []string{
		"serve_jobs_accepted_total 1",
		"serve_jobs_completed_total 1",
		"serve_jobs_queued 0",
		"engine_jobs_done_total 2",
		"engine_runs_finished_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := startServer(t)
	cases := []struct {
		name string
		body string
		want string // substring of the JSON error, when the case pins one
	}{
		{"unknown figure", `{"figure":"99"}`, ""},
		{"unknown scale", `{"figure":"4","scale":"huge"}`, ""},
		{"bad load", `{"figure":"4","loads":[1.5]}`, ""},
		{"unknown field", `{"figure":"4","bogus":1}`, ""},
		{"not json", `nope`, ""},
		{"trailing garbage", `{"figure":"4"} trailing`, "unexpected data after JSON body"},
		{"concatenated objects", `{"figure":"4"}{"figure":"4"}`, "unexpected data after JSON body"},
		{"negative parallel", `{"figure":"4","parallel":-1}`, "negative parallel -1"},
		{"negative replicas", `{"figure":"4","replicas":-2}`, "negative replicas -2"},
		{"negative retries", `{"figure":"4","retries":-1}`, "negative retries -1"},
		{"negative warmup", `{"figure":"4","warmup":-1}`, "negative warmup -1"},
		{"negative measure", `{"figure":"4","measure":-1}`, "negative measure -1"},
		{"too many points", `{"figure":"4","replicas":1000000000}`, "replicas 1000000000 exceeds 65536 points"},
		{"one point past the bound", `{"figure":"4","scale":"small","replicas":2731}`, "6 curves x 4 loads x replicas 2731 exceeds 65536 points"},
		{"point count overflows int", `{"figure":"4","replicas":9223372036854775807}`, "exceeds 65536 points"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if err != nil || e.Error == "" || !strings.Contains(e.Error, tc.want) {
			t.Fatalf("%s: error body %q (decode: %v), want it to contain %q", tc.name, e.Error, err, tc.want)
		}
	}
	if code := getJSON(t, ts.URL+"/jobs/job-9999", nil); code != http.StatusNotFound {
		t.Fatalf("missing job status code = %d", code)
	}
	if code := getJSON(t, ts.URL+"/jobs/job-9999/result.csv", nil); code != http.StatusNotFound {
		t.Fatalf("missing job result code = %d", code)
	}
}

// TestSubmitBodyTooLarge proves POST /jobs rejects oversized bodies with 413
// and a JSON error instead of streaming them into the decoder.
func TestSubmitBodyTooLarge(t *testing.T) {
	_, ts := startServer(t)
	// A syntactically valid JSON object just past the 1 MiB cap: the limit
	// must trigger on size alone, not on a parse error.
	huge := `{"figure":"4","loads":[` + strings.TrimSuffix(strings.Repeat("0.1,", maxSubmitBytes/4), ",") + `]}`
	if len(huge) <= maxSubmitBytes {
		t.Fatalf("test body too small: %d bytes", len(huge))
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("413 body not a JSON error: %v (%+v)", err, body)
	}
	// The server must still be healthy for well-formed requests.
	if st := submit(t, ts, tinyReq()); st.ID == "" {
		t.Fatal("server unhealthy after oversized request")
	}
}

func TestResultBeforeDoneConflicts(t *testing.T) {
	_, ts := startServer(t)
	// Claim the runner with a slower job, then query the queued one behind it.
	slow := tinyReq()
	slow.Measure = 2500
	slow.Loads = []float64{0.2, 0.4}
	first := submit(t, ts, slow)
	second := submit(t, ts, tinyReq())
	if code := getJSON(t, ts.URL+"/jobs/"+second.ID+"/result.json", nil); code != http.StatusConflict {
		t.Fatalf("pre-completion result code = %d, want 409", code)
	}
	waitDone(t, ts, first.ID)
	waitDone(t, ts, second.ID)
}

func TestSpecValidation(t *testing.T) {
	req := tinyReq()
	spec, err := req.spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Loads) != 1 || spec.Loads[0] != 0.2 {
		t.Fatalf("loads override lost: %v", spec.Loads)
	}
	if spec.Warmup != 100 || spec.Measure != 300 {
		t.Fatalf("cycle overrides lost: w=%d m=%d", spec.Warmup, spec.Measure)
	}
	req.Seed = 99
	spec2, _ := req.spec()
	if spec2.Seed != 99 {
		t.Fatalf("seed override lost: %d", spec2.Seed)
	}
	if _, err := (&SweepRequest{Figure: "4", Scale: "nope"}).spec(); err == nil {
		t.Fatal("bad scale must fail")
	}
	if _, err := (&SweepRequest{Figure: "x"}).spec(); err == nil {
		t.Fatal("bad figure must fail")
	}
}

func TestQueueFull(t *testing.T) {
	s := newServer(t, 1)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Occupy the runner and fill the 1-deep queue, then overflow it. The
	// runner may drain the queue between submits, so allow a few attempts.
	slow := tinyReq()
	slow.Measure = 3000
	slow.Loads = []float64{0.2, 0.4}
	got503 := false
	accepted := map[string]bool{}
	for i := 0; i < 6 && !got503; i++ {
		body, _ := json.Marshal(slow)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			accepted[st.ID] = true
		case http.StatusServiceUnavailable:
			got503 = true
			// The overload response carries a retry hint in both the header
			// and the structured JSON body.
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("queue-full 503 without Retry-After header")
			}
			var e struct {
				Error      string `json:"error"`
				RetryAfter int    `json:"retry_after_seconds"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" || e.RetryAfter < 1 {
				t.Fatalf("queue-full 503 body not structured: %v (%+v)", err, e)
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !got503 {
		t.Fatal("queue never reported full")
	}

	// The refusal leaves no record: GET /jobs lists exactly the accepted
	// jobs, and only the rejection counter remembers the 503.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listed []JobStatus
	err = json.NewDecoder(resp.Body).Decode(&listed)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != len(accepted) {
		t.Errorf("GET /jobs lists %d jobs, %d were accepted", len(listed), len(accepted))
	}
	for _, st := range listed {
		if !accepted[st.ID] {
			t.Errorf("GET /jobs lists %s (%s %q), which no 202 announced", st.ID, st.State, st.Error)
		}
	}
	// Through the engine metrics' lock: an accepted job is still running and
	// updating the same registry.
	s.em.Publish()
	if text := string(s.reg.Published()); !strings.Contains(text, "\nserve_jobs_rejected_total 1\n") {
		t.Errorf("want the one refusal in serve_jobs_rejected_total:\n%s", text)
	}
}
