package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/jobserver"
)

// stderrBuf collects a child's stderr while the test polls it.
type stderrBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *stderrBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *stderrBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// proc is one started child process.
type proc struct {
	cmd    *exec.Cmd
	stderr *stderrBuf
}

func start(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, args...), stderr: &stderrBuf{}}
	p.cmd.Stderr = p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() { p.cmd.Process.Kill(); p.cmd.Wait() })
	return p
}

// terminate sends SIGTERM and requires a clean, drained exit.
func (p *proc) terminate(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s after SIGTERM: %v\n%s", p.cmd.Path, err, p.stderr)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not exit after SIGTERM:\n%s", p.cmd.Path, p.stderr)
	}
	if !strings.Contains(p.stderr.String(), "drained") {
		t.Fatalf("%s exited without reporting a drain:\n%s", p.cmd.Path, p.stderr)
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var listening = regexp.MustCompile(`listening on (127\.0\.0\.1:[1-9][0-9]*) `)

// serve starts disha-serve on a free port and returns it with its base URL,
// read from the address the server prints once it has bound.
func serve(t *testing.T, bin string, args ...string) (*proc, string) {
	t.Helper()
	p := start(t, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	var m []string
	waitFor(t, "disha-serve to print its bound address", func() bool {
		m = listening.FindStringSubmatch(p.stderr.String())
		return m != nil
	})
	return p, "http://" + m[1]
}

func get(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// post submits req and returns the accepted job's status.
func post(t *testing.T, base string, req jobserver.SweepRequest) jobserver.JobStatus {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st jobserver.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("POST /jobs: %d (%v)", resp.StatusCode, err)
	}
	return st
}

// sweepCSV submits req, polls the job to done and returns its CSV.
func sweepCSV(t *testing.T, base string, req jobserver.SweepRequest) string {
	t.Helper()
	st := post(t, base, req)
	waitFor(t, "job "+st.ID+" to settle", func() bool {
		get(t, base+"/jobs/"+st.ID, &st)
		return st.State == "done" || st.State == "failed"
	})
	if st.State != "done" {
		t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
	}
	resp, err := http.Get(base + "/jobs/" + st.ID + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	csv, err := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("result.csv: %d (%v)", resp.StatusCode, err)
	}
	return string(csv)
}

// build compiles disha-serve and disha-worker into a test directory.
func build(t *testing.T) (serveBin, workerBin string) {
	t.Helper()
	dir := t.TempDir()
	serveBin, workerBin = filepath.Join(dir, "disha-serve"), filepath.Join(dir, "disha-worker")
	for bin, pkg := range map[string]string{serveBin: ".", workerBin: "../disha-worker"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	return serveBin, workerBin
}

// TestServeAndWorkerProcesses drives the two serving binaries as processes.
// A -fleet server with one disha-worker serves a Figure 4 sweep whose CSV is
// byte-identical to the same sweep run in-process, every point having run on
// the worker; both drain and exit 0 on SIGTERM. A server at the default
// lease TTL exits as fast with an idle worker parked on it. A server without
// -fleet serves the same bytes and does not expose /fleet/. The port is the
// one the server printed, which is the only way to find a ":0" listener.
func TestServeAndWorkerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test running real simulation points")
	}
	serveBin, workerBin := build(t)

	req := jobserver.SweepRequest{Figure: "4", Scale: "small", Loads: []float64{0.2, 0.4}, Warmup: 100, Measure: 300}
	spec, err := harness.SpecFor(req.Figure, req.Scale, req.Warmup, req.Measure, req.Seed, req.Loads)
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := spec.RunWith(harness.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, points := direct.CSV(), int64(len(spec.Algs)*len(spec.Loads))

	server, base := serve(t, serveBin, "-fleet", "-lease-ttl", "1s")
	worker := start(t, workerBin, "-coordinator", base+"/fleet", "-id", "w1")
	var fs fabric.Stats
	waitFor(t, "the worker to register", func() bool {
		get(t, base+"/fleet/status", &fs)
		return fs.WorkersLive == 1
	})
	if got := sweepCSV(t, base, req); got != want {
		t.Fatalf("fleet CSV differs from the in-process sweep:\n%s\nwant:\n%s", got, want)
	}
	if get(t, base+"/fleet/status", &fs); fs.RemoteRuns != points || fs.LocalRuns != 0 {
		t.Fatalf("want all %d points run by the worker: %+v", points, fs)
	}
	server.terminate(t)
	worker.terminate(t)

	// At the default TTL an idle worker's lease request is held for 7.5 s;
	// the drain must answer it, not wait it out.
	server, base = serve(t, serveBin, "-fleet")
	worker = start(t, workerBin, "-coordinator", base+"/fleet", "-id", "w2")
	waitFor(t, "the worker to park", func() bool {
		get(t, base+"/fleet/status", &fs)
		return fs.LeaseWaiters == 1
	})
	sigterm := time.Now()
	server.terminate(t)
	if took := time.Since(sigterm); took > 2*time.Second {
		t.Fatalf("server with a parked idle worker took %v to exit, want < 2s:\n%s", took, server.stderr)
	}
	worker.terminate(t)

	plain, base := serve(t, serveBin)
	if got := sweepCSV(t, base, req); got != want {
		t.Fatalf("CSV without -fleet differs from the in-process sweep:\n%s\nwant:\n%s", got, want)
	}
	if code := get(t, base+"/fleet/status", nil); code != http.StatusNotFound {
		t.Fatalf("/fleet/status without -fleet: %d, want 404", code)
	}
	plain.terminate(t)

	bogus := exec.Command(serveBin, "-addr", "bogus")
	out, _ := bogus.CombinedOutput()
	if bogus.ProcessState == nil || bogus.ProcessState.ExitCode() != 1 ||
		strings.Count(string(out), "\n") != 1 || !strings.HasPrefix(string(out), "disha-serve: ") {
		t.Fatalf("-addr bogus: want exit 1 with one line, got %v; output:\n%s", bogus.ProcessState, out)
	}
}

// fleetOnDataDir starts a -fleet server persisting to dataDir plus one
// registered worker, submits req and returns once three points are done.
func fleetOnDataDir(t *testing.T, serveBin, workerBin, dataDir string, req jobserver.SweepRequest) (server, worker *proc, base string, st jobserver.JobStatus) {
	t.Helper()
	server, base = serve(t, serveBin, "-fleet", "-lease-ttl", "1s", "-data-dir", dataDir)
	worker = start(t, workerBin, "-coordinator", base+"/fleet", "-id", "w1")
	var fs fabric.Stats
	waitFor(t, "the worker to register", func() bool {
		get(t, base+"/fleet/status", &fs)
		return fs.WorkersLive == 1
	})
	st = post(t, base, req)
	waitFor(t, "three points to finish", func() bool {
		get(t, base+"/jobs/"+st.ID, &st)
		return st.Progress.Done >= 3
	})
	return server, worker, base, st
}

// TestCoordinatorCrashRecovery kills the coordinator process mid-sweep and
// restarts it on the same -data-dir. The lease table dies with the process
// and is not needed back: the client resubmits, and what the store recorded
// is served while only the rest runs. Targets: of the n points on disk, 0 are
// recomputed; a record torn by the kill costs exactly its own recomputation
// and no error; the CSV is byte-identical to an in-process sweep.
func TestCoordinatorCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test running real simulation points")
	}
	serveBin, workerBin := build(t)
	req := jobserver.SweepRequest{Figure: "4", Scale: "small", Warmup: 100, Measure: 300}
	spec, err := harness.SpecFor(req.Figure, req.Scale, req.Warmup, req.Measure, req.Seed, req.Loads)
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := spec.RunWith(harness.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(spec.Algs) * len(spec.Loads))
	dataDir := t.TempDir()
	store := filepath.Join(dataDir, "results.jsonl")

	server, worker, _, _ := fleetOnDataDir(t, serveBin, workerBin, dataDir, req)
	server.cmd.Process.Kill()
	server.cmd.Wait()
	worker.cmd.Process.Kill()
	worker.cmd.Wait()

	// The kill landed mid-append: the last record is cut in half.
	data, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	n := int64(len(lines) - 1)
	if n < 2 {
		t.Fatalf("store held %d records at the kill, want at least 3", n+1)
	}
	if err := os.WriteFile(store, []byte(strings.Join(lines[:n], "")+last[:len(last)/2]), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("killed with %d of %d points recorded, the last of them torn", n+1, total)

	// Restart with no worker; the resubmission is phrased differently.
	restarted, base := serve(t, serveBin, "-fleet", "-lease-ttl", "1s", "-data-dir", dataDir)
	req.Parallel = 1
	if got := sweepCSV(t, base, req); got != direct.CSV() {
		t.Fatalf("CSV after the crash differs from the in-process sweep:\n%s\nwant:\n%s", got, direct.CSV())
	}
	var fs fabric.Stats
	get(t, base+"/fleet/status", &fs)
	if fs.CacheHits != n || fs.LocalRuns+fs.RemoteRuns != total-n || fs.StoreErrors != 0 {
		t.Fatalf("%d of %d points were on disk: want cache_hits %d, local+remote runs %d, no store errors; got %+v",
			n, total, n, total-n, fs)
	}
	restarted.terminate(t)
	// The records written behind the torn line are all readable.
	if recs, err := fabric.ReadJournal(store); err != nil || int64(len(recs)) != total {
		t.Fatalf("store after recovery: %d records (err %v), want %d", len(recs), err, total)
	}
}

// TestDrainLeavesFinishedPointsInStore is the SIGTERM counterpart: a drained
// server exits 0 with every point its last status counted done on disk.
func TestDrainLeavesFinishedPointsInStore(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test running real simulation points")
	}
	serveBin, workerBin := build(t)
	req := jobserver.SweepRequest{Figure: "4", Scale: "small", Warmup: 100, Measure: 300}
	dataDir := t.TempDir()
	server, worker, base, st := fleetOnDataDir(t, serveBin, workerBin, dataDir, req)

	// The watch stream outlives the drain: it ends with the terminal status.
	resp, err := http.Get(base + "/jobs/" + st.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	server.terminate(t)
	worker.terminate(t)
	for dec := json.NewDecoder(resp.Body); dec.Decode(&st) == nil; {
	}
	if st.State != "failed" && st.State != "done" {
		t.Fatalf("watch stream ended on a non-terminal status: %+v", st)
	}
	recs, err := fabric.ReadJournal(filepath.Join(dataDir, "results.jsonl"))
	if err != nil || len(recs) != st.Progress.Done || st.Progress.Done < 3 {
		t.Fatalf("store holds %d records (err %v) after a drain that counted %d points done", len(recs), err, st.Progress.Done)
	}
}
