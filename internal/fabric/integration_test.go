package fabric_test

import (
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/harness"
)

// fleetSpec is the sweep the integration test runs: figure 3a at small
// scale with cycle counts long enough that every worker is mid-point when
// one of them is killed. 2 curves x 3 loads = 6 points.
const (
	fleetWarmup  = 200
	fleetMeasure = 4000
)

func fleetLoads() []float64 { return []float64{0.2, 0.3, 0.4} }

func fleetHarnessSpec(t *testing.T) *harness.Spec {
	t.Helper()
	spec, err := harness.SpecFor("3a", "small", fleetWarmup, fleetMeasure, 0, fleetLoads())
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// fleetRunOptions routes every point of a sweep through the coordinator.
func fleetRunOptions(c *fabric.Coordinator) harness.RunOptions {
	return harness.RunOptions{
		Parallel:    4,
		PointRunner: c.Execute,
	}
}

// buildWorker compiles cmd/disha-worker into a temp dir and returns the
// binary path.
func buildWorker(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "disha-worker")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/disha-worker")
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build disha-worker: %v\n%s", err, out)
	}
	return bin
}

type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) { w.t.Logf("%s", p); return len(p), nil }

// startWorkerProc launches one disha-worker process against the coordinator
// URL and returns its exec handle.
func startWorkerProc(t *testing.T, bin, url, id string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-coordinator", url, "-id", id)
	cmd.Stderr = logWriter{t}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", id, err)
	}
	return cmd
}

// TestFleetSurvivesWorkerKill is the fabric's end-to-end proof, run across
// real process boundaries: three disha-worker processes serve a sweep over
// localhost HTTP, one of them is SIGKILLed while all three are mid-point,
// and the final aggregated CSV is still byte-identical to a serial
// single-process run — the killed worker's lease expires, its point is
// re-dispatched and run again from cycle 0, and determinism guarantees the
// replacement execution produces the same bytes.
// A duplicate submission afterwards is served entirely from the result
// cache, and every point executed at most once.
func TestFleetSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}

	// Serial reference, computed entirely in this process with no fabric.
	serial, _, err := fleetHarnessSpec(t).RunWith(harness.RunOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := serial.CSV()

	bin := buildWorker(t)
	c := fabric.NewCoordinator(fabric.CoordinatorOptions{
		LeaseTTL:    2 * time.Second,
		MaxAttempts: 5,
	})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	workers := make([]*exec.Cmd, 3)
	for i := range workers {
		workers[i] = startWorkerProc(t, bin, srv.URL, []string{"w-alpha", "w-bravo", "w-charlie"}[i])
	}
	defer func() {
		for _, w := range workers {
			if w.Process != nil {
				w.Process.Kill()
				w.Wait()
			}
		}
	}()

	// All three workers must be registered before the sweep starts, so no
	// point falls back to local execution.
	for deadline := time.Now().Add(60 * time.Second); c.Stats().WorkersLive < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never assembled: %+v", c.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Run the sweep through the fabric, and kill one worker the moment all
	// three hold a lease (each runs one point at a time, so three
	// outstanding leases means the victim is provably mid-point).
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for deadline := time.Now().Add(60 * time.Second); ; {
			st := c.Stats()
			if st.LeasesOutstanding >= 3 {
				t.Logf("killing w-alpha with %d leases outstanding", st.LeasesOutstanding)
				workers[0].Process.Kill() // SIGKILL: no drain, no goodbye
				workers[0].Wait()
				return
			}
			if time.Now().After(deadline) || st.UnitsInFlight == 0 && st.RemoteRuns > 0 {
				t.Log("sweep finished before three leases were ever outstanding; kill skipped")
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	res, report, err := fleetHarnessSpec(t).RunWith(fleetRunOptions(c))
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	if report.Failed() != 0 {
		t.Fatalf("fleet sweep failures: %+v", report.Failures)
	}
	if got := res.CSV(); got != wantCSV {
		t.Fatalf("fleet CSV diverges from serial run after worker kill:\n--- serial ---\n%s--- fleet ---\n%s", wantCSV, got)
	}

	st := c.Stats()
	t.Logf("after kill: %v", st)
	total := int64(2 * len(fleetLoads()))
	// Each point executed at most once: every settle is exactly one remote
	// or one local run, and duplicates from the killed worker are impossible
	// (SIGKILL uploads nothing).
	if st.RemoteRuns+st.LocalRuns != total {
		t.Fatalf("points executed %d times, want %d: %+v", st.RemoteRuns+st.LocalRuns, total, st)
	}
	if st.RemoteRuns == 0 {
		t.Fatalf("nothing ran on the fleet: %+v", st)
	}
	if st.Redispatches == 0 {
		t.Fatalf("killed worker's lease was never re-dispatched: %+v", st)
	}

	// Duplicate submission: the identical sweep resolves entirely from the
	// shared result cache — cache-hit counter moves, execution counters do
	// not, bytes stay identical.
	res2, _, err := fleetHarnessSpec(t).RunWith(fleetRunOptions(c))
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.CSV(); got != wantCSV {
		t.Fatal("cached duplicate submission diverges")
	}
	st2 := c.Stats()
	if st2.CacheHits < total {
		t.Fatalf("duplicate submission missed the cache: %+v", st2)
	}
	if st2.RemoteRuns+st2.LocalRuns != total {
		t.Fatalf("duplicate submission re-executed points: %+v", st2)
	}

	// Graceful exit for the survivors: SIGTERM drains them cleanly.
	for _, w := range workers[1:] {
		w.Process.Signal(os.Interrupt)
	}
	for _, w := range workers[1:] {
		done := make(chan error, 1)
		go func() { done <- w.Wait() }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("worker did not drain on SIGINT")
		}
	}
}
