package fabric

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/routing"
)

// tinyPoint is a fast real simulation point: figure 3a at small scale with
// short cycle counts, one curve, one load.
func tinyPoint(t *testing.T) (harness.PointTask, *harness.Spec) {
	t.Helper()
	spec, err := harness.SpecFor("3a", "small", 40, 80, 0, []float64{0.2})
	if err != nil {
		t.Fatal(err)
	}
	spec.Algs = spec.Algs[:1]
	return pointTask(t, spec, 0), spec
}

// pointTask is the task RunWith offers a PointRunner for one replica of a
// one-point spec.
func pointTask(t *testing.T, spec *harness.Spec, replica int) harness.PointTask {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	alg, load := spec.Algs[0].Label, spec.Loads[0]
	key := spec.PointKey(alg, load, replica)
	return harness.PointTask{Key: key, Seed: engine.SeedFor(spec.Seed, key), Alg: alg, Load: load, Replica: replica}
}

// hookPoints installs f as harness.PointHook until the test ends.
func hookPoints(t *testing.T, f func(key string)) {
	harness.PointHook = f
	t.Cleanup(func() { harness.PointHook = nil })
}

// TestWorkerExecutesLeasedPointOverHTTP drives the full remote path: a real
// worker loop against the coordinator's HTTP API executes a real simulation
// point, and the uploaded result is byte-identical to running the same point
// in-process — the determinism contract the whole fabric rests on.
func TestWorkerExecutesLeasedPointOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation point")
	}
	tk, spec := tinyPoint(t)

	// Reference: the same point computed serially in this process.
	want, err := spec.RunPoint(tk.Alg, tk.Load, tk.Seed, harness.PointOptions{Key: tk.Key})
	if err != nil {
		t.Fatal(err)
	}

	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 2 * time.Second})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	w := NewWorker(WorkerOptions{
		Coordinator:   srv.URL,
		ID:            "wtest",
		CheckpointDir: t.TempDir(),
		Logf:          t.Logf,
	})
	go func() { workerDone <- w.Run(ctx) }()

	// Wait for the worker to register so Execute dispatches remotely.
	for deadline := time.Now().Add(10 * time.Second); c.Stats().WorkersLive == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	got, err := c.Execute(nil, tk, func() (harness.PointResult, error) {
		t.Error("local fallback must not run with a live worker")
		return harness.PointResult{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("remote result diverges from serial run:\nremote: %+v\nserial: %+v", got, want)
	}
	st := c.Stats()
	if st.RemoteRuns != 1 || st.LocalRuns != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// Resubmission is a pure cache hit — the worker is never consulted.
	again, err := c.Execute(nil, tk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("cached result diverges: %+v", again)
	}
	if st := c.Stats(); st.CacheHits != 1 {
		t.Fatalf("no cache hit on resubmission: %+v", st)
	}

	cancel()
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("worker shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not drain after cancel")
	}
}

// TestWorkerRejectsMismatchedUnit checks the cache-poisoning guard: a unit
// whose key is not a point key of this encoding, or whose seed does not match
// what the key derives, is refused with one line, not executed.
func TestWorkerRejectsMismatchedUnit(t *testing.T) {
	tk, _ := tinyPoint(t)
	w := NewWorker(WorkerOptions{Coordinator: "http://unused", ID: "wtest"})
	for _, c := range []struct {
		name string
		wu   WorkUnit
		want string
	}{
		{"tampered key", WorkUnit{Key: tk.Key + "-tampered", Seed: tk.Seed}, "harness: point key"},
		{"tampered seed", WorkUnit{Key: tk.Key, Seed: tk.Seed + 1}, "seed mismatch"},
		// The same point as a coordinator before this key encoding leased it.
		{"previous encoding", WorkUnit{Key: "fig3a-deadlock-characterization|seed=d15ab1e|w=40|m=80|msg=16|vc=4|bd=2/disha-m3-tout4@0.2000#0", Seed: 1}, "is not a spec/1: point key"},
	} {
		c.wu.Fingerprint, c.wu.Attempt = "f", 1
		_, _, err := w.runUnit(&c.wu, t.TempDir())
		if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: err = %v, want one line containing %q", c.name, err, c.want)
		}
	}
}

// poisonPoint is tinyPoint under its own spec name, so that its key and
// fingerprint differ from the healthy point's, and with a PointHook that
// panics on it — a stand-in for the simulator's panic(...) invariants firing
// — wherever it runs.
func poisonPoint(t *testing.T) (harness.PointTask, *harness.Spec) {
	t.Helper()
	_, spec := tinyPoint(t)
	spec.Name = "poison"
	tk := pointTask(t, spec, 0)
	hookPoints(t, func(key string) {
		if key == tk.Key {
			panic("poison point")
		}
	})
	return tk, spec
}

// TestExecuteSurvivesPanickingLocalPoint: the coordinator's local fallback
// runs a point that panics and Execute returns the error — harness.RunPoint
// carries the guard, so the goroutine the coordinator spawned does not take
// the process down.
func TestExecuteSurvivesPanickingLocalPoint(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 5 * time.Second})
	defer c.Close()
	tk, spec := poisonPoint(t)
	_, err := c.Execute(nil, tk, func() (harness.PointResult, error) {
		return spec.RunPoint(tk.Alg, tk.Load, tk.Seed, harness.PointOptions{Key: tk.Key})
	})
	if err == nil || !strings.Contains(err.Error(), "panic: poison point") {
		t.Fatalf("err = %v, want the panic as an error", err)
	}
	if st := c.Stats(); st.LocalRuns != 1 || st.CacheSize != 0 || st.UnitsInFlight != 0 {
		t.Fatalf("a failed point must settle without being cached: %+v", st)
	}
}

// TestWorkerSurvivesPoisonPoint: a worker leasing a point that panics
// uploads the failure instead of dying, every dispatch attempt fails the
// same way, the coordinator's own attempt then returns that error to the
// caller — and the worker is still there to run the next, healthy unit.
func TestWorkerSurvivesPoisonPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation point")
	}
	poisonTask, poison := poisonPoint(t)
	tk, _ := tinyPoint(t)

	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 2 * time.Second, MaxAttempts: 2})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	w := NewWorker(WorkerOptions{Coordinator: srv.URL, ID: "wpoison", CheckpointDir: t.TempDir(), Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(ctx) }()
	for deadline := time.Now().Add(10 * time.Second); c.Stats().WorkersLive == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	_, err := c.Execute(nil, poisonTask, func() (harness.PointResult, error) {
		return poison.RunPoint(poisonTask.Alg, poisonTask.Load, poisonTask.Seed, harness.PointOptions{Key: poisonTask.Key})
	})
	if err == nil || !strings.Contains(err.Error(), "panic: poison point") {
		t.Fatalf("poison unit: err = %v, want the panic as an error", err)
	}
	if st := c.Stats(); st.WorkerErrors != 2 || st.LocalRuns != 1 || st.RemoteRuns != 0 {
		t.Fatalf("want 2 failed dispatches then 1 local attempt: %+v", st)
	}

	if _, err := c.Execute(nil, tk, func() (harness.PointResult, error) {
		t.Error("healthy unit fell back to local: the worker stopped leasing")
		return harness.PointResult{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.RemoteRuns != 1 {
		t.Fatalf("healthy unit did not run on the worker: %+v", st)
	}

	cancel()
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("worker shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not drain after cancel")
	}
}

// TestFleetRunsAnySpec: a worker runs whatever spec its unit's key carries, not
// only a figure's. A full mesh at one VC and a dragonfly under disha-m0 — specs
// no figure names — computed by an HTTP worker render the CSV of a local run
// byte for byte, every point remotely.
func TestFleetRunsAnySpec(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulation points")
	}
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 2 * time.Second})
	t.Cleanup(c.Close)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	startWorker(t, srv.URL, "wany")
	eventually(t, "the worker to register", func() bool { return c.Stats().WorkersLive == 1 })

	specs := []func() *harness.Spec{
		func() *harness.Spec {
			return &harness.Spec{Name: "fullmesh-1vc", Topology: "fullmesh-8", Traffic: "uniform", VCs: 1,
				Algs: []harness.AlgSpec{
					{Label: "disha-recovery", Algorithm: routing.Disha(0), Recovery: true},
					{Label: "minimal-vcfree", Algorithm: routing.Disha(0)},
				},
				Loads: []float64{0.2, 0.4}, MsgLen: 16, Warmup: 100, Measure: 300, Seed: 3}
		},
		func() *harness.Spec {
			return &harness.Spec{Name: "dragonfly-disha", Topology: "dragonfly-4x2", Traffic: "uniform",
				Algs:  []harness.AlgSpec{{Algorithm: routing.Disha(0), Recovery: true}},
				Loads: []float64{0.1, 0.3}, MsgLen: 16, Warmup: 100, Measure: 300, Seed: 3}
		},
	}
	points := 0
	for _, spec := range specs {
		local, _, err := spec().RunWith(harness.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		remote, rep, err := spec().RunWith(harness.RunOptions{PointRunner: c.Execute})
		if err != nil {
			t.Fatal(err)
		}
		if remote.CSV() != local.CSV() {
			t.Errorf("%s: fleet CSV differs from a local run:\n%s\nwant:\n%s", remote.Spec.Name, remote.CSV(), local.CSV())
		}
		points += rep.Total
	}
	if st := c.Stats(); st.RemoteRuns != int64(points) || st.LocalRuns != 0 {
		t.Fatalf("%d points: %+v, want every one run remotely", points, st)
	}
}
