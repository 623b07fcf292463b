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
	"repro/internal/topology"
	"repro/internal/traffic"
)

// tinyPoint is a fast real simulation point: figure 3a at small scale with
// short cycle counts, one curve, one load.
func tinyPoint(t *testing.T) (harness.PointTask, PointSpec, *harness.Spec) {
	t.Helper()
	ps := PointSpec{
		Figure: "3a", Scale: "small", Warmup: 40, Measure: 80,
		Alg: "disha-m3-tout4", Load: 0.2, Replica: 0,
	}
	spec, err := ps.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	key := spec.PointKey(ps.Alg, ps.Load, ps.Replica)
	seed := engine.SeedFor(spec.Seed, key)
	return harness.PointTask{Key: key, Seed: seed, Alg: ps.Alg, Load: ps.Load, Replica: ps.Replica}, ps, spec
}

// TestWorkerExecutesLeasedPointOverHTTP drives the full remote path: a real
// worker loop against the coordinator's HTTP API executes a real simulation
// point, and the uploaded result is byte-identical to running the same point
// in-process — the determinism contract the whole fabric rests on.
func TestWorkerExecutesLeasedPointOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation point")
	}
	tk, ps, spec := tinyPoint(t)

	// Reference: the same point computed serially in this process.
	want, err := spec.RunPoint(ps.Alg, ps.Load, tk.Seed, harness.PointOptions{Key: tk.Key})
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

	got, err := c.Execute(nil, tk, ps, func() (harness.PointResult, error) {
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
	again, err := c.Execute(nil, tk, ps, nil)
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
// whose key or seed does not match what the worker derives from the spec is
// refused, not executed.
func TestWorkerRejectsMismatchedUnit(t *testing.T) {
	tk, ps, _ := tinyPoint(t)
	w := NewWorker(WorkerOptions{Coordinator: "http://unused", ID: "wtest"})

	wu := &WorkUnit{Key: tk.Key + "-tampered", Fingerprint: "f", Seed: tk.Seed, Point: ps, Attempt: 1}
	if _, err := w.runUnit(wu, t.TempDir()); err == nil || !strings.Contains(err.Error(), "key mismatch") {
		t.Fatalf("tampered key: err = %v, want key mismatch", err)
	}

	wu = &WorkUnit{Key: tk.Key, Fingerprint: "f", Seed: tk.Seed + 1, Point: ps, Attempt: 1}
	if _, err := w.runUnit(wu, t.TempDir()); err == nil || !strings.Contains(err.Error(), "seed mismatch") {
		t.Fatalf("tampered seed: err = %v, want seed mismatch", err)
	}

	wu = &WorkUnit{Key: "k", Fingerprint: "f", Seed: 1, Point: PointSpec{Figure: "nope"}, Attempt: 1}
	if _, err := w.runUnit(wu, t.TempDir()); err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Fatalf("bad figure: err = %v, want unknown figure", err)
	}
}

// poisonPoint is tinyPoint with a traffic pattern that panics — a stand-in
// for the simulator's panic(...) invariants firing — under its own spec name,
// so its key and fingerprint differ from the healthy point's.
func poisonPoint(t *testing.T) (harness.PointTask, PointSpec, *harness.Spec) {
	t.Helper()
	_, ps, spec := tinyPoint(t)
	ps.Figure = "poison"
	spec.Name = "poison"
	spec.Pattern = func(topology.Graph) (traffic.Pattern, error) { panic("poison point") }
	key := spec.PointKey(ps.Alg, ps.Load, ps.Replica)
	seed := engine.SeedFor(spec.Seed, key)
	return harness.PointTask{Key: key, Seed: seed, Alg: ps.Alg, Load: ps.Load, Replica: ps.Replica}, ps, spec
}

// TestExecuteSurvivesPanickingLocalPoint: the coordinator's local fallback
// runs a point that panics and Execute returns the error — harness.RunPoint
// carries the guard, so the goroutine the coordinator spawned does not take
// the process down.
func TestExecuteSurvivesPanickingLocalPoint(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 5 * time.Second})
	defer c.Close()
	tk, ps, spec := poisonPoint(t)
	_, err := c.Execute(nil, tk, ps, func() (harness.PointResult, error) {
		return spec.RunPoint(ps.Alg, ps.Load, tk.Seed, harness.PointOptions{Key: tk.Key})
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
	poisonTask, poisonPS, poison := poisonPoint(t)
	tk, ps, _ := tinyPoint(t)

	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 2 * time.Second, MaxAttempts: 2})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	w := NewWorker(WorkerOptions{Coordinator: srv.URL, ID: "wpoison", CheckpointDir: t.TempDir(), Logf: t.Logf})
	w.specFor = func(p PointSpec) (*harness.Spec, error) {
		if p.Figure == "poison" {
			return poison, nil
		}
		return p.Spec()
	}
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

	_, err := c.Execute(nil, poisonTask, poisonPS, func() (harness.PointResult, error) {
		return poison.RunPoint(poisonPS.Alg, poisonPS.Load, poisonTask.Seed, harness.PointOptions{Key: poisonTask.Key})
	})
	if err == nil || !strings.Contains(err.Error(), "panic: poison point") {
		t.Fatalf("poison unit: err = %v, want the panic as an error", err)
	}
	if st := c.Stats(); st.WorkerErrors != 2 || st.LocalRuns != 1 || st.RemoteRuns != 0 {
		t.Fatalf("want 2 failed dispatches then 1 local attempt: %+v", st)
	}

	if _, err := c.Execute(nil, tk, ps, func() (harness.PointResult, error) {
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
