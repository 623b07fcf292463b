package engine_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// These were engine.Run's tests until the generic scheduler went (PR 26).
// Each keeps its name and pins the same behaviour where it lives now: in
// harness.RunWith, driven with a stub PointRunner so that no simulation runs
// unless the test is about one.

// stubSpec is figure 4 at small scale, 24 points.
func stubSpec(t *testing.T, seed uint64) *harness.Spec {
	t.Helper()
	spec, err := harness.SpecFor("4", "small", 50, 100, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// purePoint mimics a simulation point: a pure function of the derived seed,
// so a seed or ordering mix-up shows up as a value difference.
func purePoint(seed uint64) (harness.PointResult, error) {
	rng := sim.NewRNG(seed)
	return harness.PointResult{MeanLatency: rng.Float64(), Throughput: rng.Float64(), Delivered: int64(rng.Uint64() >> 40)}, nil
}

// stub is a PointRunner that computes f instead of simulating.
func stub(f func(t harness.PointTask) (harness.PointResult, error)) func(<-chan struct{}, harness.PointTask, func() (harness.PointResult, error)) (harness.PointResult, error) {
	return func(_ <-chan struct{}, t harness.PointTask, _ func() (harness.PointResult, error)) (harness.PointResult, error) {
		return f(t)
	}
}

func TestDeterminismParallelMatchesSerial(t *testing.T) {
	jittery := stub(func(pt harness.PointTask) (harness.PointResult, error) {
		// Shuffle completion order between the runs.
		time.Sleep(time.Duration(pt.Seed%3) * time.Millisecond)
		return purePoint(pt.Seed)
	})
	run := func(seed uint64, parallel int) string {
		res, rep, err := stubSpec(t, seed).RunWith(harness.RunOptions{Parallel: parallel, Replicas: 2, PointRunner: jittery})
		if err != nil || rep.Failed() != 0 || rep.Completed != 48 {
			t.Fatalf("seed %d parallel %d: report %v, err %v", seed, parallel, rep, err)
		}
		return res.CSV()
	}
	serial := run(42, 1)
	if parallel := run(42, 8); parallel != serial {
		t.Fatalf("Parallel: 8 diverged from Parallel: 1:\n--- 1 ---\n%s--- 8 ---\n%s", serial, parallel)
	}
	if run(43, 8) == serial {
		t.Fatal("base seed does not reach the points")
	}
}

// hookPoints installs f as harness.PointHook until the test ends.
func hookPoints(t *testing.T, f func(key string)) {
	harness.PointHook = f
	t.Cleanup(func() { harness.PointHook = nil })
}

// gatedSpec is stubSpec whose points really simulate, each announcing itself
// on started and then holding its Parallel slot until gate closes: PointHook
// runs inside runPoint, behind the slot.
func gatedSpec(t *testing.T, started chan<- struct{}, gate <-chan struct{}) *harness.Spec {
	hookPoints(t, func(string) {
		started <- struct{}{}
		<-gate
	})
	return stubSpec(t, 5)
}

// TestStopDrainsWithoutDispatchingMore: closing Stop lets the points that hold
// a slot finish and starts nothing else; what never started is Aborted. (That
// a second run over the same result store completes the batch is
// TestStopDrainsThenResumes.)
func TestStopDrainsWithoutDispatchingMore(t *testing.T) {
	started, gate, stop := make(chan struct{}, 24), make(chan struct{}), make(chan struct{})
	spec := gatedSpec(t, started, gate)
	done := make(chan *harness.Report, 1)
	go func() {
		_, rep, _ := spec.RunWith(harness.RunOptions{Parallel: 2, Stop: stop})
		done <- rep
	}()
	<-started
	<-started   // both slots are taken, 22 points wait for one
	close(stop) // drain...
	close(gate) // ...then let the two finish and free their slots
	rep := <-done
	if rep.Completed != 2 || rep.Aborted != 22 || rep.Completed+rep.Aborted+rep.Failed() != rep.Total {
		t.Fatalf("drained sweep: %v, want 2 completed and 22 aborted of 24", rep)
	}
	if n := len(started); n != 0 {
		t.Fatalf("%d points started after Stop closed", n)
	}

	// Stop closed before the sweep begins: nothing starts at all.
	_, rep, err := gatedSpec(t, started, gate).RunWith(harness.RunOptions{Parallel: 2, Stop: stop})
	if err != nil || rep.Aborted != rep.Total || len(started) != 0 {
		t.Fatalf("sweep under a closed Stop: %v, err %v, %d points started", rep, err, len(started))
	}
}

// TestPanicIsolationSingleAttempt: every point is handed to the PointRunner
// exactly once. The poison point's panic comes back as its error, stack
// included, and names it once in the report; every other point completes.
func TestPanicIsolationSingleAttempt(t *testing.T) {
	spec := stubSpec(t, 9)
	poison, load := spec.Algs[2].Algorithm.Name(), spec.Loads[0]
	// Whatever point simulates panics, as the simulator's invariants do; only
	// the poison point does.
	hookPoints(t, func(string) { panic("permanent panic") })

	var mu sync.Mutex
	calls := map[string]int{}
	res, rep, err := spec.RunWith(harness.RunOptions{PointRunner: stub(func(pt harness.PointTask) (harness.PointResult, error) {
		mu.Lock()
		calls[pt.Key]++
		mu.Unlock()
		if pt.Alg == poison && pt.Load == load {
			return spec.RunPoint(pt.Alg, pt.Load, pt.Seed, harness.PointOptions{})
		}
		return purePoint(pt.Seed)
	})})
	if err == nil || rep.Failed() != 1 || rep.Completed != rep.Total-1 {
		t.Fatalf("report %v, err %v; want exactly the poison point failed", rep, err)
	}
	if f := rep.Failures[0]; f.Key != spec.PointKey(poison, load, 0) ||
		!strings.Contains(f.Err, "panic: permanent panic") || !strings.Contains(f.Err, "runtime/debug.Stack") {
		t.Fatalf("failure %+v, want the poison point's panic with its stack", f)
	}
	if len(calls) != rep.Total {
		t.Fatalf("%d points reached the PointRunner, want %d", len(calls), rep.Total)
	}
	for key, n := range calls {
		if n != 1 {
			t.Errorf("point %s was run %d times, want once", key, n)
		}
	}
	if len(res.Points[poison]) != len(spec.Loads)-1 {
		t.Fatal("the poison curve keeps its healthy points")
	}
}

func TestBadBatchesRejected(t *testing.T) {
	never := stub(func(harness.PointTask) (harness.PointResult, error) {
		t.Error("a point of a refused batch ran")
		return harness.PointResult{}, nil
	})
	// Two curves under one label are two points under one key.
	spec := stubSpec(t, 1)
	spec.Algs[1].Label = spec.Algs[0].Algorithm.Name()
	if _, _, err := spec.RunWith(harness.RunOptions{PointRunner: never}); err == nil || !strings.Contains(err.Error(), "duplicate point key") {
		t.Fatalf("duplicate keys: err = %v", err)
	}
	spec = stubSpec(t, 1)
	spec.Loads = nil
	if _, _, err := spec.RunWith(harness.RunOptions{PointRunner: never}); err == nil {
		t.Fatal("an empty batch must be rejected")
	}
}

func TestProgressCallbackAndMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	var calls, lines, lastDone int // both callbacks run on RunWith's goroutine
	_, rep, err := stubSpec(t, 5).RunWith(harness.RunOptions{
		Parallel: 4,
		Metrics:  harness.NewMetrics(reg),
		PointRunner: stub(func(pt harness.PointTask) (harness.PointResult, error) {
			return purePoint(pt.Seed)
		}),
		Progress: func(line string) {
			lines++
			if !strings.Contains(line, "/ 24] ") || !strings.Contains(line, "latency=") {
				t.Errorf("progress line %q", line)
			}
		},
		Status: func(st harness.Status) {
			calls++
			if st.Total != 24 {
				t.Errorf("status total = %d", st.Total)
			}
			if st.Done < lastDone {
				t.Errorf("done went backwards: %d -> %d", lastDone, st.Done)
			}
			lastDone = st.Done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 24 || lines != 24 || rep.Completed != 24 || rep.Workers != 4 {
		t.Fatalf("Status calls = %d, progress lines = %d, report %v", calls, lines, rep)
	}
	text := string(reg.Published())
	for _, want := range []string{
		"engine_jobs_done_total 24",
		"engine_jobs_total 24",
		"engine_jobs_remaining 0",
		"engine_runs_finished_total 1",
		"engine_running 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("published metrics missing %q:\n%s", want, text)
		}
	}
}
