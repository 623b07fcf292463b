package fabric

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
)

// windowSpec is the sweep these tests offer: figure 4 at small scale, 24
// points of a few milliseconds each.
func windowSpec(t *testing.T) *harness.Spec {
	t.Helper()
	spec, err := harness.SpecFor("4", "small", 50, 100, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// sweepThrough starts spec's sweep through c on a goroutine and returns the
// channel its report arrives on.
func sweepThrough(c *Coordinator, spec *harness.Spec, parallel int, stop <-chan struct{}) <-chan *engine.Report {
	done := make(chan *engine.Report, 1)
	go func() {
		_, rep, _ := spec.RunWith(harness.RunOptions{
			Parallel: parallel, Stop: stop,
			PointRunner: c.Execute,
		})
		done <- rep
	}()
	return done
}

// TestFleetSeesWholeSweep is the fleet window: whatever RunOptions.Parallel
// says, a sweep's every point is pending at once for a fleet to take, so 1, 2,
// 4 and 8 lease requests are all answered with a unit. (While Parallel
// goroutines each blocked in Execute the window was Parallel: 1 / 2 / 4 units
// of 24, and the second of two leases came back empty under Parallel: 1.) The
// worker here is an id that heartbeats and a test that calls Lease, so
// nothing is computed: the leased units are delivered by hand and the drain
// withdraws the rest.
func TestFleetSeesWholeSweep(t *testing.T) {
	for _, parallel := range []int{1, 2, 4} {
		c := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
		t.Cleanup(c.Close)
		c.Heartbeat("w", nil)
		stop := make(chan struct{})
		done := sweepThrough(c, windowSpec(t), parallel, stop)
		eventually(t, "every point to be pending", func() bool { return c.Stats().QueueDepth == 24 })

		var leased []*WorkUnit
		for _, k := range []int{1, 2, 4, 8} {
			for i := 0; i < k; i++ {
				wu := c.Lease("w")
				if wu == nil {
					t.Fatalf("Parallel: %d: lease %d of %d came back empty with %d units pending", parallel, i+1, k, c.Stats().QueueDepth)
				}
				leased = append(leased, wu)
			}
		}
		if st := c.Stats(); st.QueueDepth != 24-15 || st.LeasesOutstanding != 15 || st.LocalRuns != 0 {
			t.Fatalf("Parallel: %d after 15 leases: %+v", parallel, st)
		}

		// Drain: the nine pending units are withdrawn, the fifteen leased ones
		// are waited for.
		close(stop)
		eventually(t, "the pending units to be withdrawn", func() bool { return c.Stats().UnitsInFlight == 15 })
		if wu := c.Lease("w"); wu != nil {
			t.Fatalf("Parallel: %d: a withdrawn unit was leased: %+v", parallel, wu)
		}
		for i, wu := range leased {
			res := resultFor(i)
			c.Deliver(ResultUpload{Worker: "w", Fingerprint: wu.Fingerprint, Key: wu.Key, Result: &res})
		}
		if rep := <-done; rep.Completed != 15 || rep.Aborted != 9 || rep.Failed() != 0 || rep.Workers != parallel {
			t.Fatalf("Parallel: %d: drained sweep %v, want 15 completed and 9 aborted", parallel, rep)
		}
	}
}

// TestParallelBoundsLocalSimulation is the other half: however a point comes
// to run in this process — no fleet at all, or a fleet whose queue is full so
// that Execute spills — at most Parallel points simulate at once, and that
// many do. The count is taken inside the point, where runPoint calls
// harness.PointHook; the first Parallel points to get there wait for each
// other, so a sweep that never reached Parallel at once would time out.
func TestParallelBoundsLocalSimulation(t *testing.T) {
	peakSimulating := func(parallel int) *atomic.Int64 {
		var simulating, started, peak atomic.Int64
		together := make(chan struct{}) // closed by the Parallel-th point to start
		hookPoints(t, func(string) {
			cur := simulating.Add(1)
			defer simulating.Add(-1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			if started.Add(1) == int64(parallel) {
				close(together)
			}
			select {
			case <-together:
			case <-time.After(30 * time.Second):
				t.Errorf("Parallel: %d: never %d points simulating at once", parallel, parallel)
			}
		})
		return &peak
	}
	for _, parallel := range []int{1, 2, 4} {
		// No workers: every unit goes local the moment it is offered.
		c := NewCoordinator(CoordinatorOptions{})
		t.Cleanup(c.Close)
		peak := peakSimulating(parallel)
		if rep := <-sweepThrough(c, windowSpec(t), parallel, nil); rep.Completed != 24 {
			t.Fatalf("Parallel: %d, no fleet: %v", parallel, rep)
		}
		if st := c.Stats(); peak.Load() != int64(parallel) || st.LocalRuns != 24 {
			t.Errorf("Parallel: %d, no fleet: peak %d points simulating, %d local runs", parallel, peak.Load(), st.LocalRuns)
		}

		// A live worker id and room for one pending unit: one point queues, the
		// other 23 spill onto the same slots. Nobody leases, so the drain
		// withdraws the queued one once the rest are done.
		c = NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, MaxQueue: 1})
		t.Cleanup(c.Close)
		c.Heartbeat("w", nil)
		peak = peakSimulating(parallel)
		stop := make(chan struct{})
		done := sweepThrough(c, windowSpec(t), parallel, stop)
		eventually(t, "the spilled points to finish", func() bool {
			st := c.Stats()
			return st.CacheSize == 23 && st.UnitsInFlight == 1
		})
		close(stop)
		if rep := <-done; rep.Completed != 23 || rep.Aborted != 1 {
			t.Fatalf("Parallel: %d, MaxQueue 1: %v, want 23 completed and 1 aborted", parallel, rep)
		}
		if st := c.Stats(); peak.Load() != int64(parallel) || st.QueueFull != 23 || st.LocalRuns != 23 {
			t.Errorf("Parallel: %d, MaxQueue 1: peak %d points simulating, %+v", parallel, peak.Load(), st)
		}
	}
}
