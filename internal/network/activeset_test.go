package network

import (
	"bytes"
	"math/bits"
	"testing"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// activeCount returns how many routers are currently in the active set.
func (n *Network) activeCount() int {
	c := 0
	for _, w := range n.actMask {
		c += bits.OnesCount64(w)
	}
	return c
}

// activeSetVariants extends the kernel conformance matrix with the cases the
// active-set scheduler is most likely to get wrong: long idle stretches under
// the adaptive time-out (the decay catch-up must cross epoch boundaries) and
// bursty injection (routers oscillate between drained and busy).
func activeSetVariants() []kernelVariant {
	vs := kernelVariants()
	vs = append(vs,
		kernelVariant{"adaptive-low-load", func() Config {
			cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.05, 17)
			cfg.Router.VCs = 2
			cfg.Router.Timeout = 4
			cfg.Router.AdaptiveTimeout = true
			return cfg
		}},
		kernelVariant{"bursty-low-load", func() Config {
			cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.1, 23)
			cfg.Router.VCs = 2
			cfg.Router.Timeout = 4
			cfg.Burst = traffic.BurstConfig{MeanBurst: 8, MeanIdle: 56}
			return cfg
		}},
	)
	return vs
}

// TestActiveSetMatchesFullScan proves the scheduler's determinism contract
// directly: with the active set enabled execution is fingerprint-identical,
// cycle range by cycle range, to the full-scan kernel on every recovery
// mode, allocation policy, and the idle-heavy corner cases, and the state
// passes CheckInvariants after every cycle. 1200 cycles crosses several
// adaptive-decay epochs (256 idle timer ticks each), so the closed-form
// catch-up is exercised well past one epoch. Both networks also record
// their packet events, and the two sequences must be equal: a skipped router
// that woke a cycle late could still reach the same state by the next
// fingerprint, but not with the same event cycles.
func TestActiveSetMatchesFullScan(t *testing.T) {
	const cycles = 1200
	for _, v := range activeSetVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			baseline := mustNet(t, v.build())
			useFullScan(t, baseline)
			n := mustNet(t, v.build())
			const ringCap = 1 << 16 // holds every event of the run
			wantEvents, gotEvents := baseline.EnableTrace(ringCap), n.EnableTrace(ringCap)

			sawIdle := false
			for i := 0; i < cycles; i++ {
				baseline.Step()
				n.Step()
				if n.activeCount() < len(n.routers) {
					sawIdle = true
				}
				if err := n.CheckInvariants(); err != nil {
					t.Fatalf("cycle %d: %v", i+1, err)
				}
				if i%20 == 19 {
					if got, want := n.FingerprintHex(), baseline.FingerprintHex(); got != want {
						t.Fatalf("active set diverged by cycle %d:\n got %s\nwant %s", i+1, got, want)
					}
				}
			}
			if !sawIdle {
				t.Fatal("comparison never exercised a skipped router; the test is vacuous")
			}
			if baseline.activeCount() != len(baseline.routers) {
				t.Fatal("the full-scan baseline deactivated a router")
			}
			got, want := gotEvents.Events(), wantEvents.Events()
			if wantEvents.Total() == 0 || wantEvents.Total() > ringCap {
				t.Fatalf("full scan recorded %d events; want between 1 and the ring's %d", wantEvents.Total(), ringCap)
			}
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("event %d differs from the full scan's:\n got %v\nwant %v", i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("active set recorded %d events, full scan %d", len(got), len(want))
			}
		})
	}
}

// TestActiveSetDeactivatesAndReawakens pins the scheduler's lifecycle: under
// light load most routers sleep, a drained network sleeps entirely, and the
// sleeping state is consistent with the soundness invariant throughout.
func TestActiveSetDeactivatesAndReawakens(t *testing.T) {
	cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.05, 5)
	n := mustNet(t, cfg)

	minActive, maxActive := len(n.routers), 0
	for i := 0; i < 400; i++ {
		n.Step()
		a := n.activeCount()
		if a < minActive {
			minActive = a
		}
		if a > maxActive {
			maxActive = a
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// At 5% load on 64 nodes the steady state must be mostly asleep, and
	// wakes must actually happen (the network is not permanently idle).
	if minActive > len(n.routers)/2 {
		t.Errorf("min active %d of %d: scheduler barely deactivates at 5%% load", minActive, len(n.routers))
	}
	if maxActive == 0 {
		t.Fatal("no router ever active under injection")
	}
	if !n.RunUntilDrained(10000) {
		t.Fatal("network did not drain")
	}
	n.Step() // one more cycle so the post-drain sweep runs
	if a := n.activeCount(); a != 0 {
		t.Errorf("%d routers active in a drained network, want 0", a)
	}
}

// TestActiveSetSnapshotCrossMode proves activation state is derived, not
// serialized: a snapshot taken from an active-set network restores into a
// full-scan network (and vice versa) and both continuations stay
// fingerprint-identical, cycle by cycle.
func TestActiveSetSnapshotCrossMode(t *testing.T) {
	build := func() Config {
		cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.3, 29)
		cfg.Router.VCs = 2
		cfg.Router.Timeout = 4
		return cfg
	}
	src := mustNet(t, build())
	src.Run(300)

	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := make([]*Network, 2)
	for i, disable := range []bool{false, true} {
		rn := mustNet(t, build())
		if disable {
			useFullScan(t, rn)
		}
		if err := rn.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		if got, want := rn.FingerprintHex(), src.FingerprintHex(); got != want {
			t.Fatalf("restore (disable=%v) fingerprint mismatch:\n got %s\nwant %s", disable, got, want)
		}
		restored[i] = rn
	}
	for i := 0; i < 200; i++ {
		src.Step()
		restored[0].Step()
		restored[1].Step()
		if i%20 == 19 {
			want := src.FingerprintHex()
			if got := restored[0].FingerprintHex(); got != want {
				t.Fatalf("active-set restore diverged by cycle %d", i+1)
			}
			if got := restored[1].FingerprintHex(); got != want {
				t.Fatalf("full-scan restore diverged by cycle %d", i+1)
			}
		}
	}
}

// TestActiveSetAbortRetryPurgeGauges pins the subtlest catch-up rule: a
// router drained by an abort-retry purge goes to sleep with its
// blocked/presumed telemetry gauges still holding the pre-purge values (the
// full scan only clears them on the next timer pass). The catch-up must
// clear them on any later observation, so telemetry and digests agree with
// the full scan. Covered end to end by lockstep above; this isolates the
// rule on one router.
func TestActiveSetAbortRetryPurgeGauges(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.6, 7)
	cfg.Router.VCs = 2
	cfg.Router.BufferDepth = 1
	cfg.Router.Timeout = 4
	cfg.Router.Recovery = router.RecoveryAbortRetry
	cfg.Router.DeadlockBufferDepth = 0
	n := mustNet(t, cfg)
	n.Run(400)
	if n.Counters().PacketsKilled == 0 {
		t.Skip("no abort-retry kills at this seed; gauge rule not exercisable")
	}
	n.StopInjection()
	if !n.RunUntilDrained(10000) {
		t.Fatal("network did not drain")
	}
	n.Run(3)
	for _, r := range n.Routers() { // Routers() syncs skipped routers
		if r.BlockedHeaders() != 0 || r.PresumedHeaders() != 0 {
			t.Fatalf("node %d gauges stale after drain: blocked=%d presumed=%d",
				r.NodeID(), r.BlockedHeaders(), r.PresumedHeaders())
		}
	}
}
