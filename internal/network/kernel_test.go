package network

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// useFullScan makes n visit every router every cycle, the baseline the
// active-set scheduler is held to. Only this package's tests can select it,
// and only on a fresh network: before the first Step, and before any Restore
// (which rebuilds the active set).
func useFullScan(t testing.TB, n *Network) {
	t.Helper()
	if n.Now() != 0 {
		t.Fatalf("full scan selected at cycle %d, want before the first Step", n.Now())
	}
	n.activeSetOff = true
}

// kernelVariant is one network configuration of the kernel conformance
// matrix; together the variants cover every recovery mode and both crossbar
// allocation policies.
type kernelVariant struct {
	name  string
	build func() Config
}

func kernelVariants() []kernelVariant {
	base := func() Config {
		cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 7)
		cfg.Router.VCs = 2
		cfg.Router.BufferDepth = 1
		cfg.Router.Timeout = 4
		return cfg
	}
	return []kernelVariant{
		{"sequential", base},
		{"concurrent", func() Config {
			cfg := base()
			cfg.Router.Recovery = router.RecoveryConcurrent
			return cfg
		}},
		{"abort-retry", func() Config {
			cfg := base()
			cfg.Router.Recovery = router.RecoveryAbortRetry
			return cfg
		}},
		{"packet-by-packet", func() Config {
			cfg := base()
			cfg.Router.Alloc = router.PacketByPacket
			return cfg
		}},
	}
}

// TestKernelStepZeroAllocs asserts the steady-state hot path allocates
// nothing per cycle: injection stopped, in-flight traffic still moving
// through routing, switching, commit, timers and recovery phases.
func TestKernelStepZeroAllocs(t *testing.T) {
	cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.6, 11)
	cfg.Router.VCs = 2
	cfg.Router.BufferDepth = 1
	cfg.Router.Timeout = 4
	n := mustNet(t, cfg)
	// Warm up with live injection (growing scratch buffers to their
	// steady-state capacity), then stop sources so packet generation —
	// which inherently allocates — is out of the measured path.
	n.Run(400)
	n.StopInjection()
	n.Run(50)
	if allocs := testing.AllocsPerRun(100, n.Step); allocs != 0 {
		t.Errorf("%v allocs per Step in steady state, want 0", allocs)
	}
}

// TestInjectAllocatesOnlyPackets asserts that, with injection live well
// below saturation (load 0.05), Step allocates one object per packet
// generated and nothing else once warm: a source queue's array holds only
// its largest backlog (an emptied queue restarts at the front of it), so
// it grows only when its node sees a new largest backlog. Two things may
// still allocate in a window of 1 000 cycles: such a backlog (two arrays
// grow between cycles 3 000 and 4 000 here), and the runtime's own
// goroutines (the scavenger, the clean-up that follows a collection),
// since the count is the process's. So five windows are counted and the
// best of them must have no allocation beyond the packets; that is the
// only slack.
func TestInjectAllocatesOnlyPackets(t *testing.T) {
	cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.05, 11)
	n := mustNet(t, cfg)
	n.Run(2000)
	extra := make([]int64, 5)
	for w := range extra {
		var before, after runtime.MemStats
		offered := n.Counters().PacketsOffered
		runtime.ReadMemStats(&before)
		n.Run(1000)
		runtime.ReadMemStats(&after)
		packets := n.Counters().PacketsOffered - offered
		if packets == 0 {
			t.Fatal("no packet generated in 1000 cycles: injection is not live")
		}
		extra[w] = int64(after.Mallocs-before.Mallocs) - packets
	}
	if slices.Min(extra) != 0 {
		t.Errorf("allocations beyond one per packet in five windows of 1000 cycles: %v, want 0 in at least one", extra)
	}
}
