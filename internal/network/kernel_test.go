package network

import (
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
