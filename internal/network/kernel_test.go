package network

import (
	"testing"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// kernelVariant is one network configuration of the kernel conformance
// matrix; together the variants cover every recovery mode, both crossbar
// allocation policies, and the adaptive time-out.
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
			cfg.Router.DeadlockBufferDepth = 0
			return cfg
		}},
		{"packet-by-packet", func() Config {
			cfg := base()
			cfg.Router.Alloc = router.PacketByPacket
			return cfg
		}},
		{"adaptive-timeout", func() Config {
			cfg := base()
			cfg.Router.AdaptiveTimeout = true
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
