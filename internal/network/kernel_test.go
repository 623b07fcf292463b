package network

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// kernelVariant is one network configuration whose sharded execution must
// match serial execution exactly; together the variants cover every recovery
// mode, both crossbar allocation policies, and the adaptive time-out.
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

// TestShardsMatchSerial proves the determinism contract on every recovery
// mode and allocation policy: after every single cycle the sharded network's
// fingerprint equals the serial one, for shard counts that divide the router
// count evenly and ones that do not. Run under -race this also exercises the
// phase barriers for data races.
func TestShardsMatchSerial(t *testing.T) {
	const cycles = 400
	for _, v := range kernelVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, shards := range []int{2, 3, 5, 8} {
				serial := mustNet(t, v.build())
				cfg := v.build()
				cfg.Kernel.Shards = shards
				sharded := mustNet(t, cfg)
				for i := 0; i < cycles; i++ {
					serial.Step()
					sharded.Step()
					if i%20 == 19 {
						if got, want := sharded.FingerprintHex(), serial.FingerprintHex(); got != want {
							t.Fatalf("shards=%d diverged by cycle %d:\n got %s\nwant %s", shards, i+1, got, want)
						}
						if err := sharded.CheckInvariants(); err != nil {
							t.Fatalf("shards=%d cycle %d: %v", shards, i+1, err)
						}
					}
				}
				sharded.Close()
				serial.Close()
			}
		})
	}
}

// TestShardedTraceMatchesSerial checks that observer-visible side effects —
// the packet-event trace, which flows through the deferred timeout flush —
// are identical between serial and sharded kernels, event for event.
func TestShardedTraceMatchesSerial(t *testing.T) {
	build := func(shards int) (*Network, *trace.Buffer) {
		cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 7)
		cfg.Router.VCs = 2
		cfg.Router.BufferDepth = 1
		cfg.Router.Timeout = 4
		cfg.Kernel.Shards = shards
		n := mustNet(t, cfg)
		tb := trace.New(1 << 16)
		n.SetTrace(tb)
		return n, tb
	}
	serial, serialTrace := build(0)
	defer serial.Close()
	sharded, shardedTrace := build(4)
	defer sharded.Close()
	serial.Run(400)
	sharded.Run(400)
	se, pe := serialTrace.Events(), shardedTrace.Events()
	if len(se) != len(pe) {
		t.Fatalf("trace length differs: serial %d, sharded %d", len(se), len(pe))
	}
	for i := range se {
		if se[i] != pe[i] {
			t.Fatalf("trace event %d differs: serial %+v, sharded %+v", i, se[i], pe[i])
		}
	}
	if serialTrace.Count(trace.Timeout) == 0 {
		t.Fatal("trace comparison exercised no timeout events")
	}
}

// TestKernelConfigValidation pins KernelConfig normalization: negative shard
// counts are rejected, oversized ones are clamped to the node count, and 0/1
// mean serial execution (no worker pool).
func TestKernelConfigValidation(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.DOR(), 0.1, 1)
	cfg.Kernel.Shards = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative shards accepted")
	}

	cfg.Kernel.Shards = 999 // > 16 nodes: clamped, not rejected
	n := mustNet(t, cfg)
	defer n.Close()
	if n.kern == nil || n.kern.shards != 16 {
		t.Fatalf("oversized shard count not clamped to node count: %+v", n.kern)
	}
	n.Run(50)

	for _, s := range []int{0, 1} {
		cfg.Kernel.Shards = s
		sn := mustNet(t, cfg)
		if sn.kern != nil {
			t.Fatalf("Shards=%d built a worker pool", s)
		}
		sn.Close() // must be safe without a pool
	}
}

// TestShardBounds pins the shard partitioning: contiguous, covering, and as
// even as possible — concatenation order is the determinism contract.
func TestShardBounds(t *testing.T) {
	for _, tc := range []struct{ nodes, shards int }{{16, 4}, {17, 4}, {256, 8}, {5, 5}, {7, 3}} {
		bounds := shardBounds(tc.nodes, tc.shards)
		lo := 0
		for i, b := range bounds {
			if b[0] != lo {
				t.Fatalf("nodes=%d shards=%d: shard %d starts at %d, want %d", tc.nodes, tc.shards, i, b[0], lo)
			}
			size := b[1] - b[0]
			if size < tc.nodes/tc.shards || size > tc.nodes/tc.shards+1 {
				t.Fatalf("nodes=%d shards=%d: shard %d has uneven size %d", tc.nodes, tc.shards, i, size)
			}
			lo = b[1]
		}
		if lo != tc.nodes {
			t.Fatalf("nodes=%d shards=%d: bounds cover %d nodes", tc.nodes, tc.shards, lo)
		}
	}
}

// TestKernelPanicPropagation checks that a panic inside a worker shard is
// re-raised on the stepping goroutine instead of crashing the process from
// a bare goroutine.
func TestKernelPanicPropagation(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.DOR(), 0.1, 1)
	cfg.Kernel.Shards = 2
	n := mustNet(t, cfg)
	defer n.Close()

	check := func(fns []func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("shard panic not propagated")
			}
		}()
		n.kern.run(fns)
	}
	boom := func() { panic("boom") }
	noop := func() {}
	check([]func(){noop, boom}) // worker shard
	check([]func(){boom, noop}) // caller shard

	// The pool must still be usable after propagating panics.
	n.Run(10)
}

// TestKernelStepZeroAllocs asserts the steady-state hot path allocates
// nothing per cycle, serially and sharded: injection stopped, in-flight
// traffic still moving through routing, switching, commit, timers and
// recovery phases.
func TestKernelStepZeroAllocs(t *testing.T) {
	for _, shards := range []int{0, 4} {
		cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.6, 11)
		cfg.Router.VCs = 2
		cfg.Router.BufferDepth = 1
		cfg.Router.Timeout = 4
		cfg.Kernel.Shards = shards
		n := mustNet(t, cfg)
		// Warm up with live injection (growing scratch buffers to their
		// steady-state capacity), then stop sources so packet generation —
		// which inherently allocates — is out of the measured path.
		n.Run(400)
		n.StopInjection()
		n.Run(50)
		if allocs := testing.AllocsPerRun(100, n.Step); allocs != 0 {
			t.Errorf("shards=%d: %v allocs per Step in steady state, want 0", shards, allocs)
		}
		n.Close()
	}
}

// TestKernelSpeedupSmoke guards against the sharded kernel regressing below
// serial throughput on multi-core hosts: on the paper's 16x16 torus the
// 4-shard kernel must not be slower than serial (it should be substantially
// faster; CI records the exact ratio via the Step benchmarks).
func TestKernelSpeedupSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs, have %d", runtime.NumCPU())
	}
	const cycles = 1500
	run := func(shards int) time.Duration {
		cfg := testConfig(topology.MustTorus(16, 16), routing.Disha(0), 0.5, 3)
		cfg.Kernel.Shards = shards
		n := mustNet(t, cfg)
		defer n.Close()
		n.Run(100) // warm-up: populate the network and scratch buffers
		start := time.Now()
		n.Run(cycles)
		return time.Since(start)
	}
	best := func(shards int) time.Duration {
		b := run(shards)
		for i := 0; i < 2; i++ {
			if d := run(shards); d < b {
				b = d
			}
		}
		return b
	}
	serial, sharded := best(0), best(4)
	t.Logf("16x16 torus, %d cycles: serial %v, 4 shards %v (%.2fx)",
		cycles, serial, sharded, float64(serial)/float64(sharded))
	if float64(sharded) > float64(serial)*1.05 {
		t.Errorf("sharded kernel slower than serial: %v vs %v", sharded, serial)
	}
}
