package network

import (
	"testing"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// FuzzConfigNormalize drives Config validation (and the constructors behind
// it) with arbitrary parameters: New must either reject the configuration
// with an error or return a network that survives a short run with sound
// invariants — never panic. The algorithm/recovery/allocation selectors are
// decoded modulo their domains so the fuzzer reaches every combination,
// including degenerate VC/buffer settings.
func FuzzConfigNormalize(f *testing.F) {
	f.Add(int8(4), int8(4), uint8(0), int8(4), int8(2), int16(8), uint8(0), uint8(0), int16(8), uint16(100))
	f.Add(int8(8), int8(8), uint8(1), int8(1), int8(1), int16(4), uint8(1), uint8(0), int16(32), uint16(300))
	f.Add(int8(3), int8(5), uint8(2), int8(2), int8(1), int16(1), uint8(2), uint8(1), int16(1), uint16(50))
	f.Add(int8(2), int8(0), uint8(3), int8(0), int8(0), int16(0), uint8(0), uint8(1), int16(0), uint16(10))
	f.Add(int8(4), int8(4), uint8(4), int8(-2), int8(-1), int16(-8), uint8(2), uint8(0), int16(-1), uint16(120))
	f.Fuzz(func(t *testing.T, kx, ky int8, algSel uint8, vcs, depth int8,
		timeout int16, recovery, alloc uint8, msgLen int16, cycles uint16) {
		// Fold the numeric knobs into small ranges that still include
		// invalid values (negatives, zeros): rejection paths stay reachable
		// while valid configurations remain cheap enough to actually step.
		fold := func(v int8, span int) int { return int(v)%span - 1 }
		topo, err := topology.NewTorus(fold(kx, 10), fold(ky, 10))
		if err != nil {
			return
		}
		vcs = int8(fold(vcs, 10))
		depth = int8(fold(depth, 7))
		msgLen = int16(fold(int8(msgLen%64), 34))
		algs := []routing.Algorithm{
			routing.Disha(0), routing.Disha(3), routing.DOR(),
			routing.NegativeFirst(), routing.DallyAoki(), routing.Duato(),
		}
		cfg := Config{
			Topo:      topo,
			Algorithm: algs[int(algSel)%len(algs)],
			Pattern:   traffic.Uniform(topo),
			LoadRate:  0.4,
			MsgLen:    int(msgLen),
			Seed:      1,
			Router: router.Config{
				VCs:         int(vcs),
				BufferDepth: int(depth),
				Timeout:     sim.Cycle(timeout),
				Recovery:    router.RecoveryMode(int(recovery) % 4),
				Alloc:       router.AllocPolicy(int(alloc) % 3),
			},
		}
		n, err := New(cfg)
		if err != nil {
			return
		}
		steps := int(cycles) % 200
		for i := 0; i < steps; i++ {
			n.Step()
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("after %d cycles: %v", steps, err)
		}
		c := n.Counters()
		if c.PacketsDelivered > c.PacketsInjected {
			t.Fatalf("delivered %d > injected %d", c.PacketsDelivered, c.PacketsInjected)
		}
	})
}

// FuzzSoALayout drives the struct-of-arrays layout through arbitrary
// geometries — topology class, radix, VC count, buffer depth, load, seed —
// and steps the production kernel in lockstep with the full scan (every
// router visited every cycle) over a short run, with
// CheckInvariants on the production kernel every cycle. That includes the
// per-router CheckState, which verifies every slot-mask bit against the
// arrays it summarizes, so a mask the scans would misread fails on the cycle
// it goes stale. topoSel%3 picks a torus (kx × ky), a full mesh of kx%23
// nodes or a dragonfly(kx%5+1, ky%4+1); the two digraphs reach degrees up to
// 21, where the switch allocator's per-output masks are longest. topoSel/3
// picks the crossbar allocation and recovery mode (fuzzModes), so the
// packet-by-packet crossbar, concurrent recovery's two lanes and
// abort-and-retry's purges run too; every entry with topoSel < 3 keeps the
// flit-by-flit sequential mode it always ran. The committed
// corpus pins the shapes most likely to break slot arithmetic: 2-ary tori
// (every port a wraparound), odd radices, 1-VC configurations where the
// injection slot comes immediately after a single-VC port block, and full
// meshes whose routers have exactly 64 and 65 input slots (one mask word,
// and the injection slot alone in the second).
func FuzzSoALayout(f *testing.F) {
	// 2-ary torus, 1 VC, minimal depth.
	f.Add(uint8(2), uint8(2), uint8(0), uint8(1), uint8(1), uint8(40), uint64(1), uint8(80), uint8(0))
	// Odd × odd mesh under NegativeFirst.
	f.Add(uint8(3), uint8(5), uint8(3), uint8(2), uint8(2), uint8(50), uint64(7), uint8(100), uint8(0))
	// Odd-radix torus, deadlock-prone DISHA settings.
	f.Add(uint8(5), uint8(5), uint8(0), uint8(2), uint8(1), uint8(60), uint64(42), uint8(120), uint8(0))
	// Duato needs 3 VCs on a torus.
	f.Add(uint8(4), uint8(4), uint8(5), uint8(3), uint8(2), uint8(50), uint64(9), uint8(90), uint8(0))
	// Full mesh of 16, radix 15, 4 VCs.
	f.Add(uint8(16), uint8(0), uint8(1), uint8(3), uint8(1), uint8(20), uint64(5), uint8(120), uint8(1))
	// Dragonfly(4, 3), radix 6, 1 VC.
	f.Add(uint8(3), uint8(2), uint8(0), uint8(0), uint8(0), uint8(60), uint64(3), uint8(140), uint8(2))
	// One seed per other mode. Concurrent recovery on a 4x4 torus, 1 VC.
	f.Add(uint8(4), uint8(4), uint8(0), uint8(0), uint8(0), uint8(70), uint64(11), uint8(140), uint8(3))
	// Abort-and-retry on a 5x5 torus, 2 VCs, depth 1.
	f.Add(uint8(5), uint8(5), uint8(0), uint8(1), uint8(0), uint8(80), uint64(12), uint8(140), uint8(6))
	// Packet-by-packet, sequential recovery, on Dragonfly(3, 2), 2 VCs.
	f.Add(uint8(2), uint8(1), uint8(1), uint8(1), uint8(1), uint8(60), uint64(13), uint8(140), uint8(11))
	// Packet-by-packet with abort-and-retry on a 5x5 torus, 1 VC.
	f.Add(uint8(5), uint8(5), uint8(0), uint8(0), uint8(0), uint8(60), uint64(14), uint8(140), uint8(12))
	f.Fuzz(func(t *testing.T, kx, ky, algSel, vcs, depth, loadPct uint8, seed uint64, cycles, topoSel uint8) {
		algs := []routing.Algorithm{
			routing.Disha(0), routing.Disha(3), routing.DOR(),
			routing.NegativeFirst(), routing.DallyAoki(), routing.Duato(),
		}
		mode := fuzzModes[int(topoSel/3)%len(fuzzModes)]
		build := func() (*Network, error) {
			var topo topology.Graph
			var err error
			switch topoSel % 3 {
			case 0:
				topo, err = topology.NewTorus(int(kx)%9, int(ky)%9)
			case 1:
				topo, err = topology.NewFullMesh(int(kx) % 23)
			default:
				topo, err = topology.NewDragonfly(int(kx)%5+1, int(ky)%4+1)
			}
			if err != nil {
				return nil, err
			}
			return New(Config{
				Topo:      topo,
				Algorithm: algs[int(algSel)%len(algs)],
				Pattern:   traffic.Uniform(topo),
				LoadRate:  float64(loadPct%100) / 100,
				MsgLen:    4,
				Seed:      seed,
				Router: router.Config{
					VCs:         int(vcs)%5 + 1,
					BufferDepth: int(depth)%4 + 1,
					Timeout:     16,
					Alloc:       mode.alloc,
					Recovery:    mode.recovery,
				},
			})
		}
		n, err := build()
		if err != nil {
			return // invalid geometry/algorithm combination; rejection is fine
		}
		full, err := build()
		if err != nil {
			t.Fatalf("second build failed where the first succeeded: %v", err)
		}
		useFullScan(t, full)
		steps := int(cycles) % 150
		for i := 0; i < steps; i++ {
			n.Step()
			full.Step()
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", i+1, err)
			}
			if n.Fingerprint() != full.Fingerprint() {
				reportDivergence(t, i+1, n, full)
			}
		}
		if err := full.CheckInvariants(); err != nil {
			t.Fatalf("full scan after %d cycles: %v", steps, err)
		}
	})
}

// fuzzModes are the crossbar allocation and recovery modes FuzzSoALayout
// selects from topoSel/3: every combination Config.Normalize accepts, the
// default (flit-by-flit, sequential) first.
var fuzzModes = []struct {
	alloc    router.AllocPolicy
	recovery router.RecoveryMode
}{
	{router.FlitByFlit, router.RecoverySequential},
	{router.FlitByFlit, router.RecoveryConcurrent},
	{router.FlitByFlit, router.RecoveryAbortRetry},
	{router.PacketByPacket, router.RecoverySequential},
	{router.PacketByPacket, router.RecoveryAbortRetry},
}
