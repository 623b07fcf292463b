package network

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

func concurrentConfig(seed uint64) Config {
	topo := topology.MustTorus(4, 4)
	cfg := testConfig(topo, routing.Disha(0), 0.9, seed)
	cfg.Router.VCs = 1
	cfg.Router.BufferDepth = 1
	cfg.Router.Timeout = 8
	cfg.Router.Recovery = router.RecoveryConcurrent
	return cfg
}

// TestConcurrentRecoveryDrains stresses the most deadlock-prone
// configuration under token-free recovery, on the torus and on the two
// classes whose recovery order steps off the links: every packet must still
// be delivered, and recoveries happen without any token.
func TestConcurrentRecoveryDrains(t *testing.T) {
	for _, g := range []topology.Graph{topology.MustTorus(4, 4), topology.MustDragonfly(4, 2), topology.MustFatTree(4)} {
		t.Run(g.Name(), func(t *testing.T) {
			cfg := testConfig(g, routing.Disha(0), 0.9, 12)
			cfg.Router = concurrentConfig(12).Router
			n := mustNet(t, cfg)
			if n.Token() != nil {
				t.Fatal("concurrent recovery must not create a token")
			}
			drain(t, n, 4000, 60000)
			c := n.Counters()
			if c.PacketsDelivered != c.PacketsInjected {
				t.Fatalf("lost packets: injected %d delivered %d", c.PacketsInjected, c.PacketsDelivered)
			}
			if c.Recoveries == 0 {
				t.Fatal("expected recoveries under saturating 1-VC load")
			}
			if c.TokenSeizures != 0 {
				t.Fatal("token seizures must be zero in concurrent mode")
			}
		})
	}
}

// TestConcurrentRecoverySeeds covers several seeds to exercise different
// deadlock shapes, including multiple simultaneous recoveries.
func TestConcurrentRecoverySeeds(t *testing.T) {
	for _, seed := range []uint64{4, 8, 9, 10, 16, 17, 19} {
		n := mustNet(t, concurrentConfig(seed))
		drain(t, n, 3000, 60000)
	}
}

// TestConcurrentRecoveredPacketsAreNotTokenHolders checks packet state under
// concurrent recovery: OnDB set, SeizedToken not set.
func TestConcurrentRecoveredPacketsAreNotTokenHolders(t *testing.T) {
	n := mustNet(t, concurrentConfig(12))
	recovered := 0
	n.OnDeliver = func(p *packet.Packet) {
		if p.OnDB {
			recovered++
			if p.SeizedToken {
				t.Fatal("concurrent recovery must not mark SeizedToken")
			}
			if p.RecoveredAt < 0 {
				t.Fatal("recovered packet missing RecoveredAt")
			}
		}
	}
	drain(t, n, 4000, 60000)
	if recovered == 0 {
		t.Fatal("no recovery at this seed, so the check is vacuous: pin a seed whose drain delivers a packet over the lanes (try seeds 1-20)")
	}
	if int64(recovered) != n.Counters().Recoveries {
		t.Fatalf("recovered %d, counter says %d", recovered, n.Counters().Recoveries)
	}
}

// TestConcurrentRecoveryParallelism verifies the point of the mode: multiple
// packets can be on the Deadlock Buffer lanes at once.
func TestConcurrentRecoveryParallelism(t *testing.T) {
	n := mustNet(t, concurrentConfig(12))
	maxSimultaneous := 0
	for i := 0; i < 8000; i++ {
		n.Step()
		onDB := 0
		for _, r := range n.Routers() {
			for lane := 0; lane < r.DBLanes(); lane++ {
				if r.DBLaneOwner(lane) != nil {
					onDB++
				}
			}
		}
		if onDB > maxSimultaneous {
			maxSimultaneous = onDB
		}
	}
	if maxSimultaneous < 2 {
		t.Fatalf("never saw concurrent DB use (max %d), so the check is vacuous: pin a seed at which two lanes are owned at once (try seeds 1-20)", maxSimultaneous)
	}
}

func TestConcurrentRequiresFlitByFlit(t *testing.T) {
	cfg := concurrentConfig(1)
	cfg.Router.Alloc = 1 // PacketByPacket
	if _, err := New(cfg); err == nil {
		t.Fatal("concurrent recovery with packet-by-packet allocation must fail")
	}
}

// TestInjectionThrottle verifies the paper's injection-limitation citation:
// with a tight throttle each node never has more than the limit in flight.
func TestInjectionThrottle(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := testConfig(topo, routing.Disha(0), 0.9, 33)
	cfg.InjectionThrottle = 2
	n := mustNet(t, cfg)
	perSrc := map[topology.Node]int{}
	n.OnDeliver = func(p *packet.Packet) { perSrc[p.Src]-- }
	// Track outstanding via injections: count at injection time by scanning
	// counters is awkward; instead verify the global bound holds.
	for i := 0; i < 4000; i++ {
		n.Step()
		if fly := n.InFlight(); fly > int64(topo.Nodes()*cfg.InjectionThrottle) {
			t.Fatalf("in-flight %d exceeds throttle bound %d", fly, topo.Nodes()*cfg.InjectionThrottle)
		}
	}
	if !n.RunUntilDrained(30000) {
		t.Fatal("throttled network failed to drain")
	}
}

// TestReceptionChannelsSpeedUpHotspot checks that widening the reception
// path raises delivered throughput under hot-spot traffic (future work the
// paper suggests: "increasing the number of reception channels at nodes to
// quickly drain packets").
func TestReceptionChannelsSpeedUpHotspot(t *testing.T) {
	run := func(rx int) int64 {
		topo := topology.MustTorus(4, 4)
		cfg := testConfig(topo, routing.Disha(3), 0.6, 77)
		cfg.Router.ReceptionChannels = rx
		cfg.Pattern = hotPattern(topo)
		n := mustNet(t, cfg)
		n.Run(6000)
		return n.Counters().PacketsDelivered
	}
	one, four := run(1), run(4)
	if four <= one {
		t.Fatalf("4 reception channels (%d delivered) not better than 1 (%d)", four, one)
	}
}
