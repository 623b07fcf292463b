package network

import (
	"testing"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestPBPSelfCrossingWormholeDrains pins a configuration (found by the
// conservation property test) in which a misrouted wormhole revisits a router
// and enters it twice through the same physical input port. Packet-by-packet
// allocation used to forbid any second crossbar connection from a wired input
// port, even for the packet already holding it, so the earlier segment could
// never connect while the later segment sat blocked on credits that only the
// earlier segment's progress would free — a self-deadlock invisible to the
// timeout detector because the header had already been delivered. The
// allocator now admits same-packet connection sharing; this run must drain.
func TestPBPSelfCrossingWormholeDrains(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	rc := router.Default()
	rc.VCs = 3
	rc.BufferDepth = 3
	rc.Timeout = 8
	rc.Recovery = router.RecoveryAbortRetry
	rc.Alloc = router.PacketByPacket
	n, err := New(Config{
		Topo:      topo,
		Router:    rc,
		Algorithm: routing.Disha(3),
		Pattern:   traffic.Uniform(topo),
		LoadRate:  0.35,
		MsgLen:    8,
		Seed:      0xc785f0fc4979761f,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(800)
	if !n.RunUntilDrained(30000) {
		t.Fatalf("network did not drain: %d packets in flight", n.InFlight())
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
