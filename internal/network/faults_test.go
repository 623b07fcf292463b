package network

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestKillLinkValidation(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	n := mustNet(t, testConfig(topo, routing.Disha(3), 0.0, 1))
	if err := n.KillLink(0, 99); err == nil {
		t.Error("bad port accepted")
	}
	if err := n.KillLink(0, 0); err != nil {
		t.Fatalf("idle link refused: %v", err)
	}
	if n.FailedLinks() != 1 {
		t.Fatal("failed link not counted")
	}
	if err := n.KillLink(0, 0); err == nil {
		t.Error("double-failing a link accepted")
	}
	// The paired reverse direction is gone too.
	nb, _ := topo.Neighbor(0, 0)
	if err := n.KillLink(nb, topology.ReversePort(0)); err == nil {
		t.Error("reverse direction should already be failed")
	}
}

func TestKillLinkRefusesDisconnection(t *testing.T) {
	// On a 2-node ring (radix-2 single dimension has doubled links) use a
	// small mesh: cutting the only link to a corner must be refused.
	topo := topology.MustMesh(2, 2)
	cfg := testConfig(topo, routing.Disha(3), 0.0, 1)
	n := mustNet(t, cfg)
	// Corner (0,0) connects via +X and +Y. Fail +X, then +Y must refuse.
	if err := n.KillLink(0, topology.PortFor(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := n.KillLink(0, topology.PortFor(1, 1)); err == nil {
		t.Fatal("disconnecting a node must be refused")
	}
}

// TestDishaToleratesFaults is the paper's fault-tolerance claim end to end:
// with several failed links, Disha with misrouting delivers every packet —
// including packets stranded by the faults, which escape through the
// fault-aware Deadlock Buffer lane.
func TestDishaToleratesFaults(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := testConfig(topo, routing.Disha(3), 0.4, 7)
	n := mustNet(t, cfg)
	for _, f := range []struct {
		node topology.Node
		port int
	}{
		{topo.NodeAt(topology.Coord{0, 0}), topology.PortFor(0, 1)},
		{topo.NodeAt(topology.Coord{2, 1}), topology.PortFor(1, 1)},
		{topo.NodeAt(topology.Coord{3, 3}), topology.PortFor(0, -1)},
	} {
		if err := n.KillLink(f.node, f.port); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, n, 4000, 60000)
	c := n.Counters()
	if c.PacketsDelivered != c.PacketsInjected {
		t.Fatalf("faulty network lost packets: %d/%d", c.PacketsDelivered, c.PacketsInjected)
	}
	if c.PacketsDelivered < 200 {
		t.Fatalf("only %d packets delivered", c.PacketsDelivered)
	}
}

// TestHealThenRefailLink cycles one link through fail → heal → refail,
// checking the bookkeeping stays consistent and traffic still drains.
func TestHealThenRefailLink(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	n := mustNet(t, testConfig(topo, routing.Disha(3), 0.3, 17))
	if err := n.KillLink(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.HealLink(0, 0); err != nil {
		t.Fatalf("heal after fail: %v", err)
	}
	if n.FailedLinks() != 0 {
		t.Fatalf("heal did not clear the failed-link count: %d", n.FailedLinks())
	}
	if err := n.HealLink(0, 0); err == nil {
		t.Fatal("healing a healthy link accepted")
	}
	n.Run(200)
	if err := n.KillLink(0, 0); err != nil {
		t.Fatalf("refail after heal: %v", err)
	}
	if n.FailedLinks() != 1 {
		t.Fatalf("refail not counted: %d", n.FailedLinks())
	}
	// The reverse direction is the same link: healing from the far side
	// must work on the canonical key.
	nb, _ := topo.Neighbor(0, 0)
	if err := n.HealLink(nb, topology.ReversePort(0)); err != nil {
		t.Fatalf("heal via reverse endpoint: %v", err)
	}
	drain(t, n, 1000, 60000)
	c := n.Counters()
	if c.PacketsInjected != c.PacketsDelivered+c.PacketsLost {
		t.Fatalf("ledger broken: injected=%d delivered=%d lost=%d",
			c.PacketsInjected, c.PacketsDelivered, c.PacketsLost)
	}
}

// TestFailLastRedundantLink strips a corner down to one link and checks the
// final cut is refused.
func TestFailLastRedundantLink(t *testing.T) {
	topo := topology.MustMesh(2, 2)
	n := mustNet(t, testConfig(topo, routing.Disha(3), 0.0, 1))
	if err := n.KillLink(0, topology.PortFor(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := n.KillLink(0, topology.PortFor(1, 1)); err == nil {
		t.Fatal("KillLink accepted cutting the corner's last link")
	}
	// Healing the first link restores redundancy, and the other cut works.
	if err := n.HealLink(0, topology.PortFor(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := n.KillLink(0, topology.PortFor(1, 1)); err != nil {
		t.Fatalf("cut with restored redundancy refused: %v", err)
	}
}

// TestRecoveryLaneRoutesAroundFault forces a recovery whose dimension-order
// DB path would cross the failed link, verifying the BFS table detours.
func TestRecoveryLaneRoutesAroundFault(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := testConfig(topo, routing.Disha(0), 0.8, 10)
	cfg.Router.VCs = 1
	cfg.Router.BufferDepth = 1
	n := mustNet(t, cfg)
	// Fail a handful of x-links so many DOR DB paths are broken.
	for _, f := range []struct {
		node topology.Node
		port int
	}{
		{topo.NodeAt(topology.Coord{1, 1}), topology.PortFor(0, 1)},
		{topo.NodeAt(topology.Coord{1, 2}), topology.PortFor(0, 1)},
	} {
		if err := n.KillLink(f.node, f.port); err != nil {
			t.Fatal(err)
		}
	}
	recovered := 0
	n.OnDeliver = func(p *packet.Packet) {
		if p.OnDB {
			recovered++
		}
	}
	drain(t, n, 4000, 120000)
	if recovered == 0 {
		t.Skip("no recoveries at this seed")
	}
	if n.Counters().PacketsDelivered != n.Counters().PacketsInjected {
		t.Fatal("lost packets with recoveries across faults")
	}
}

// TestDORWedgesOnFault demonstrates the contrast the paper draws: a
// deterministic scheme has no alternative when its one path dies.
func TestDORWedgesOnFault(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := testConfig(topo, routing.DOR(), 0.4, 7)
	cfg.Router.Timeout = 0
	n := mustNet(t, cfg)
	if err := n.KillLink(topo.NodeAt(topology.Coord{0, 0}), topology.PortFor(0, 1)); err != nil {
		t.Fatal(err)
	}
	n.Run(4000)
	if n.RunUntilDrained(20000) {
		t.Skip("no packet happened to need the failed link (unlikely)")
	}
	if n.InFlight() == 0 {
		t.Fatal("wedged with nothing in flight?")
	}
	_ = router.PortEject // document the import
}
