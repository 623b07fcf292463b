package network

import (
	"bytes"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// TestKillLinkDropsCommittedPackets kills a loaded link mid-stream and
// checks the loss ledger: every packet either arrives or is counted lost,
// and nothing wedges afterwards.
func TestKillLinkDropsCommittedPackets(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	n := mustNet(t, testConfig(topo, routing.Disha(3), 0.6, 5))
	n.Run(300)
	// Kill every port of node 5 one at a time until one carried traffic.
	var lost int64
	for port := 0; port < topo.Degree(); port++ {
		if err := n.KillLink(5, port); err != nil {
			t.Fatalf("KillLink(5,%d): %v", port, err)
		}
		if c := n.Counters(); c.PacketsLost > lost {
			lost = c.PacketsLost
			break
		}
		if err := n.HealLink(5, port); err != nil {
			t.Fatalf("HealLink(5,%d): %v", port, err)
		}
	}
	drain(t, n, 1000, 60000)
	c := n.Counters()
	if c.PacketsInjected != c.PacketsDelivered+c.PacketsLost {
		t.Fatalf("loss ledger broken: injected=%d delivered=%d lost=%d",
			c.PacketsInjected, c.PacketsDelivered, c.PacketsLost)
	}
	if c.PacketsLost > 0 && c.FlitsLost == 0 {
		t.Fatal("packets lost but no flits accounted")
	}
}

// TestKillRouterLedger kills a router under load: packets buffered there or
// addressed to it drop (PacketsLost for injected, PacketsUnroutable for
// queued/generated), everything else still delivers.
func TestKillRouterLedger(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	n := mustNet(t, testConfig(topo, routing.Disha(3), 0.5, 9))
	n.Run(300)
	if err := n.KillRouter(6); err != nil {
		t.Fatalf("KillRouter: %v", err)
	}
	if !n.RouterDead(6) || n.DeadRouters() != 1 {
		t.Fatal("router not marked dead")
	}
	n.Run(500)
	if err := n.HealRouter(6); err != nil {
		t.Fatalf("HealRouter: %v", err)
	}
	if n.DeadRouters() != 0 {
		t.Fatal("router not revived")
	}
	drain(t, n, 1000, 60000)
	c := n.Counters()
	if c.PacketsInjected != c.PacketsDelivered+c.PacketsLost {
		t.Fatalf("loss ledger broken: injected=%d delivered=%d lost=%d",
			c.PacketsInjected, c.PacketsDelivered, c.PacketsLost)
	}
	if c.PacketsLost == 0 {
		t.Fatal("killing a loaded router should drop something")
	}
	if c.PacketsUnroutable == 0 {
		t.Fatal("expected undeliverable generated traffic while the router was dead")
	}
}

// TestKillRouterRefusesDisconnection builds a 2x2 mesh and kills routers
// until removing another would disconnect (or empty) the live remainder.
func TestKillRouterRefusesDisconnection(t *testing.T) {
	topo := topology.MustMesh(2, 2)
	n := mustNet(t, testConfig(topo, routing.Disha(3), 0.0, 1))
	if err := n.KillRouter(1); err != nil {
		t.Fatalf("first kill: %v", err)
	}
	// The survivors form the chain 0-2-3; cutting its middle would strand
	// corner 0 from corner 3.
	if err := n.KillRouter(2); err == nil {
		t.Fatal("kill that disconnects the live remainder must be refused")
	}
	if err := n.KillRouter(3); err != nil {
		t.Fatalf("leaf kill refused: %v", err)
	}
	if err := n.KillRouter(99); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// TestSwapAlgorithmMidRun swaps routing under load and checks traffic keeps
// flowing and drains under the new function.
func TestSwapAlgorithmMidRun(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	n := mustNet(t, testConfig(topo, routing.Disha(3), 0.4, 3))
	n.Run(500)
	if err := n.SwapAlgorithm("disha-m1"); err != nil {
		t.Fatalf("SwapAlgorithm: %v", err)
	}
	if n.CurrentAlgorithm().Name() != "disha-m1" {
		t.Fatalf("current algorithm is %q", n.CurrentAlgorithm().Name())
	}
	drain(t, n, 1000, 60000)
	c := n.Counters()
	if c.PacketsInjected != c.PacketsDelivered+c.PacketsLost {
		t.Fatalf("swap lost packets: injected=%d delivered=%d lost=%d",
			c.PacketsInjected, c.PacketsDelivered, c.PacketsLost)
	}
}

// scheduleFixture is a mixed schedule used by the determinism tests.
func scheduleFixture() []ReconfigEvent {
	return []ReconfigEvent{
		{Cycle: 150, Kind: ReconfigKillLink, Node: 5, Port: 0},
		{Cycle: 340, Kind: ReconfigKillLink, Node: 10, Port: 2},
		{Cycle: 520, Kind: ReconfigHealLink, Node: 5, Port: 0},
		{Cycle: 700, Kind: ReconfigKillRouter, Node: 9},
		{Cycle: 980, Kind: ReconfigSwapAlgorithm, Alg: "disha-m1"},
		{Cycle: 1200, Kind: ReconfigHealRouter, Node: 9},
		{Cycle: 1390, Kind: ReconfigHealLink, Node: 10, Port: 2},
	}
}

// TestScheduledReconfigDeterministic runs the same schedule twice and
// demands byte-identical fingerprints and identical reconfiguration logs.
func TestScheduledReconfigDeterministic(t *testing.T) {
	run := func() (string, []ReconfigOutcome) {
		topo := topology.MustTorus(4, 4)
		n := mustNet(t, testConfig(topo, routing.Disha(2), 0.5, 21))
		if err := n.ScheduleReconfig(scheduleFixture()); err != nil {
			t.Fatal(err)
		}
		n.Run(2000)
		return n.FingerprintHex(), n.ReconfigLog()
	}
	d1, log1 := run()
	d2, log2 := run()
	if d1 != d2 {
		t.Fatalf("repeated chaos run diverged: %s vs %s", d1, d2)
	}
	if len(log1) != len(scheduleFixture()) {
		t.Fatalf("expected %d outcomes, got %d", len(scheduleFixture()), len(log1))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("outcome %d differs: %v vs %v", i, log1[i], log2[i])
		}
	}
}

// TestEmptyChaosScheduleZeroOverhead proves arming an empty schedule (or
// none) changes nothing: fingerprints match a run that never touched the
// reconfiguration API.
func TestEmptyChaosScheduleZeroOverhead(t *testing.T) {
	build := func() *Network {
		topo := topology.MustTorus(4, 4)
		return mustNet(t, testConfig(topo, routing.Disha(2), 0.5, 33))
	}
	plain := build()
	armed := build()
	if err := armed.ScheduleReconfig(nil); err != nil {
		t.Fatal(err)
	}
	plain.Run(1500)
	armed.Run(1500)
	if a, b := plain.FingerprintHex(), armed.FingerprintHex(); a != b {
		t.Fatalf("empty schedule perturbed the run: %s vs %s", a, b)
	}
	if armed.ReconfigCount() != 0 {
		t.Fatal("empty schedule produced log entries")
	}
}

// TestScheduleReconfigValidation covers arming-time rules: unsorted
// schedules are rejected, stale events are dropped.
func TestScheduleReconfigValidation(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	n := mustNet(t, testConfig(topo, routing.Disha(2), 0.0, 1))
	unsorted := []ReconfigEvent{
		{Cycle: 100, Kind: ReconfigKillLink, Node: 1, Port: 0},
		{Cycle: 50, Kind: ReconfigKillLink, Node: 2, Port: 0},
	}
	if err := n.ScheduleReconfig(unsorted); err == nil {
		t.Fatal("unsorted schedule accepted")
	}
	n.Run(200)
	if err := n.ScheduleReconfig([]ReconfigEvent{
		{Cycle: 100, Kind: ReconfigKillLink, Node: 1, Port: 0},
		{Cycle: 300, Kind: ReconfigKillLink, Node: 2, Port: 0},
	}); err != nil {
		t.Fatal(err)
	}
	if n.PendingReconfigs() != 1 {
		t.Fatalf("stale event not dropped: %d pending", n.PendingReconfigs())
	}
}

// TestSnapshotReplaysReconfig snapshots mid-campaign, restores into a fresh
// network, re-arms the same schedule, and demands lockstep fingerprints with
// the original for the rest of the campaign.
func TestSnapshotReplaysReconfig(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := testConfig(topo, routing.Disha(2), 0.5, 21)
	sched := scheduleFixture()

	orig := mustNet(t, cfg)
	if err := orig.ScheduleReconfig(sched); err != nil {
		t.Fatal(err)
	}
	orig.Run(800) // past the kill-link/heal-link/kill-router events

	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := mustNet(t, cfg)
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Checkpoints do not carry the pending schedule: re-arm it (applied
	// events are stale now and dropped on arming).
	if err := restored.ScheduleReconfig(sched); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.FingerprintHex(), orig.FingerprintHex(); got != want {
		t.Fatalf("restore mismatch: %s vs %s", got, want)
	}
	for i := 0; i < 900; i++ {
		orig.Step()
		restored.Step()
	}
	if got, want := restored.FingerprintHex(), orig.FingerprintHex(); got != want {
		t.Fatalf("replayed campaign diverged: %s vs %s", got, want)
	}
	lo, lr := orig.ReconfigLog(), restored.ReconfigLog()
	if len(lo) != len(lr) {
		t.Fatalf("log lengths differ: %d vs %d", len(lo), len(lr))
	}
	for i := range lo {
		if lo[i] != lr[i] {
			t.Fatalf("replayed outcome %d differs: %v vs %v", i, lo[i], lr[i])
		}
	}
}

// TestRecoveryBacklogQuiesces checks the reconvergence probe: after a kill
// with losses and a long quiet run, the backlog must reach zero.
func TestRecoveryBacklogQuiesces(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	n := mustNet(t, testConfig(topo, routing.Disha(2), 0.4, 13))
	n.Run(300)
	if err := n.KillLink(3, 0); err != nil {
		t.Fatal(err)
	}
	drain(t, n, 500, 60000)
	if p, b := n.RecoveryBacklog(); p != 0 || b != 0 {
		t.Fatalf("backlog after drain: presumed=%d busy=%d", p, b)
	}
}

// TestRebuiltLaneReachesEveryLiveDestination is Lemma 1 on the table the
// network actually routes by: after a link kill and a router kill, the
// installed Deadlock Buffer lane leads from every live node to every live
// destination over live links, within Nodes hops.
func TestRebuiltLaneReachesEveryLiveDestination(t *testing.T) {
	for _, name := range []string{"torus-4x4", "dragonfly-4x2", "fattree-4"} {
		topo, err := topology.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		n := mustNet(t, testConfig(topo, routing.Disha(3), 0.3, 4))
		n.Run(200)
		nodes := topo.Nodes()
		// The first link and the first router the protocol lets go (a kill
		// that would disconnect the live network is refused).
		killed := false
		for v := 0; v < nodes && !killed; v++ {
			for p := 0; p < topo.Degree() && !killed; p++ {
				killed = n.KillLink(topology.Node(v), p) == nil
			}
		}
		dead := -1
		for v := nodes - 1; v >= 0 && dead < 0; v-- {
			if n.KillRouter(topology.Node(v)) == nil {
				dead = v
			}
		}
		if !killed || dead < 0 {
			t.Fatalf("%s: no link or router could be killed", name)
		}
		table := n.routerState.LaneTable()
		if len(table) != nodes*nodes {
			t.Fatalf("%s: installed lane table has %d entries, want %d", name, len(table), nodes*nodes)
		}
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				if src == dead || dst == dead {
					continue
				}
				cur, hops := src, 0
				for ; cur != dst && hops <= nodes; hops++ {
					nb := n.routers[cur].Neighbor(int(table[dst*nodes+cur]))
					if nb == nil {
						t.Fatalf("%s: lane %d->%d needs a dead link at %d", name, src, dst, cur)
					}
					cur = int(nb.NodeID())
				}
				if cur != dst {
					t.Fatalf("%s: lane %d->%d loops", name, src, dst)
				}
			}
		}
	}
}

// TestSwapAlgorithmIsNetworkWide checks that a routing-function swap is one
// fact: the network and every router report the new function, after the
// swap and after a snapshot replays it into a fresh network.
func TestSwapAlgorithmIsNetworkWide(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(3), 0.4, 3)
	n := mustNet(t, cfg)
	n.Run(100)
	if err := n.SwapAlgorithm("disha-m1"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := mustNet(t, cfg)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	for _, net := range []*Network{n, restored} {
		if got := net.CurrentAlgorithm().Name(); got != "disha-m1" {
			t.Fatalf("network runs %q after the swap", got)
		}
		for _, r := range net.Routers() {
			if r.Algorithm() != net.CurrentAlgorithm() {
				t.Fatalf("router %d runs %q, network %q", r.NodeID(), r.Algorithm().Name(), net.CurrentAlgorithm().Name())
			}
		}
	}
}
