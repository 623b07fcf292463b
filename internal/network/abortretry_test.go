package network

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

func abortRetryConfig(seed uint64) Config {
	topo := topology.MustTorus(4, 4)
	cfg := testConfig(topo, routing.Disha(0), 0.9, seed)
	cfg.Router.VCs = 1
	cfg.Router.BufferDepth = 1
	cfg.Router.Timeout = 8
	cfg.Router.Recovery = router.RecoveryAbortRetry
	return cfg
}

// TestAbortRetryDrains stresses the most deadlock-prone configuration under
// kill-and-retransmit recovery: kills must happen and every packet must
// still be delivered exactly once.
func TestAbortRetryDrains(t *testing.T) {
	n := mustNet(t, abortRetryConfig(12))
	if n.Token() != nil {
		t.Fatal("abort-retry must not create a token")
	}
	delivered := map[packet.ID]bool{}
	n.OnDeliver = func(p *packet.Packet) {
		if delivered[p.ID] {
			t.Fatalf("packet %v delivered twice", p)
		}
		delivered[p.ID] = true
	}
	drain(t, n, 4000, 120000)
	c := n.Counters()
	if c.PacketsKilled == 0 {
		t.Fatal("expected kills under saturating 1-VC load")
	}
	// Identity: each kill re-counts the packet as injected on retry.
	if c.PacketsDelivered != c.PacketsInjected-c.PacketsKilled {
		t.Fatalf("delivered %d != injected %d - killed %d",
			c.PacketsDelivered, c.PacketsInjected, c.PacketsKilled)
	}
	if c.Recoveries != 0 || c.TokenSeizures != 0 {
		t.Fatal("abort-retry must not use the Deadlock Buffer lane")
	}
	checkOfferedLedger(t, n)
}

// TestAbortRetrySeeds covers several deadlock shapes.
func TestAbortRetrySeeds(t *testing.T) {
	for _, seed := range []uint64{4, 8, 9, 10, 16, 17} {
		n := mustNet(t, abortRetryConfig(seed))
		drain(t, n, 3000, 120000)
	}
}

// TestAbortRetryLatencyPenalty verifies the paper's Section 1 criticism:
// killed packets suffer increased latencies. Every retried packet's age
// must exceed the no-contention minimum by at least one full time-out.
func TestAbortRetryRetriedPacketState(t *testing.T) {
	n := mustNet(t, abortRetryConfig(12))
	retried := 0
	n.OnDeliver = func(p *packet.Packet) {
		if p.Retries > 0 {
			retried++
			if !p.TimedOut {
				t.Fatalf("retried packet %v not marked timed out", p)
			}
			if p.OnDB || p.SeizedToken {
				t.Fatalf("abort-retry packet %v has DB-lane state", p)
			}
			if p.Age() < 8 {
				t.Fatalf("retried packet %v impossibly fast", p)
			}
		}
	}
	drain(t, n, 4000, 120000)
	if retried == 0 {
		t.Fatal("no retries at this seed, so the check is vacuous: pin a seed whose drain retries a packet (try seeds 1-20)")
	}
}

// TestAbortRetryCreditIntegrity kills packets mid-flight and then checks
// that the credit invariant holds on every link afterwards (purging must
// return exactly the purged flits' credits).
func TestAbortRetryCreditIntegrity(t *testing.T) {
	n := mustNet(t, abortRetryConfig(12))
	topo := n.Topo()
	n.Run(2000)
	if n.Counters().PacketsKilled == 0 {
		t.Fatal("no kills by cycle 2000 at this seed, so the check is vacuous: pin a seed with PacketsKilled > 0 (try seeds 1-20)")
	}
	for i, u := range n.Routers() {
		for q := 0; q < topo.Degree(); q++ {
			v, ok := topo.Neighbor(topology.Node(i), q)
			if !ok {
				continue
			}
			down := n.Routers()[v]
			rev := topology.ReversePort(q)
			for vc := 0; vc < 1; vc++ {
				if u.Credits(q, vc)+down.InputOccupancy(rev, vc) != 1 {
					t.Fatalf("credit invariant violated at node %d port %d vc %d", i, q, vc)
				}
			}
		}
	}
	if !n.RunUntilDrained(120000) {
		t.Fatal("did not drain after kills")
	}
}

// checkOfferedLedger holds every packet a source generated to one fate:
// injected or still queued. Abort-retry re-queues a killed packet and counts
// it as injected again on retry, so its kills come off the injected count:
//
//	PacketsOffered == PacketsInjected - PacketsKilled + queued
func checkOfferedLedger(t *testing.T, n *Network) {
	t.Helper()
	c := n.Counters()
	if got := c.PacketsInjected - c.PacketsKilled + n.QueuedPackets(); c.PacketsOffered != got {
		t.Fatalf("offered %d != injected %d - killed %d + queued %d",
			c.PacketsOffered, c.PacketsInjected, c.PacketsKilled, n.QueuedPackets())
	}
}
