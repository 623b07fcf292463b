package network

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/topology"
)

// FailLink severs the bidirectional link between node and its neighbor on
// port, modeling a hard link fault on an idle link. The paper presents fault
// tolerance as a Disha capability: fully adaptive routing steers around
// faults (with misrouting where needed), and any packet stranded by a fault
// times out and escapes through the Deadlock Buffer lane, which is re-routed
// over live links only (a breadth-first next-hop table replaces
// dimension-order routing).
//
// FailLink is the conservative entry point: it refuses links carrying
// traffic, so it never loses flits. Dynamic mid-stream faults ARE modeled —
// by KillLink and the scheduled reconfiguration events (see reconfig.go),
// which drop the packets whose flits are committed to the dying link and
// account them in Counters.PacketsLost / FlitsLost. Both paths record the
// fault in the reconfiguration log, and a failed link can later be restored
// with HealLink.
//
// Restrictions, each returning an error: the link must exist and be idle;
// the live network must remain connected; and concurrent recovery is
// unsupported (its lane table is built once, over the intact topology, and
// cutting a link between consecutive nodes of the recovery order leaves it
// disconnected).
func (n *Network) FailLink(node topology.Node, port int) error {
	if n.cfg.Router.Recovery == router.RecoveryConcurrent {
		return fmt.Errorf("network: fault injection is not supported with concurrent recovery")
	}
	if int(node) < 0 || int(node) >= len(n.routers) || port < 0 || port >= n.topo.Degree() {
		return fmt.Errorf("network: no such link %d/%d", node, port)
	}
	a := n.routers[node]
	b := a.Neighbor(port)
	if b == nil {
		return fmt.Errorf("network: link %d/%d does not exist (or already failed)", node, port)
	}
	if a.LinkBusy(port) || b.LinkBusy(a.ReverseAt(port)) {
		return fmt.Errorf("network: link %d/%d is carrying traffic; drain before failing it", node, port)
	}
	// An idle link has no victims, so the mid-stream kill path degenerates to
	// exactly the static fault injection this API always provided.
	return n.applyNow(ReconfigEvent{Cycle: n.clock.Now(), Kind: ReconfigKillLink, Node: node, Port: port})
}

// FailedLinks returns how many links are currently down (failed or killed,
// minus healed). Links downed because an endpoint router was killed are not
// counted; they come back when the router heals.
func (n *Network) FailedLinks() int { return n.failedLinks }

// rebuildDBTable rebuilds the Deadlock Buffer lane table over live links
// (the builder construction uses, restricted to the current wiring) and
// installs it in place of the table the network was built with, which on a
// digraph is shared by every network on that graph and never written. Each per-destination BFS tree is loop-free, so a recovered
// packet following it always reaches its destination — preserving the
// recovery theorem's connectivity requirement (Lemma 1) under faults. A dead
// router has no live links, so nothing routes to or through it.
func (n *Network) rebuildDBTable() {
	n.routerState.SetLaneTable(core.BFSLaneTableOver(len(n.routers), n.topo.Degree(),
		func(v topology.Node, p int) (topology.Node, int, bool) {
			nb := n.routers[v].Neighbor(p)
			if nb == nil {
				return 0, 0, false
			}
			rev := n.routers[v].ReverseAt(p)
			return nb.NodeID(), rev, rev >= 0
		}))
}
