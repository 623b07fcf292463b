package network

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// This file implements dynamic reconfiguration: mid-run topology mutations
// (link kills and heals) applied between cycles under a DBR-style
// protocol (arXiv 1211.5747). The protocol quiesces only the resources a
// mutation touches: packets whose flits would be lost on the removed
// resource are dropped and accounted, surviving packets holding a now-stale
// route are returned to the unrouted state and re-route next cycle, and
// anything the routing function can no longer make progress for over the
// new topology times out and escapes through the Deadlock Buffer lane — the
// network is never drained. Every mutation runs in the prelude of Step
// (before the clock ticks), so no phase sees a half-applied change, and
// every applied mutation is recorded in the reconfiguration log so
// snapshots can replay the topology's history on restore.

// ReconfigKind enumerates the dynamic reconfiguration event types.
type ReconfigKind int

const (
	// ReconfigKillLink severs the bidirectional link (Node, Port) mid-run,
	// dropping any packet with flits committed to the link.
	ReconfigKillLink ReconfigKind = iota
	// ReconfigHealLink restores a previously killed link with clean virtual
	// channels on both ends.
	ReconfigHealLink
)

var reconfigKindNames = [...]string{"kill-link", "heal-link"}

// String returns the kind's schedule-file name (e.g. "kill-link").
func (k ReconfigKind) String() string {
	if text, err := k.MarshalText(); err == nil {
		return string(text)
	}
	return fmt.Sprintf("ReconfigKind(%d)", int(k))
}

// MarshalText writes the kind by name, so a ReconfigEvent is its own JSON
// schedule-file entry.
func (k ReconfigKind) MarshalText() ([]byte, error) {
	if k < 0 || int(k) >= len(reconfigKindNames) {
		return nil, fmt.Errorf("network: unknown reconfiguration kind %d", int(k))
	}
	return []byte(reconfigKindNames[k]), nil
}

// UnmarshalText is the inverse of MarshalText.
func (k *ReconfigKind) UnmarshalText(text []byte) error {
	for i, name := range reconfigKindNames {
		if name == string(text) {
			*k = ReconfigKind(i)
			return nil
		}
	}
	return fmt.Errorf("network: unknown reconfiguration kind %q (want %s)", text, strings.Join(reconfigKindNames[:], ", "))
}

// ReconfigEvent is one scheduled topology mutation, and one entry of a chaos
// schedule file (the JSON tags are that format). Node/Port identify the
// target link.
type ReconfigEvent struct {
	// Cycle is when the event applies: in the prelude of the Step executed
	// with the clock standing at Cycle, i.e. before the tick that produces
	// Cycle+1. A checkpoint written at Cycle therefore captures the state
	// just before the event — re-arming the same schedule after a restore
	// replays it exactly.
	Cycle sim.Cycle     `json:"cycle"`
	Kind  ReconfigKind  `json:"kind"`
	Node  topology.Node `json:"node,omitempty"`
	Port  int           `json:"port,omitempty"`
}

// String renders the event compactly, e.g. "@200 kill-link node=14 port=2".
func (e ReconfigEvent) String() string {
	return fmt.Sprintf("@%d %s node=%d port=%d", e.Cycle, e.Kind, e.Node, e.Port)
}

// ReconfigOutcome records one attempted reconfiguration event: whether it
// applied (scheduled events that fail validation — e.g. a kill that would
// disconnect the network — are skipped with a reason, not fatal), and the
// packet/flit loss it caused. Applied outcomes are replayed by snapshot
// restore to reconstruct the topology's history.
type ReconfigOutcome struct {
	ReconfigEvent
	Applied bool
	// Reason explains a skipped event; empty when Applied.
	Reason string
	// PacketsLost / FlitsLost count in-flight packets (and their buffered
	// flits) this event dropped. PacketsUnroutable is always 0: a link event
	// drops no packet before injection. It stays because snapshots and the
	// chaos report code it.
	PacketsLost       int64
	FlitsLost         int64
	PacketsUnroutable int64
}

// String renders the outcome: the event plus either its loss tally or the
// reason it was skipped.
func (o ReconfigOutcome) String() string {
	if !o.Applied {
		return fmt.Sprintf("%s SKIPPED (%s)", o.ReconfigEvent, o.Reason)
	}
	return fmt.Sprintf("%s lost=%d flits=%d unroutable=%d", o.ReconfigEvent, o.PacketsLost, o.FlitsLost, o.PacketsUnroutable)
}

// ScheduleReconfig arms a schedule of reconfiguration events, replacing any
// previously armed schedule. Events must be sorted by non-decreasing Cycle;
// events whose Cycle has already passed are silently dropped (after a
// snapshot restore they are already reflected in the restored state, via the
// reconfiguration log). Scheduled events apply inside Step — an armed but
// empty (or fully consumed) schedule costs one integer compare per cycle,
// and no schedule at all costs the same, so runs without chaos are
// bit-identical to builds that predate this subsystem.
func (n *Network) ScheduleReconfig(events []ReconfigEvent) error {
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			return fmt.Errorf("network: reconfiguration schedule not sorted: event %d at cycle %d follows cycle %d",
				i, events[i].Cycle, events[i-1].Cycle)
		}
	}
	now := n.clock.Now()
	sched := make([]ReconfigEvent, 0, len(events))
	for _, ev := range events {
		if ev.Cycle < now {
			continue
		}
		sched = append(sched, ev)
	}
	n.sched, n.schedNext = sched, 0
	return nil
}

// PendingReconfigs returns how many armed scheduled events have not yet
// applied.
func (n *Network) PendingReconfigs() int { return len(n.sched) - n.schedNext }

// ReconfigCount returns the number of reconfiguration log entries without
// copying the log; pollers call it every cycle and fetch ReconfigLog only
// when it grows.
func (n *Network) ReconfigCount() int { return len(n.reconfigLog) }

// ReconfigLog returns a copy of every reconfiguration outcome so far, in
// application order: scheduled events (applied or skipped) and successful
// manual KillLink/HealLink calls.
func (n *Network) ReconfigLog() []ReconfigOutcome {
	return append([]ReconfigOutcome(nil), n.reconfigLog...)
}

// FailedLinks returns how many links are currently down (killed, minus
// healed).
func (n *Network) FailedLinks() int { return len(n.linkDown) }

// RecoveryBacklog sums recovery-resource occupancy across all routers:
// presumed counts input VCs holding a presumed-deadlocked header, busy
// counts Deadlock Buffer lane flits, lane ownerships and DB-granted input
// VCs. presumed == 0 && busy == 0 is the chaos runner's "reconverged"
// condition after a reconfiguration event.
func (n *Network) RecoveryBacklog() (presumed, busy int) {
	for _, r := range n.routers {
		p, b := r.RecoveryBusy()
		presumed += p
		busy += b
	}
	return presumed, busy
}

// KillLink severs the bidirectional link between node and its neighbor on
// port immediately (at the current cycle), under the reconfiguration
// protocol: packets with flits committed to the link are dropped and
// counted, survivors aimed at it are un-routed to re-route next cycle, and
// the Deadlock Buffer next-hop table is rebuilt over the remaining links.
// This is the paper's fault tolerance: adaptive routing steers around the
// fault, and a packet it strands times out and escapes through the lane. On
// an idle link nothing is lost. Every check of validate applies: the live
// network must stay connected. Under concurrent recovery this and every
// heal also drop the packets recovering on the lanes.
func (n *Network) KillLink(node topology.Node, port int) error {
	return n.applyNow(ReconfigEvent{Cycle: n.clock.Now(), Kind: ReconfigKillLink, Node: node, Port: port})
}

// HealLink restores a previously killed link with clean virtual channels
// on both ends; routing resumes over it next cycle.
func (n *Network) HealLink(node topology.Node, port int) error {
	return n.applyNow(ReconfigEvent{Cycle: n.clock.Now(), Kind: ReconfigHealLink, Node: node, Port: port})
}

// applyNow executes a manual (API-initiated) event: validation failures
// return an error and leave no trace; successes are recorded in the
// reconfiguration log for snapshot replay.
func (n *Network) applyNow(ev ReconfigEvent) error {
	before := n.counters
	reason := n.applyMutation(ev)
	if reason != "" {
		return fmt.Errorf("network: %s", reason)
	}
	n.logOutcome(ev, "", before)
	return nil
}

// applyScheduled applies every armed event due at the current cycle, in
// order. Unlike the manual path, scheduled events that fail validation are
// recorded as skipped rather than aborting the run: a chaos campaign's
// schedule is generated against a model of the topology and an occasional
// infeasible event (e.g. a kill that would disconnect) is part of the
// deterministic timeline, not an error.
func (n *Network) applyScheduled() {
	now := n.clock.Now()
	for n.schedNext < len(n.sched) && n.sched[n.schedNext].Cycle <= now {
		ev := n.sched[n.schedNext]
		n.schedNext++
		before := n.counters
		reason := n.applyMutation(ev)
		n.logOutcome(ev, reason, before)
	}
}

func (n *Network) logOutcome(ev ReconfigEvent, reason string, before Counters) {
	n.reconfigLog = append(n.reconfigLog, ReconfigOutcome{
		ReconfigEvent: ev,
		Applied:       reason == "",
		Reason:        reason,
		PacketsLost:   n.counters.PacketsLost - before.PacketsLost,
		FlitsLost:     n.counters.FlitsLost - before.FlitsLost,
	})
	n.countersValid = false
}

// applyMutation applies one event live, returning "" on success or the
// reason it could not apply. Called only between cycles (Step prelude). The
// state change itself is transition's; this path wraps it in the quiesce
// protocol: victims dropped and grants at the dying resources released
// before, the touched ports reset to as-constructed after, and the Deadlock
// Buffer routes rebuilt over the new wiring.
func (n *Network) applyMutation(ev ReconfigEvent) string {
	reason := n.validate(ev)
	if reason != "" {
		return reason
	}
	if ev.Kind == ReconfigKillLink {
		n.dropVictims(n.linkVictims(ev))
		// Surviving packets still aimed at the dying link re-route next cycle.
		n.eachEnd(ev, (*router.Router).ReleaseGrants)
	}
	if n.cfg.Router.Recovery == router.RecoveryConcurrent {
		// New wiring relabels the two lanes. A recovering packet's chain and
		// grant follow the old labels: under the new ones it may have no
		// descending path left, and old chains could close a cycle. So every
		// recovering packet is a victim, and the lanes restart empty.
		victims := n.victimScratch[:0]
		for _, p := range n.collectPackets() {
			if p.OnDB {
				victims = append(victims, p)
			}
		}
		n.dropVictims(victims)
	}
	n.transition(ev)
	// A kill leaves clean channels behind and a heal comes back with them,
	// even when a snapshot restore replayed only the wiring in between.
	n.eachEnd(ev, (*router.Router).ResetOutputPort)
	n.afterTopologyChange()
	return ""
}

// validate checks that ev can apply to the network as it stands, returning
// "" or the reason it cannot. Live application and snapshot replay share it,
// so a logged event replays only where it could have happened.
func (n *Network) validate(ev ReconfigEvent) string {
	node, port := ev.Node, ev.Port
	if int(node) < 0 || int(node) >= len(n.routers) || port < 0 || port >= n.topo.Degree() {
		return fmt.Sprintf("no such link %d/%d", node, port)
	}
	switch ev.Kind {
	case ReconfigKillLink:
		if n.routers[node].Neighbor(port) == nil {
			return fmt.Sprintf("link %d/%d does not exist (or already failed)", node, port)
		}
		// Probe connectivity with the link removed before committing to anything.
		n.wire(node, port, false)
		ok := n.liveConnected()
		n.wire(node, port, true)
		if !ok {
			return fmt.Sprintf("failing link %d/%d would disconnect the network", node, port)
		}
		return ""
	case ReconfigHealLink:
		if _, ok := n.topo.Neighbor(node, port); !ok {
			return fmt.Sprintf("no such link %d/%d", node, port)
		}
		if !n.linkDown[n.linkKey(node, port)] {
			return fmt.Sprintf("link %d/%d is not failed", node, port)
		}
		return ""
	default:
		return fmt.Sprintf("unknown reconfiguration kind %d", int(ev.Kind))
	}
}

// transition is the state change of one validated event and nothing else:
// the link's down flag and its neighbour pointers. Live application
// (applyMutation) and snapshot replay (replayOutcome) both go through it, so
// the two cannot disagree about what an event does to the topology.
func (n *Network) transition(ev ReconfigEvent) {
	up := ev.Kind == ReconfigHealLink
	if up {
		delete(n.linkDown, n.linkKey(ev.Node, ev.Port))
	} else {
		n.linkDown[n.linkKey(ev.Node, ev.Port)] = true
	}
	n.wire(ev.Node, ev.Port, up)
}

// wire connects (up) or disconnects both directions of the link on (node,
// port).
func (n *Network) wire(node topology.Node, port int, up bool) {
	nb, _ := n.topo.Neighbor(node, port)
	a, b, rev := n.routers[node], n.routers[nb], n.reversePort(node, port)
	if up {
		a.Connect(port, b)
		b.Connect(rev, a)
	} else {
		a.Disconnect(port)
		b.Disconnect(rev)
	}
}

// eachEnd calls do for both ends of ev's link: (Node, Port) itself and the
// far router's reverse port.
func (n *Network) eachEnd(ev ReconfigEvent, do func(r *router.Router, port int)) {
	nb, _ := n.topo.Neighbor(ev.Node, ev.Port)
	do(n.routers[ev.Node], ev.Port)
	do(n.routers[nb], n.reversePort(ev.Node, ev.Port))
}

// linkVictims lists the packets a validated link kill loses: those with
// flits committed to the link at either end (duplicates allowed).
func (n *Network) linkVictims(ev ReconfigEvent) []*packet.Packet {
	nb, _ := n.topo.Neighbor(ev.Node, ev.Port)
	victims := n.routers[ev.Node].LinkVictims(ev.Port, n.victimScratch[:0])
	return n.routers[nb].LinkVictims(n.reversePort(ev.Node, ev.Port), victims)
}

// reversePort returns the input port at the neighbor reached over (node,
// port). Network construction validated that every link in the topology has
// a paired reverse channel, so this cannot fail for an existing link; it
// returns -1 for a port with no neighbor.
func (n *Network) reversePort(node topology.Node, port int) int {
	rev, ok := n.topo.ReversePortAt(node, port)
	if !ok {
		return -1
	}
	return rev
}

// linkKey canonicalizes a link's (node, port) so both directions map to one
// identity: the smaller endpoint's side wins (smaller port for a radix-2
// wraparound link joining a node to itself).
func (n *Network) linkKey(node topology.Node, port int) [2]int {
	nb, ok := n.topo.Neighbor(node, port)
	if !ok {
		return [2]int{int(node), port}
	}
	rev := n.reversePort(node, port)
	if int(nb) < int(node) || (nb == node && rev < port) {
		return [2]int{int(nb), rev}
	}
	return [2]int{int(node), port}
}

// afterTopologyChange routes the Deadlock Buffer lane by rows over the
// surviving links and refreshes every lane whose header is still at the
// lane head (frozen chains keep their established route; if one crossed the
// removed resource its packet was already dropped as a victim).
func (n *Network) afterTopologyChange() {
	n.useLiveLaneRows()
	for _, r := range n.routers {
		r.RefreshDBRoutes()
	}
}

// dropVictims drops each distinct packet in victims (the list may contain
// duplicates — a packet can be a victim at both endpoints of a link) and
// returns the buffer to victimScratch.
func (n *Network) dropVictims(victims []*packet.Packet) {
	for _, p := range n.distinct(victims) {
		n.dropPacket(p)
	}
	n.releaseVictims(victims)
}

// dropPacket removes every trace of p from the network — input VCs, output
// ownership, Deadlock Buffer lanes, its injection stream, and the recovery
// Token if p holds it — and accounts the loss as PacketsLost, with its
// discarded flits in FlitsLost. Unlike abort-retry kills, dropped packets are
// not retransmitted, and partial delivery is tolerated: a packet whose head
// already reached its destination simply never delivers its tail.
//
// Every victim has been injected: linkVictims reads router state, and
// concurrent recovery's victims are on a lane, which only a router puts a
// packet on. A packet enters router state only when InjectFlit takes its
// header and stamps InjectedAt, and injectAt then pops it from its source
// queue; the one reset of InjectedAt (abort-retry) purges the packet from
// every router first. So no victim waits in a source queue.
func (n *Network) dropPacket(p *packet.Packet) {
	flits := n.purge(p)
	if n.token != nil {
		n.token.Drop(p)
	}
	n.outstanding[p.Src]--
	n.counters.PacketsLost++
	n.counters.FlitsLost += int64(flits)
	n.event(telemetry.Drop, p.Src, p.ID)
}

// replayOutcome re-applies one logged reconfiguration event during snapshot
// restore: the log entry, and for an applied event its bare transition.
// Victim drops, channel resets and counter updates are NOT repeated — the
// decoded state already reflects them — and the caller rebuilds the DB
// next-hop table once, after the whole log.
func (n *Network) replayOutcome(o ReconfigOutcome) error {
	n.reconfigLog = append(n.reconfigLog, o)
	if !o.Applied {
		return nil
	}
	if reason := n.validate(o.ReconfigEvent); reason != "" {
		return errors.New(reason)
	}
	n.transition(o.ReconfigEvent)
	return nil
}

// liveConnected checks that every router is reachable from router 0 over
// live links. Links are killed in pairs, so the live graph is symmetric and
// one BFS suffices.
func (n *Network) liveConnected() bool {
	seen := make([]bool, len(n.routers))
	queue := []topology.Node{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		r := n.routers[cur]
		for p := 0; p < n.topo.Degree(); p++ {
			nb := r.Neighbor(p)
			if nb == nil || seen[nb.Node()] {
				continue
			}
			seen[nb.Node()] = true
			count++
			queue = append(queue, nb.Node())
		}
	}
	return count == len(n.routers)
}
