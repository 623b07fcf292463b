package network

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// This file implements dynamic reconfiguration: mid-run topology mutations
// (kill/heal links and routers, swap the routing function) applied between
// cycles under a DBR-style protocol (arXiv 1211.5747). The protocol quiesces
// only the resources a mutation touches: packets whose flits would be lost
// on the removed resource are dropped and accounted, surviving packets
// holding a now-stale route are returned to the unrouted state and re-route
// next cycle, and anything the post-change routing function can no longer
// make progress for times out and escapes through the Deadlock Buffer lane —
// the network is never drained. Every mutation runs in the prelude of Step
// (before the clock ticks), so no phase sees a half-applied change, and
// every applied mutation is recorded in the reconfiguration log so snapshots
// can replay the topology's history on restore.

// ReconfigKind enumerates the dynamic reconfiguration event types.
type ReconfigKind int

const (
	// ReconfigKillLink severs the bidirectional link (Node, Port) mid-run,
	// dropping any packet with flits committed to the link.
	ReconfigKillLink ReconfigKind = iota
	// ReconfigHealLink restores a link previously killed (or failed via
	// FailLink) with clean virtual channels on both ends.
	ReconfigHealLink
	// ReconfigKillRouter removes router Node entirely: its buffered packets,
	// its source queue, and every packet in the network addressed to it are
	// dropped, and all its links go down.
	ReconfigKillRouter
	// ReconfigHealRouter revives a killed router, reconnecting every link
	// whose far endpoint is alive and not individually failed.
	ReconfigHealRouter
	// ReconfigSwapAlgorithm swaps the routing function (by Name) on every
	// router; granted routes finish under the old function.
	ReconfigSwapAlgorithm
)

var reconfigKindNames = [...]string{"kill-link", "heal-link", "kill-router", "heal-router", "swap-algorithm"}

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

// ReconfigEvent is one scheduled topology or routing mutation, and one entry
// of a chaos schedule file (the JSON tags are that format). Node/Port
// identify the target link or router (Port is ignored for router and swap
// events); Alg names the routing function for swap events (routing.ByName).
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
	Alg   string        `json:"alg,omitempty"`
}

// String renders the event compactly, e.g. "@200 kill-link node=14 port=2".
func (e ReconfigEvent) String() string {
	switch e.Kind {
	case ReconfigSwapAlgorithm:
		return fmt.Sprintf("@%d %s %s", e.Cycle, e.Kind, e.Alg)
	case ReconfigKillRouter, ReconfigHealRouter:
		return fmt.Sprintf("@%d %s node=%d", e.Cycle, e.Kind, e.Node)
	default:
		return fmt.Sprintf("@%d %s node=%d port=%d", e.Cycle, e.Kind, e.Node, e.Port)
	}
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
	// flits) this event dropped; PacketsUnroutable counts packets dropped
	// before injection because the event made their destination unreachable.
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
// manual KillLink/HealLink/KillRouter/HealRouter/SwapAlgorithm/FailLink
// calls.
func (n *Network) ReconfigLog() []ReconfigOutcome {
	return append([]ReconfigOutcome(nil), n.reconfigLog...)
}

// CurrentAlgorithm returns the routing function currently installed (the
// configured one until a swap event replaces it).
func (n *Network) CurrentAlgorithm() routing.Algorithm { return n.routerState.Algorithm() }

// DeadRouters returns how many routers are currently killed.
func (n *Network) DeadRouters() int { return n.deadCount }

// RouterDead reports whether the given router is currently killed.
func (n *Network) RouterDead(node topology.Node) bool {
	return n.deadCount != 0 && n.routerDead[node]
}

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
func (n *Network) KillLink(node topology.Node, port int) error {
	return n.applyNow(ReconfigEvent{Cycle: n.clock.Now(), Kind: ReconfigKillLink, Node: node, Port: port})
}

// HealLink restores a previously killed (or FailLink-failed) link with
// clean virtual channels on both ends; routing resumes over it next cycle.
func (n *Network) HealLink(node topology.Node, port int) error {
	return n.applyNow(ReconfigEvent{Cycle: n.clock.Now(), Kind: ReconfigHealLink, Node: node, Port: port})
}

// KillRouter removes a router mid-run: every packet buffered there, queued
// at its source, or addressed to it anywhere in the network is dropped and
// counted, and all its links go down. The live remainder must stay
// connected.
func (n *Network) KillRouter(node topology.Node) error {
	return n.applyNow(ReconfigEvent{Cycle: n.clock.Now(), Kind: ReconfigKillRouter, Node: node})
}

// HealRouter revives a killed router, reconnecting each of its links whose
// far endpoint is alive and not individually failed. Its source resumes
// generating traffic next cycle.
func (n *Network) HealRouter(node topology.Node) error {
	return n.applyNow(ReconfigEvent{Cycle: n.clock.Now(), Kind: ReconfigHealRouter, Node: node})
}

// SwapAlgorithm swaps the routing function, by any name routing.ByName
// reads, on every router. Packets already holding a granted route finish their
// hop under the old function; any packet the new function cannot make progress
// for times out and escapes through the Deadlock Buffer lane (the DBR argument
// for reconfiguring routing under load).
func (n *Network) SwapAlgorithm(name string) error {
	return n.applyNow(ReconfigEvent{Cycle: n.clock.Now(), Kind: ReconfigSwapAlgorithm, Alg: name})
}

// applyNow executes a manual (API-initiated) event: validation failures
// return an error and leave no trace; successes are recorded in the
// reconfiguration log for snapshot replay.
func (n *Network) applyNow(ev ReconfigEvent) error {
	before := n.counters
	reason := n.applyMutation(&ev)
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
		reason := n.applyMutation(&ev)
		n.logOutcome(ev, reason, before)
	}
}

func (n *Network) logOutcome(ev ReconfigEvent, reason string, before Counters) {
	n.reconfigLog = append(n.reconfigLog, ReconfigOutcome{
		ReconfigEvent:     ev,
		Applied:           reason == "",
		Reason:            reason,
		PacketsLost:       n.counters.PacketsLost - before.PacketsLost,
		FlitsLost:         n.counters.FlitsLost - before.FlitsLost,
		PacketsUnroutable: n.counters.PacketsUnroutable - before.PacketsUnroutable,
	})
	n.countersValid = false
}

// applyMutation applies one event live, returning "" on success or the
// reason it could not apply. Called only between cycles (Step prelude). The
// state change itself is transition's; this path wraps it in the quiesce
// protocol: victims dropped and grants at the dying resources released
// before, the touched ports reset to as-constructed after, and the Deadlock
// Buffer routes rebuilt over the new wiring. An applied swap rewrites ev.Alg
// to the installed function's Name(), so the log — and a snapshot replaying
// it — names the same function whichever spelling the caller used.
func (n *Network) applyMutation(ev *ReconfigEvent) string {
	ports, alg, reason := n.validate(*ev)
	if reason != "" {
		return reason
	}
	if alg != nil {
		ev.Alg = alg.Name()
	}
	if ev.Kind == ReconfigKillLink || ev.Kind == ReconfigKillRouter {
		// Parked routers replay their skipped cycles before any state is read
		// or mutated, so victim scans see exactly what a never-skipping kernel
		// would.
		n.syncIdle()
		n.dropVictims(n.victimsOf(*ev))
		// Surviving packets still aimed at a dying link re-route next cycle.
		n.eachEnd(ev.Node, ports, (*router.Router).ReleaseGrants)
	}
	n.transition(*ev, ports, alg)
	if ev.Kind == ReconfigSwapAlgorithm {
		return "" // no link changed: channels and DB routes stand
	}
	// A kill leaves clean channels behind and a heal comes back with them,
	// even when a snapshot restore replayed only the wiring in between.
	n.eachEnd(ev.Node, ports, (*router.Router).ResetOutputPort)
	n.afterTopologyChange()
	return ""
}

// validate checks that ev can apply to the network as it stands and returns
// the ports of ev.Node whose links it takes down or brings up, or for a
// routing swap the function to install, or the reason it cannot. Live
// application and snapshot replay share it, so a logged event replays only
// where it could have happened.
func (n *Network) validate(ev ReconfigEvent) (ports []int, alg routing.Algorithm, reason string) {
	node, port, deg := ev.Node, ev.Port, n.topo.Degree()
	kill := ev.Kind == ReconfigKillLink || ev.Kind == ReconfigKillRouter
	if kill && n.cfg.Router.Recovery == router.RecoveryConcurrent {
		return nil, nil, "reconfiguration is not supported with concurrent recovery (its lane table is built once, over the intact topology)"
	}
	switch ev.Kind {
	case ReconfigKillLink, ReconfigHealLink:
		if int(node) < 0 || int(node) >= len(n.routers) || port < 0 || port >= deg {
			return nil, nil, fmt.Sprintf("no such link %d/%d", node, port)
		}
	case ReconfigKillRouter, ReconfigHealRouter:
		if int(node) < 0 || int(node) >= len(n.routers) {
			return nil, nil, fmt.Sprintf("no such router %d", node)
		}
	}
	switch ev.Kind {
	case ReconfigKillLink:
		if n.RouterDead(node) {
			return nil, nil, fmt.Sprintf("router %d is dead; its links are already down", node)
		}
		if n.routers[node].Neighbor(port) == nil {
			return nil, nil, fmt.Sprintf("link %d/%d does not exist (or already failed)", node, port)
		}
		// Probe connectivity with the link removed before committing to anything.
		n.wire(node, port, false)
		ok := n.liveConnectedExcluding(-1)
		n.wire(node, port, true)
		if !ok {
			return nil, nil, fmt.Sprintf("failing link %d/%d would disconnect the network", node, port)
		}
		return []int{port}, nil, ""
	case ReconfigHealLink:
		nb, ok := n.topo.Neighbor(node, port)
		if !ok {
			return nil, nil, fmt.Sprintf("no such link %d/%d", node, port)
		}
		if !n.linkDown[n.linkKey(node, port)] {
			return nil, nil, fmt.Sprintf("link %d/%d is not failed", node, port)
		}
		if n.RouterDead(node) || n.RouterDead(nb) {
			return nil, nil, fmt.Sprintf("an endpoint of link %d/%d is dead; heal the router instead", node, port)
		}
		return []int{port}, nil, ""
	case ReconfigKillRouter:
		if n.routerDead[node] {
			return nil, nil, fmt.Sprintf("router %d is already dead", node)
		}
		if !n.liveConnectedExcluding(int(node)) {
			return nil, nil, fmt.Sprintf("killing router %d would disconnect (or empty) the live network", node)
		}
		for p := 0; p < deg; p++ {
			if n.routers[node].Neighbor(p) != nil {
				ports = append(ports, p)
			}
		}
		return ports, nil, ""
	case ReconfigHealRouter:
		if !n.routerDead[node] {
			return nil, nil, fmt.Sprintf("router %d is not dead", node)
		}
		// The healed router must rejoin the (connected) live component through
		// at least one restorable link, or it would come back isolated.
		for p := 0; p < deg; p++ {
			nb, ok := n.topo.Neighbor(node, p)
			if ok && !n.routerDead[nb] && !n.linkDown[n.linkKey(node, p)] {
				ports = append(ports, p)
			}
		}
		if len(ports) == 0 {
			return nil, nil, fmt.Sprintf("healing router %d would leave it isolated (every link is down or leads to a dead router)", node)
		}
		return ports, nil, ""
	case ReconfigSwapAlgorithm:
		alg, err := routing.ByName(ev.Alg)
		if err == nil {
			err = admits(alg, n.topo, n.cfg.Router.VCs)
		}
		if err != nil {
			return nil, nil, err.Error()
		}
		return nil, alg, ""
	default:
		return nil, nil, fmt.Sprintf("unknown reconfiguration kind %d", int(ev.Kind))
	}
}

// transition is the state change of one validated event and nothing else:
// the liveness flags, the neighbour pointers of the links validate listed,
// or the installed routing function. Live application (applyMutation) and
// snapshot replay (replayOutcome) both go through it, so the two cannot
// disagree about what an event does to the topology.
func (n *Network) transition(ev ReconfigEvent, ports []int, alg routing.Algorithm) {
	switch ev.Kind {
	case ReconfigKillLink:
		n.linkDown[n.linkKey(ev.Node, ev.Port)] = true
		n.failedLinks++
	case ReconfigHealLink:
		delete(n.linkDown, n.linkKey(ev.Node, ev.Port))
		n.failedLinks--
	case ReconfigKillRouter:
		n.routerDead[ev.Node] = true
		n.deadCount++
	case ReconfigHealRouter:
		n.routerDead[ev.Node] = false
		n.deadCount--
	case ReconfigSwapAlgorithm:
		n.routerState.SetAlgorithm(alg)
	}
	up := ev.Kind == ReconfigHealLink || ev.Kind == ReconfigHealRouter
	for _, p := range ports {
		n.wire(ev.Node, p, up)
	}
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

// eachEnd calls do for both ends of every listed link of node: (node, port)
// itself and the far router's reverse port.
func (n *Network) eachEnd(node topology.Node, ports []int, do func(r *router.Router, port int)) {
	for _, p := range ports {
		nb, _ := n.topo.Neighbor(node, p)
		do(n.routers[node], p)
		do(n.routers[nb], n.reversePort(node, p))
	}
}

// victimsOf lists the packets a validated kill loses (duplicates allowed).
// A link takes the packets with flits committed to it at either end. A
// router takes three classes: packets buffered there, packets waiting (or
// streaming) at its source, and packets anywhere in the network addressed
// to it — none can ever be delivered.
func (n *Network) victimsOf(ev ReconfigEvent) []*packet.Packet {
	victims := n.victimScratch[:0]
	if ev.Kind == ReconfigKillLink {
		nb, _ := n.topo.Neighbor(ev.Node, ev.Port)
		victims = n.routers[ev.Node].LinkVictims(ev.Port, victims)
		return n.routers[nb].LinkVictims(n.reversePort(ev.Node, ev.Port), victims)
	}
	victims = n.routers[ev.Node].LocalPackets(victims)
	q := &n.nis[ev.Node]
	if q.cur != nil {
		victims = append(victims, q.cur)
	}
	victims = append(victims, q.queue[q.qhead:]...)
	for _, p := range n.collectPackets() {
		if p.Dst == ev.Node {
			victims = append(victims, p)
		}
	}
	return victims
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

// afterTopologyChange rebuilds the Deadlock Buffer next-hop table over the
// surviving links and refreshes every lane whose header is still at the
// lane head (frozen chains keep their established route; if one crossed the
// removed resource its packet was already dropped as a victim).
func (n *Network) afterTopologyChange() {
	n.rebuildDBTable()
	for _, r := range n.routers {
		r.RefreshDBRoutes()
	}
}

// dropVictims drops each distinct packet in victims (the list may contain
// duplicates — a packet can be a victim at both endpoints of a link) and
// returns the scratch buffers to their pools.
func (n *Network) dropVictims(victims []*packet.Packet) {
	if n.seenScratch == nil {
		n.seenScratch = make(map[*packet.Packet]bool)
	}
	seen := n.seenScratch
	for _, p := range victims {
		if seen[p] {
			continue
		}
		seen[p] = true
		n.dropPacket(p)
	}
	for p := range seen {
		delete(seen, p)
	}
	for i := range victims {
		victims[i] = nil
	}
	n.victimScratch = victims[:0]
}

// dropPacket removes every trace of p from the network — input VCs, output
// ownership, Deadlock Buffer lanes, its source queue and injection stream,
// and the recovery Token if p holds it — and accounts the loss: an injected
// packet counts as PacketsLost with its discarded flits in FlitsLost; a
// packet dropped before injection (queued for a destination that just died)
// counts as PacketsUnroutable. Unlike abort-retry kills, dropped packets are
// not retransmitted, and partial delivery is tolerated: a packet whose head
// already reached its destination simply never delivers its tail.
func (n *Network) dropPacket(p *packet.Packet) {
	flits := 0
	for _, r := range n.routers {
		flits += r.PurgePacket(p)
		flits += r.PurgeDB(p)
	}
	q := &n.nis[p.Src]
	if q.cur == p {
		q.cur, q.seq = nil, 0
	}
	q.remove(p)
	if n.token != nil {
		n.token.Drop(p)
	}
	if p.InjectedAt >= 0 {
		n.outstanding[p.Src]--
		n.counters.PacketsLost++
		n.counters.FlitsLost += int64(flits)
	} else {
		n.counters.PacketsUnroutable++
	}
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
	ports, alg, reason := n.validate(o.ReconfigEvent)
	if reason != "" {
		return errors.New(reason)
	}
	n.transition(o.ReconfigEvent, ports, alg)
	return nil
}

// liveConnectedExcluding checks that every live router (dead routers and,
// when exclude >= 0, the router about to die are not counted) is reachable
// from any other over live links. Links are killed in pairs, so the live
// graph is symmetric and one BFS suffices. An empty live set is reported as
// disconnected: killing the last router is rejected.
func (n *Network) liveConnectedExcluding(exclude int) bool {
	alive, start := 0, -1
	for i := range n.routers {
		if i == exclude || (n.deadCount != 0 && n.routerDead[i]) {
			continue
		}
		alive++
		if start < 0 {
			start = i
		}
	}
	if alive == 0 {
		return false
	}
	seen := make([]bool, len(n.routers))
	queue := []topology.Node{topology.Node(start)}
	seen[start] = true
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		r := n.routers[cur]
		for p := 0; p < n.topo.Degree(); p++ {
			nb := r.Neighbor(p)
			if nb == nil || int(nb.NodeID()) == exclude || seen[nb.NodeID()] {
				continue
			}
			seen[nb.NodeID()] = true
			count++
			queue = append(queue, nb.NodeID())
		}
	}
	return count == alive
}
