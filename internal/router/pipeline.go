package router

import (
	"math/bits"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Transfer is one staged flit movement for the current cycle. All transfers
// are staged against start-of-cycle state by StageSwitch and applied together
// by Commit, which keeps the simulation order-independent across routers.
// Staging reads only start-of-cycle state and touches only the staging
// router's own; the cross-router Deadlock Buffer write-port constraint is
// settled afterwards by ResolveDB in fixed router order.
type Transfer struct {
	From       *Router
	FromPort   int // source input port; ignored when FromDB
	FromVC     int
	FromDB     bool // source is a Deadlock Buffer lane
	FromDBLane int

	To       *Router // nil for ejection
	OutPort  int     // sender's output port (To != nil)
	ToVC     int     // receiving VC index (== sender's output VC); ignored when ToDB
	ToDB     bool    // flit enters the receiver's Deadlock Buffer (status line asserted)
	ToDBLane int
	Eject    bool // flit is consumed by From's reception channel

	// Dropped marks a Deadlock-Buffer transfer that lost the per-cycle
	// write-port arbitration in ResolveDB; Commit must skip it.
	Dropped bool
}

// reserveDB attempts to admit one flit of p into lane of target's Deadlock
// Buffer at cycle now: the lane must be stageable and its single write port
// (State.dbWriteAt) not yet used this cycle. Admission stamps the port.
func reserveDB(target *Router, lane int, p *packet.Packet, now sim.Cycle) bool {
	if !dbStageable(target, lane, p) {
		return false
	}
	i := target.dbIdx(lane)
	if target.st.dbWriteAt[i] == now {
		return false
	}
	target.st.dbWriteAt[i] = now
	return true
}

// dbStageable reports whether one flit of p could enter lane of target's
// Deadlock Buffer this cycle as far as start-of-cycle state is concerned:
// the lane exists, is idle or already threaded by p, and has a free slot.
// It deliberately ignores the per-cycle single-write-port constraint, which
// depends on what other routers stage: StageSwitch uses this check so that
// staging reads only start-of-cycle state, and ResolveDB settles the write
// port afterwards in fixed router order.
func dbStageable(target *Router, lane int, p *packet.Packet) bool {
	if target == nil || lane < 0 || lane >= target.st.lanes {
		return false
	}
	i := target.dbIdx(lane)
	owner := target.st.dbPkt[i]
	return (owner == nil || owner == p) && int(target.st.db.n[i]) < target.st.db.depth
}

// ResolveDB arbitrates the Deadlock Buffer admissions staged for cycle now:
// it walks the transfers in order and re-checks every DB-bound transfer
// against the receiving lane's single write port, marking losers Dropped and
// un-staging their source (the sent flag is cleared so TickTimers still sees
// the header as blocked). Callers invoke it over the cycle's transfers in
// fixed router order, between staging and Commit, with a cycle number that
// never repeats; the surviving transfers are exactly those a fully serial
// stage-with-reservations pass would have admitted, except that a port whose
// optimistically staged DB transfer loses arbitration idles for the cycle
// instead of re-arbitrating.
func ResolveDB(xfers []Transfer, now sim.Cycle) {
	for i := range xfers {
		t := &xfers[i]
		if !t.ToDB {
			continue
		}
		var p *packet.Packet
		if t.FromDB {
			p = t.From.st.dbPkt[t.From.dbIdx(t.FromDBLane)]
		} else {
			p = t.From.st.inPkt[t.From.inIdx(t.FromPort, t.FromVC)]
		}
		if reserveDB(t.To, t.ToDBLane, p, now) {
			continue
		}
		t.Dropped = true
		if !t.FromDB {
			t.From.setMask(mSent, t.From.inIdx(t.FromPort, t.FromVC), false)
		}
	}
}

// --- Routing / virtual channel allocation ------------------------------------

// routeSlot performs routing computation and output VC allocation for the
// input VC at global slot i, if its head flit is an unrouted header.
// StageRouting calls it on each such slot in its rotating order. Grants take
// effect immediately in router-local state (output VC ownership), so later
// slots visited in the same cycle see them.
func (r *Router) routeSlot(i int) {
	s := r.st
	if s.in.n[i] == 0 || s.inRoute[i] != PortUnrouted {
		return
	}
	head := s.in.peek(i)
	if !head.IsHeader() {
		return
	}
	p := head.Pkt
	if p.Dst == r.node {
		r.setRoute(i, PortEject)
		return
	}
	if p.OnDB {
		// A recovered packet re-routes onto the DB lane; this occurs only if
		// the recovery grant was made before the header advanced (normally
		// Recover sets the route directly).
		s.inDBLane[i] = int32(r.recoveryLane(p.Dst))
		r.setRoute(i, int32(r.dbLaneRoute(p.Dst)))
		s.inOutVC[i] = VCDeadlockBuffer
		return
	}

	cands := s.alg.Route(r, p, s.cands[:0])
	s.cands = cands[:0]
	// Keep only candidates whose link exists and whose output VC is free,
	// then restrict to the best (lowest) preference class present.
	usable := cands[:0]
	bestClass := int(^uint(0) >> 1)
	for _, c := range cands {
		if !r.LinkExists(c.Port) || !r.OutputVCFree(c.Port, c.VC) {
			continue
		}
		if c.Class < bestClass {
			bestClass = c.Class
			usable = usable[:0]
		}
		if c.Class == bestClass {
			usable = append(usable, c)
		}
	}
	if len(usable) == 0 {
		return // blocked; retried next cycle
	}
	choice := usable[0]
	if len(usable) > 1 {
		choice = s.sel.Pick(r, usable, r.rng)
	}
	s.outOwner[r.outIdx(choice.Port, choice.VC)] = p
	r.setRoute(i, int32(choice.Port))
	s.inOutVC[i] = int32(choice.VC)
	if choice.ToDeterministic {
		p.OnDeterministic = true
	}
}

// --- Switch allocation ----------------------------------------------------------

// stageDBOutput stages the Deadlock Buffer hop on output q if some lane
// wants it: each lane continues on the same lane index at the next router.
// Both allocation policies call it before granting q to an input VC, which
// is the Deadlock Buffer's priority on its output.
func (r *Router) stageDBOutput(q int, out *[]Transfer) bool {
	s := r.st
	for lane := 0; lane < s.lanes; lane++ {
		i := r.dbIdx(lane)
		if s.db.n[i] != 0 && int(s.dbRoute[i]) == q && dbStageable(r.neighbors[q], lane, s.dbPkt[i]) {
			*out = append(*out, Transfer{From: r, FromDB: true, FromDBLane: lane,
				To: r.neighbors[q], OutPort: q, ToDB: true, ToDBLane: lane})
			return true
		}
	}
	return false
}

// --- Commit -----------------------------------------------------------------------

// Sink consumes flits ejected into a node's reception channel. The network
// implements it to record delivery, statistics and Token release.
type Sink interface {
	Deliver(fl packet.Flit, at topology.Node)
}

// Commit applies a staged transfer; ejected flits are passed to sink.
// Transfers marked Dropped by ResolveDB are ignored.
func Commit(t *Transfer, sink Sink) {
	if t.Dropped {
		return
	}
	fl := t.popSource()
	switch {
	case t.Eject:
		t.From.stats.FlitsEjected++
		sink.Deliver(fl, t.From.node)
	case t.ToDB:
		to := t.To
		i := to.dbIdx(t.ToDBLane)
		to.st.db.push(i, fl)
		to.st.flitCount[to.node]++
		if fl.IsHeader() {
			to.st.dbPkt[i] = fl.Pkt
			to.st.dbRoute[i] = int32(to.dbLaneRoute(fl.Pkt.Dst))
			fl.Pkt.Hops++
		}
		t.From.stats.FlitsSwitched++
	default:
		to := t.To
		inPort := int(t.From.rev[t.OutPort])
		ti := to.inIdx(inPort, t.ToVC)
		to.pushIn(ti, fl)
		to.st.flitCount[to.node]++
		if fl.IsHeader() {
			to.st.inPkt[ti] = fl.Pkt
		}
		oi := t.From.outIdx(t.OutPort, t.ToVC)
		t.From.st.outCredits[oi]--
		if fl.IsTail() {
			t.From.st.outOwner[oi] = nil
		}
		t.From.stats.FlitsSwitched++
		if fl.IsHeader() {
			t.From.applyHeaderHop(fl.Pkt, t.OutPort)
		}
	}
}

// popSource removes the flit from its source buffer, returning credits to
// the upstream output VC and releasing wormhole state on tails.
func (t *Transfer) popSource() packet.Flit {
	r := t.From
	s := r.st
	if t.FromDB {
		i := r.dbIdx(t.FromDBLane)
		fl := s.db.pop(i)
		s.flitCount[r.node]--
		r.stats.DBFlitsCarried++
		if fl.IsTail() {
			s.dbPkt[i] = nil
			s.dbRoute[i] = PortUnrouted
		}
		return fl
	}
	i := r.inIdx(t.FromPort, t.FromVC)
	fl := r.popIn(i)
	s.flitCount[r.node]--
	if t.FromPort < s.deg && r.neighbors[t.FromPort] != nil {
		up := r.neighbors[t.FromPort]
		up.st.outCredits[up.outIdx(int(r.rev[t.FromPort]), t.FromVC)]++
	}
	if fl.IsTail() {
		s.inPkt[i] = nil
		r.setRoute(i, PortUnrouted)
		s.inOutVC[i] = VCUnrouted
		r.clearTimer(i)
	}
	return fl
}

// applyHeaderHop updates per-packet routing state when a header crosses a
// normal (edge-buffer) link out of r.
func (r *Router) applyHeaderHop(p *packet.Packet, outPort int) {
	p.Hops++
	topo, ctopo := r.st.topo, r.st.ctopo
	if ctopo != nil {
		// Dimension-reversal and dateline state only exist on coordinate
		// topologies; the algorithms that consume them reject coordinate-
		// free graphs at configuration time.
		d := topology.PortDim(outPort)
		if p.LastDim >= 0 && d < p.LastDim {
			p.DimReversals++
		}
		p.LastDim = d
		if ctopo.CrossesDateline(r.node, outPort) {
			p.DatelineCrossed |= 1 << uint(d)
		}
	}
	nb := r.neighbors[outPort]
	if topo.Distance(nb.node, p.Dst) >= topo.Distance(r.node, p.Dst) {
		p.Misroutes++
		r.stats.MisrouteHops++
	}
}

// --- Deadlock detection & recovery ---------------------------------------------

// tickSlot advances the deadlock timer of the input VC at global slot i =
// inIdx(p, v) and clears its per-cycle sent marker, returning 1 if its
// header newly crossed T_out. TickTimers calls it on the slots of mTim ∨
// mHdr only: on any other slot it would only clear the sent marker, which
// TickTimers does for every slot at once.
func (r *Router) tickSlot(i, p, v int, tout sim.Cycle, blocked, presumed *int) int {
	s := r.st
	if r.hasMask(mSent, i) {
		if s.inPresumed[i] {
			// The presumed-deadlocked header moved normally: a false
			// detection. Under AdaptiveTimeout, back off.
			r.stats.FalseDetections++
			if s.cfg.AdaptiveTimeout {
				s.effTout[r.node] *= 2
				if max8 := 8 * s.cfg.Timeout; s.effTout[r.node] > max8 {
					s.effTout[r.node] = max8
				}
			}
		}
		r.setMask(mSent, i, false)
		r.clearTimer(i)
		return 0
	}
	if s.in.n[i] == 0 {
		r.clearTimer(i)
		return 0
	}
	head := s.in.peek(i)
	// Only headers not draining to the local reception channel and not
	// already recovering are candidates for presumption.
	if !head.IsHeader() || int(s.inRoute[i]) == PortEject || head.Pkt.OnDB {
		r.clearTimer(i)
		return 0
	}
	s.inWaiting[i]++
	r.setMask(mTim, i, true)
	*blocked++
	r.stats.BlockedCycles++
	r.blockedByVC[v]++
	if s.inPresumed[i] {
		*presumed++
	}
	if tout > 0 && s.inWaiting[i] > tout && !s.inPresumed[i] {
		// Headers still at the injection port hold no network channels, so
		// they cannot be deadlock members; they are presumed only when
		// STRANDED by link faults (the routing function offers no live port
		// at all), in which case only the recovery lane can ever deliver
		// them. The stranded check is throttled: faults are rare events.
		if p == s.deg {
			if (s.inWaiting[i]-tout)%16 != 1 || !r.strandedHeader(head.Pkt) {
				return 0
			}
		}
		s.inPresumed[i] = true
		*presumed++
		head.Pkt.TimedOut = true
		r.stats.TimeoutEvents++
		if s.onTimeout != nil {
			s.onTimeout(r.node, head.Pkt)
		}
		return 1
	}
	return 0
}

// strandedHeader reports whether the packet's routing function offers no
// live output port at this router — only possible with failed links; such
// a packet can never advance on edge channels and must be recovered.
func (r *Router) strandedHeader(p *packet.Packet) bool {
	cands := r.st.alg.Route(r, p, r.st.cands[:0])
	r.st.cands = cands[:0]
	for _, c := range cands {
		if r.LinkExists(c.Port) {
			return false
		}
	}
	return true
}

// MostStarved returns the presumed-deadlocked input VC whose header has
// waited longest; ok is false when the router has none. The circulating
// Token queries this to decide whether to stop here. Injection-port VCs
// are included: they are presumed only when stranded by faults. A presumed
// slot is timing, so this and the other presumed-slot readers
// (RecoverPresumed, PresumedPackets) walk mTim in ascending slot order, and
// a tie goes to the lowest slot.
func (r *Router) MostStarved() (port, vc int, ok bool) {
	s := r.st
	var best sim.Cycle = -1
	for j, word := range r.maskOf(mTim) {
		for ; word != 0; word &= word - 1 {
			l := j<<6 + bits.TrailingZeros64(word)
			if i := r.in0 + l; s.inPresumed[i] && s.inWaiting[i] > best {
				best = s.inWaiting[i]
				port, vc = r.portVCOf(l)
				ok = true
			}
		}
	}
	return port, vc, ok
}

// Recover switches the packet whose header waits in input VC (port, vc)
// onto the Deadlock Buffer lane: it releases any edge output VC the header
// held, marks the packet recovered (it may use only Deadlock Buffers from
// here to its destination — paper Assumption 3) and aims it at the next DB
// hop (dbLaneRoute) on the lane recoveryLane picks. It returns the
// recovered packet.
func (r *Router) Recover(port, vc int, now sim.Cycle) *packet.Packet {
	s := r.st
	i := r.inIdx(port, vc)
	p := s.inPkt[i]
	if p == nil || s.in.n[i] == 0 || !s.in.peek(i).IsHeader() {
		panic("router: Recover on a VC without a blocked header")
	}
	if s.inRoute[i] >= 0 && s.inOutVC[i] >= 0 {
		s.outOwner[r.outIdx(int(s.inRoute[i]), int(s.inOutVC[i]))] = nil
	}
	p.OnDB = true
	p.SeizedToken = s.cfg.Recovery == RecoverySequential
	p.RecoveredAt = now
	s.inDBLane[i] = int32(r.recoveryLane(p.Dst))
	r.setRoute(i, int32(r.dbLaneRoute(p.Dst)))
	s.inOutVC[i] = VCDeadlockBuffer
	r.clearTimer(i)
	r.stats.Recoveries++
	return p
}

// RecoverPresumed (concurrent recovery) switches every presumed-deadlocked
// packet at this router onto its Deadlock Buffer lane — no Token, no mutual
// exclusion. Each recovered packet is appended to out (pass a reused
// scratch slice to keep the call allocation-free); the extended slice is
// returned so callers can trace and track per-packet recoveries.
func (r *Router) RecoverPresumed(now sim.Cycle, out []*packet.Packet) []*packet.Packet {
	s := r.st
	for j, word := range r.maskOf(mTim) {
		for ; word != 0; word &= word - 1 {
			l := j<<6 + bits.TrailingZeros64(word)
			// Network ports only — exactly the first deg*vcs slots of the
			// port-major layout (injection slots end the router's range).
			if l >= s.outStr {
				return out
			}
			if s.inPresumed[r.in0+l] {
				p, v := r.portVCOf(l)
				out = append(out, r.Recover(p, v, now))
			}
		}
	}
	return out
}

// recoveryLane picks the Deadlock Buffer lane for a recovery starting here:
// lane 0 under sequential recovery; under concurrent recovery the up lane
// when the destination lies further along the recovery order, else the down
// lane.
func (r *Router) recoveryLane(dst topology.Node) int {
	if r.st.cfg.Recovery != RecoveryConcurrent {
		return 0
	}
	pos := r.st.orderPos
	if pos == nil {
		panic("router: concurrent recovery without SetRecoveryOrder")
	}
	if pos[dst] > pos[r.node] {
		return laneUp
	}
	return laneDown
}

// dbLaneRoute returns the Deadlock Buffer lane's output at this router for
// a packet to dst: ejection at the destination, else the installed lane
// table's entry (concurrent lanes, coordinate-free or faulted topologies),
// else minimal dimension order. A concurrent packet's lane is implied by dst:
// the table never carries it past dst in lane order.
func (r *Router) dbLaneRoute(dst topology.Node) int {
	if r.node == dst {
		return PortEject
	}
	s := r.st
	if s.laneTable != nil {
		return int(s.laneTable[int(dst)*s.nodes+int(r.node)])
	}
	// Coordinate-free graphs always carry a lane table (the network installs
	// the BFS table at construction), so reaching the dimension-order
	// fallback implies cube coordinates exist.
	port, ok := routing.DORPort(s.ctopo, r.node, dst)
	if !ok {
		return PortEject
	}
	return port
}

// PresumedPackets appends the distinct packets currently presumed
// deadlocked at this router (abort-retry recovery collects its victims
// through it).
func (r *Router) PresumedPackets(out []*packet.Packet) []*packet.Packet {
	s := r.st
	for j, word := range r.maskOf(mTim) {
		for ; word != 0; word &= word - 1 {
			if i := r.in0 + j<<6 + bits.TrailingZeros64(word); s.inPresumed[i] && s.inPkt[i] != nil {
				out = append(out, s.inPkt[i])
			}
		}
	}
	return out
}

// PurgePacket removes every flit of p from this router and releases all
// channel state p holds here: input VC ownership (returning the purged
// flits' credits upstream), granted and in-use output VCs, and — indirectly,
// through the stale-connection checks — packet-by-packet crossbar
// connections. It returns the number of flits purged. Abort-and-retry
// recovery calls it on every router to kill a packet. It walks every slot:
// a VC p owns while its next flits are still upstream is empty, and no slot
// mask covers the empty ones.
func (r *Router) PurgePacket(p *packet.Packet) int {
	s := r.st
	purged := 0
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		if s.inPkt[i] != p {
			continue
		}
		port, v := r.portVCOf(l)
		n := int(s.in.n[i])
		for k := 0; k < n; k++ {
			r.popIn(i)
		}
		s.flitCount[r.node] -= int32(n)
		purged += n
		if n > 0 && port < s.deg && r.neighbors[port] != nil {
			up := r.neighbors[port]
			up.st.outCredits[up.outIdx(int(r.rev[port]), v)] += int32(n)
		}
		s.inPkt[i] = nil
		r.setRoute(i, PortUnrouted)
		s.inOutVC[i] = VCUnrouted
		r.clearTimer(i)
		r.setMask(mSent, i, false)
	}
	for q := 0; q < s.deg; q++ {
		for v := 0; v < s.cfg.VCs; v++ {
			i := r.outIdx(q, v)
			if s.outOwner[i] == p {
				s.outOwner[i] = nil
			}
		}
	}
	return purged
}
