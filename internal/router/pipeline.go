package router

import (
	"math"
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

// reserveDB attempts to admit one flit of the packet with handle h into
// lane of target's Deadlock Buffer at cycle now: the lane must be stageable
// and its single write port (State.dbWriteAt) not yet used this cycle.
// Admission stamps the port.
func reserveDB(target *Router, lane int, h int32, now sim.Cycle) bool {
	if !dbStageable(target, lane, h) {
		return false
	}
	i := target.dbIdx(lane)
	if target.st.dbWriteAt[i] == now {
		return false
	}
	target.st.dbWriteAt[i] = now
	return true
}

// dbStageable reports whether one flit of the packet with handle h could
// enter lane of target's Deadlock Buffer this cycle as far as start-of-cycle
// state is concerned: the lane exists, is idle or already threaded by that
// packet, and has a free slot.
// It deliberately ignores the per-cycle single-write-port constraint, which
// depends on what other routers stage: StageSwitch uses this check so that
// staging reads only start-of-cycle state, and ResolveDB settles the write
// port afterwards in fixed router order.
func dbStageable(target *Router, lane int, h int32) bool {
	if target == nil || lane < 0 || lane >= target.st.lanes {
		return false
	}
	i := target.dbIdx(lane)
	owner := target.st.db.owner[i]
	return (owner == 0 || owner == h) && int(target.st.db.n[i]) < target.st.db.depth
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
		var h int32
		if t.FromDB {
			h = t.From.st.db.owner[t.From.dbIdx(t.FromDBLane)]
		} else {
			h = t.From.st.in.owner[t.From.inIdx(t.FromPort, t.FromVC)]
		}
		if reserveDB(t.To, t.ToDBLane, h, now) {
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
// effect immediately in router-local state (the output VC's grant bit), so
// later slots visited in the same cycle see them.
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
		r.aimAtDB(i, p.Dst)
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
		choice = s.sel.Pick(r, usable, &r.rng)
	}
	r.setGrant(choice.Port, choice.VC, true)
	r.setRoute(i, choice.Port)
	s.inOutVC[i] = int8(choice.VC)
	if choice.ToDeterministic {
		p.OnDeterministic = true
	}
}

// --- Switch allocation ----------------------------------------------------------

// stageDBOutput stages the Deadlock Buffer hop on output q if some lane
// wants it: the hop enters the lane its direction picks (hopLane) at the
// next router. Both allocation policies call it before granting q to an
// input VC, which is the Deadlock Buffer's priority on its output.
func (r *Router) stageDBOutput(q int, out *[]Transfer) bool {
	s := r.st
	for lane := 0; lane < s.lanes; lane++ {
		i := r.dbIdx(lane)
		if s.db.n[i] == 0 || int(s.dbRoute[i]) != q {
			continue
		}
		if nb, next := r.Neighbor(q), r.hopLane(q); dbStageable(nb, next, s.db.owner[i]) {
			*out = append(*out, Transfer{From: r, FromDB: true, FromDBLane: lane,
				To: nb, OutPort: q, ToDB: true, ToDBLane: next})
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

// Commit applies a staged transfer; ejected flits are passed to sink, and
// a consumed tail gives back its packet's handle. A header entering an
// input slot starts its T_elapsed at 0: the slot it left is cleared by its
// own router's timer pass, which may run after the receiver's. Transfers
// marked Dropped by ResolveDB are ignored.
func Commit(t *Transfer, sink Sink) {
	if t.Dropped {
		return
	}
	fl := t.popSource()
	switch {
	case t.Eject:
		t.From.stats.FlitsEjected++
		sink.Deliver(fl, t.From.node)
		if fl.IsTail() {
			t.From.st.pk.release(fl.Pkt)
		}
	case t.ToDB:
		to := t.To
		i := to.dbIdx(t.ToDBLane)
		if fl.IsHeader() {
			to.st.db.own(i, fl.Pkt)
			to.st.dbRoute[i] = int8(to.dbLaneRoute(t.ToDBLane, fl.Pkt.Dst))
			fl.Pkt.Hops++
		}
		to.st.db.push(i, fl)
		to.st.flitCount[to.node]++
		t.From.stats.FlitsSwitched++
	default:
		to := t.To
		inPort := int(t.From.st.rev[t.From.cxIdx(t.OutPort)])
		ti := to.inIdx(inPort, t.ToVC)
		if fl.IsHeader() {
			to.st.in.own(ti, fl.Pkt)
			fl.Pkt.Waiting = 0
		}
		to.pushIn(ti, fl)
		to.st.flitCount[to.node]++
		t.From.stats.FlitsSwitched++
		if fl.IsHeader() {
			t.From.setGrant(t.OutPort, t.ToVC, false)
			t.From.applyHeaderHop(fl.Pkt, t.OutPort)
		}
	}
}

// popSource removes the flit from its source buffer, releasing wormhole
// state on tails. The freed space is the upstream output VC's credit.
func (t *Transfer) popSource() packet.Flit {
	r := t.From
	s := r.st
	if t.FromDB {
		i := r.dbIdx(t.FromDBLane)
		fl := s.db.pop(i)
		s.flitCount[r.node]--
		r.stats.DBFlitsCarried++
		if fl.IsTail() {
			s.db.owner[i] = 0
			s.dbRoute[i] = PortUnrouted
		}
		return fl
	}
	i := r.inIdx(t.FromPort, t.FromVC)
	fl := r.popIn(i)
	s.flitCount[r.node]--
	if fl.IsTail() {
		s.in.owner[i] = 0
		r.setRoute(i, PortUnrouted)
		s.inOutVC[i] = VCUnrouted
		r.clearTimer(i)
	}
	return fl
}

// applyHeaderHop updates per-packet routing state when a header crosses a
// normal (edge-buffer) link out of r.
func (r *Router) applyHeaderHop(p *packet.Packet, outPort int) {
	if HeaderHop(r.st.topo, r.st.ctopo, p, r.node, outPort, r.Neighbor(outPort).node) {
		r.stats.MisrouteHops++
	}
}

// HeaderHop writes the routing state a header's hop from node from through
// port to node to changes: the hop count, on a coordinate topology (ctopo is
// g's coordinate view, nil on a coordinate-free graph) the dimension
// reversal and the dateline bit, and the misroute count, which grows when
// the hop brings p no closer to its destination. It reports a misroute. A
// router applies it to every header that crosses one of its links; the
// deadlock-freedom tests of internal/core apply it to the candidates Route
// offers, so they walk the states a header really reaches.
func HeaderHop(g topology.Graph, ctopo topology.Topology, p *packet.Packet, from topology.Node, port int, to topology.Node) (misroute bool) {
	p.Hops++
	if ctopo != nil {
		// Dimension-reversal and dateline state only exist on coordinate
		// topologies; the algorithms that consume them reject coordinate-
		// free graphs at configuration time.
		d := topology.PortDim(port)
		if p.LastDim >= 0 && d < p.LastDim {
			p.DimReversals++
		}
		p.LastDim = d
		if ctopo.CrossesDateline(from, port) {
			p.DatelineCrossed |= 1 << uint(d)
		}
	}
	if g.Distance(to, p.Dst) >= g.Distance(from, p.Dst) {
		p.Misroutes++
		return true
	}
	return false
}

// --- Deadlock detection & recovery ---------------------------------------------

// tickSlot advances the deadlock timer of the input VC at global slot i =
// inIdx(p, v) and clears its per-cycle sent marker, returning 1 if its
// header newly crossed T_out. TickTimers calls it on the slots of mTim ∨
// mHdr only: on any other slot it would only clear the sent marker, which
// TickTimers does for every slot at once.
func (r *Router) tickSlot(i, p, v int, blocked, presumed *int) int {
	s, tout := r.st, r.st.cfg.Timeout
	presumedHere := r.hasMask(mPre, i)
	if r.hasMask(mSent, i) {
		if presumedHere {
			// The presumed-deadlocked header moved normally: a false
			// detection.
			r.stats.FalseDetections++
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
	if head.Pkt.Waiting < math.MaxInt32 {
		head.Pkt.Waiting++
	}
	waiting := sim.Cycle(head.Pkt.Waiting)
	r.setMask(mTim, i, true)
	*blocked++
	r.stats.BlockedCycles++
	s.blockedByVC[int(r.node)*s.cfg.VCs+v]++
	if presumedHere {
		*presumed++
	}
	if tout > 0 && waiting > tout && !presumedHere {
		// Headers still at the injection port hold no network channels, so
		// they cannot be deadlock members; they are presumed only when
		// STRANDED by link faults (the routing function offers no live port
		// at all), in which case only the recovery lane can ever deliver
		// them. The stranded check is throttled: faults are rare events.
		if p == s.deg {
			if (waiting-tout)%16 != 1 || !r.strandedHeader(head.Pkt) {
				return 0
			}
		}
		r.setMask(mPre, i, true)
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
// are included: they are presumed only when stranded by faults. This and
// the other presumed-slot readers (RecoverPresumed, PresumedPackets) walk
// mPre in ascending slot order, and a tie goes to the lowest slot.
func (r *Router) MostStarved() (port, vc int, ok bool) {
	var best int32 = -1
	for j, word := range r.maskOf(mPre) {
		for ; word != 0; word &= word - 1 {
			l := j<<6 + bits.TrailingZeros64(word)
			if w := r.waiting(r.in0 + l); w > best {
				best = w
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
// here to its destination — paper Assumption 3) and aims it at its first DB
// hop (aimAtDB). It returns the recovered packet.
func (r *Router) Recover(port, vc int, now sim.Cycle) *packet.Packet {
	s := r.st
	i := r.inIdx(port, vc)
	p := s.in.pkt(i)
	if p == nil || s.in.n[i] == 0 || !s.in.peek(i).IsHeader() {
		panic("router: Recover on a VC without a blocked header")
	}
	r.releaseGrant(i)
	p.OnDB = true
	p.SeizedToken = s.cfg.Recovery == RecoverySequential
	p.RecoveredAt = now
	r.aimAtDB(i, p.Dst)
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
	for j, word := range r.maskOf(mPre) {
		for ; word != 0; word &= word - 1 {
			l := j<<6 + bits.TrailingZeros64(word)
			// Network ports only — exactly the first deg*vcs slots of the
			// port-major layout (injection slots end the router's range).
			if l >= s.outStr {
				return out
			}
			p, v := r.portVCOf(l)
			out = append(out, r.Recover(p, v, now))
		}
	}
	return out
}

// aimAtDB grants input slot i, whose header is bound for dst, its first
// Deadlock Buffer hop: a recovery starts in lane 0, which reaches every
// destination, and enters the lane the hop's direction picks.
func (r *Router) aimAtDB(i int, dst topology.Node) {
	q := r.dbLaneRoute(0, dst)
	r.setRoute(i, q)
	r.st.inDBLane[i] = int8(r.hopLane(q))
	r.st.inOutVC[i] = VCDeadlockBuffer
}

// hopLane is the Deadlock Buffer lane a hop out of port q enters at the
// next router: with two lanes, lane 1 where the hop descends to a lower
// label, else lane 0.
func (r *Router) hopLane(q int) int {
	if label := r.st.laneLabel; label != nil && label[r.st.nbr[r.cxIdx(q)]] < label[r.node] {
		return 1
	}
	return 0
}

// dbLaneRoute returns the output at this router of Deadlock Buffer lane
// lane for a packet to dst: ejection at the destination, else the installed
// lane row's entry (concurrent lanes, coordinate-free or faulted
// topologies), else minimal dimension order.
func (r *Router) dbLaneRoute(lane int, dst topology.Node) int {
	if r.node == dst {
		return PortEject
	}
	s := r.st
	if s.laneRow != nil {
		return int(s.laneRowTo(dst)[lane*s.nodes+int(r.node)])
	}
	// Coordinate-free graphs always route by lane rows (the network installs
	// the BFS rows at construction), so reaching the dimension-order
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
	for j, word := range r.maskOf(mPre) {
		for ; word != 0; word &= word - 1 {
			if i := r.in0 + j<<6 + bits.TrailingZeros64(word); s.in.owner[i] != 0 {
				out = append(out, s.in.pkt(i))
			}
		}
	}
	return out
}

// PurgePacket removes every flit of p from this router and releases all
// channel state p holds here: input VC ownership (the purged flits' space
// is the upstream output VC's credit), output VC grants, Deadlock Buffer
// lanes (a reconfiguration victim may be mid-recovery) and — indirectly,
// through the stale-connection checks — packet-by-packet crossbar
// connections. It returns the number of flits purged. The network calls it
// on every router to kill a packet (abort-and-retry) or drop one
// (reconfiguration), and then State.Release. It walks every slot: a VC p
// owns while its next flits are still upstream is empty, and no slot mask
// covers the empty ones. A packet with no handle owns no slot.
func (r *Router) PurgePacket(p *packet.Packet) int {
	s := r.st
	h := p.Handle
	if h == 0 {
		return 0
	}
	purged := 0
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		if s.in.owner[i] != h {
			continue
		}
		r.releaseGrant(i)
		n := int(s.in.n[i])
		for k := 0; k < n; k++ {
			r.popIn(i)
		}
		s.flitCount[r.node] -= int32(n)
		purged += n
		s.in.owner[i] = 0
		r.setRoute(i, PortUnrouted)
		s.inOutVC[i] = VCUnrouted
		r.clearTimer(i)
		r.setMask(mSent, i, false)
	}
	for lane := 0; lane < s.lanes; lane++ {
		i := r.dbIdx(lane)
		if s.db.owner[i] != h {
			continue
		}
		n := int(s.db.n[i])
		s.flitCount[r.node] -= int32(n)
		purged += n
		s.db.owner[i], s.db.n[i] = 0, 0
		s.dbRoute[i] = PortUnrouted
	}
	return purged
}
