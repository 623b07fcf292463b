package router

import "repro/internal/packet"

// This file holds the router-local primitives the network's dynamic
// reconfiguration subsystem (internal/network/reconfig.go) composes into
// mid-run link kills and heals. Every method here mutates only
// this router's slice of the shared SoA state, and all of them are called
// between Step cycles. An output VC's credits are the buffer it feeds, so a
// purge or a reset has no credit to return upstream.

// dbHeadIsHeader reports whether DB lane slot i currently buffers its
// packet's header at the buffer head — the one case where the lane's stored
// route may be recomputed without tearing the packet's lane chain apart
// (body flits blindly follow the route their header established).
func (r *Router) dbHeadIsHeader(i int) bool {
	s := r.st
	return s.db.n[i] != 0 && s.db.peek(i).IsHeader()
}

// LinkVictims appends every packet that would lose flits if the link on
// port were severed right now: packets with flits (or live wormhole
// ownership) in the input VCs the link feeds, packets owning an output VC
// on the link with flits already across (credits consumed: the neighbour's
// input VC holds them, so its own scan finds these too), and packets
// whose Deadlock Buffer chain is threaded across the link — a lane or
// DB-granted input VC routed at port whose header has already departed, so
// the remaining flits cannot be re-aimed. Callers scan both endpoints and
// deduplicate.
func (r *Router) LinkVictims(port int, out []*packet.Packet) []*packet.Packet {
	s := r.st
	for v := 0; v < s.inVCCount(port); v++ {
		if p := s.in.pkt(r.inIdx(port, v)); p != nil {
			out = append(out, p)
		}
	}
	for v := 0; v < s.cfg.VCs; v++ {
		if p := r.OutputOwner(port, v); p != nil && r.Credits(port, v) < s.cfg.BufferDepth {
			out = append(out, p)
		}
	}
	for lane := 0; lane < s.lanes; lane++ {
		i := r.dbIdx(lane)
		if p := s.db.pkt(i); p != nil && int(s.dbRoute[i]) == port && !r.dbHeadIsHeader(i) {
			out = append(out, p)
		}
	}
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		if s.in.owner[i] == 0 || int(s.inOutVC[i]) != VCDeadlockBuffer || int(s.inRoute[i]) != port {
			continue
		}
		if s.in.n[i] == 0 || !s.in.peek(i).IsHeader() {
			out = append(out, s.in.pkt(i))
		}
	}
	return out
}

// ReleaseGrants quiesces the surviving traffic aimed at port: every input
// VC whose granted route points there is returned to the unrouted state, so
// its packet re-routes from scratch next cycle under whatever the topology
// and routing function then are — the "quiesce only the affected resources"
// half of the DBR-style protocol. Victims must be purged first; this only
// touches slots whose packets keep all their flits. Like PurgePacket it walks
// every slot: a granted VC may be empty, and no slot mask covers the empty
// ones.
func (r *Router) ReleaseGrants(port int) {
	s := r.st
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		if s.in.owner[i] == 0 || int(s.inRoute[i]) != port {
			continue
		}
		r.releaseGrant(i)
		r.setRoute(i, PortUnrouted)
		s.inOutVC[i] = VCUnrouted
	}
}

// ResetOutputPort restores port's output-side channel state to
// as-constructed: no grants and no packet-by-packet crossbar connection
// (live or suspended; flit-by-flit allocation keeps none). Its credits and its owners past a grant are the
// buffers it feeds, which a kill's purges emptied. Called after a kill has
// purged or re-routed everything that used the link, and again is what
// lets a healed link come back with clean virtual channels.
func (r *Router) ResetOutputPort(port int) {
	s := r.st
	for v := 0; v < s.cfg.VCs; v++ {
		r.setGrant(port, v, false)
	}
	if s.cxInPort == nil {
		return
	}
	c := r.cxIdx(port)
	s.cxInPort[c], s.cxInVC[c] = connNone, 0
	s.cxDB[c] = false
	s.cxSaved[c], s.cxSavedPort[c], s.cxSavedVC[c] = false, 0, 0
	r.syncCrossbar()
}

// RefreshDBRoutes recomputes the stored route of every Deadlock Buffer lane
// whose packet's header is still buffered at the lane head, after the
// network rebuilt the DB next-hop table for a changed topology. Lanes whose
// header has already departed are left alone — their remaining flits must
// follow the chain the header established (re-aiming them would strand body
// flits in a lane no header ever claimed); if such a frozen chain crossed
// the failed link its packet was already dropped as a victim.
func (r *Router) RefreshDBRoutes() {
	s := r.st
	for lane := 0; lane < s.lanes; lane++ {
		i := r.dbIdx(lane)
		if p := s.db.pkt(i); p != nil && r.dbHeadIsHeader(i) {
			s.dbRoute[i] = int8(r.dbLaneRoute(lane, p.Dst))
		}
	}
}

// RecoveryBusy returns how many recovery resources are in use at this
// router: presumed is the count of input VCs holding a presumed-deadlocked
// header, busy the count of input VCs granted to the Deadlock Buffer lane
// plus DB lane flits and unreleased lane ownerships. Zero for both,
// network-wide, means no packet is presumed deadlocked and the recovery
// lane has fully drained — the chaos runner's reconvergence condition. It
// reads buffered state only, which a router the active-set scheduler has
// parked holds exactly as under the full scan.
func (r *Router) RecoveryBusy() (presumed, busy int) {
	s := r.st
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		if r.hasMask(mPre, i) && s.in.n[i] != 0 {
			presumed++
		}
		if s.in.owner[i] != 0 && int(s.inOutVC[i]) == VCDeadlockBuffer {
			busy++
		}
	}
	for lane := 0; lane < s.lanes; lane++ {
		i := r.dbIdx(lane)
		busy += int(s.db.n[i])
		if s.db.owner[i] != 0 {
			busy++
		}
	}
	return presumed, busy
}
