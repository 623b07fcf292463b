package router

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/snapshot"
)

// PacketRef codes a reference to a live packet as its ID (-1 for nil). The
// network owns the packet table; a decoder rewires the pointer through it,
// and an ID the table does not hold is a decoding error.
func PacketRef(c *snapshot.Codec, p **packet.Packet, table map[packet.ID]*packet.Packet) {
	id := packet.ID(-1)
	if *p != nil {
		id = (*p).ID
	}
	snapshot.Int(c, &id)
	if !c.Decoding() {
		return
	}
	*p = nil
	if id == -1 {
		return
	}
	if *p = table[id]; *p == nil && c.Err() == nil {
		c.Fail("snapshot: reference to unknown packet %d", id)
	}
}

// WalkState codes the router's complete dynamic state: the walkState field
// walk followed by the router's private RNG stream, which a restored run
// needs to reproduce future selection draws. The digest (AppendState) is the
// same walk minus that trailer — the RNG never influences a digest
// comparison between two live networks.
//
// Decoding restores a router freshly constructed with the identical
// configuration the snapshot was taken under; table is the packet table the
// network decoded (nil when encoding). The coded output VC pairs are kept
// for State.VerifyOutputs, which the decoder calls once every router is
// decoded.
func (r *Router) WalkState(c *snapshot.Codec, table map[packet.ID]*packet.Packet) error {
	r.walkState(c, table)
	rng := r.rng.State()
	c.U64x4(&rng)
	if c.Decoding() && c.Err() == nil {
		r.rng.SetState(rng)
	}
	return c.Err()
}

// walkState is the one walk over every router field that can influence a
// future cycle: snapshots and digests encode with it and restore decodes
// with it, so a field cannot be written without being read back, hashed and
// range-checked — each check sits on the line of the field it guards, so
// corrupt input yields an error, never a panic. Packets are stored as IDs.
// The clock-derived values (activity.go) are written as of the current
// cycle: a decoder refuses an offset that disagrees with the restored clock,
// and stamps the timer pass's values with it.
// The walk follows the logical (port, vc) order and each buffer's
// head-to-tail order, never the physical SoA layout (flat slot indices), and
// codes every buffered flit although a buffer stores only its owner's run,
// and every output VC's owner and credits although they are derived (the
// grant bits from the input slots, the rest from the buffers the outputs
// feed), so the bytes are layout-invariant.
func (r *Router) walkState(c *snapshot.Codec, table map[packet.ID]*packet.Packet) {
	s := r.st
	dec := c.Decoding()
	// ejectsHere rejects a decoded eject grant at a router that is not the
	// packet's destination: delivery asserts it.
	ejectsHere := func(p *packet.Packet, route int8) {
		if dec && p != nil && route == PortEject && p.Dst != r.node {
			c.Fail("snapshot: packet %d for node %d holds an eject grant at node %d", p.ID, p.Dst, r.node)
		}
	}

	c.Expect(int64(r.node), "router node")
	now := s.clock.Now()
	dbLanes := max(s.lanes, 1) // lane 0 is the resting value with no DB at all
	if dec {
		s.flitCount[r.node] = 0
	}
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		owner := walkOwner(c, &s.in, i, table)
		snapshot.Range(c, &s.inRoute[i], snapshot.In(PortEject, s.deg, "input route"))
		ejectsHere(owner, s.inRoute[i])
		snapshot.Range(c, &s.inOutVC[i], snapshot.In(VCDeadlockBuffer, s.cfg.VCs, "output VC grant"))
		snapshot.Range(c, &s.inDBLane[i], snapshot.In(0, dbLanes, "DB lane"))
		waiting := r.waiting(i)
		snapshot.Int(c, &waiting)
		presumed, sent := r.hasMask(mPre, i), r.hasMask(mSent, i)
		c.Bool(&presumed)
		c.Bool(&sent)
		r.walkFifo(c, &s.in, i, table)
		if dec && c.Err() == nil {
			// T_elapsed is the owner's while the slot's head is its
			// header, and 0 on any other slot.
			if s.in.n[i] != 0 && s.in.seq[i] == 0 {
				owner.Waiting = waiting
			} else if waiting != 0 {
				c.Fail("snapshot: %s: T_elapsed %d, but its head is not its owner's header", r.slotName(&s.in, i), waiting)
			}
		}
		if dec {
			// The other masks are derived, not coded: set them from the
			// decoded arrays and flags.
			r.setMask(mPre, i, presumed)
			r.setMask(mSent, i, sent)
			for k, on := range r.derivedMasks(i) {
				r.setMask(k, i, on)
			}
		}
	}
	if dec {
		r.decodeGrants(c)
		if s.coded == nil {
			s.coded = make([]outPair, s.nodes*s.outStr)
		}
	}
	for l := 0; l < s.outStr; l++ {
		q, v := l/s.cfg.VCs, l%s.cfg.VCs
		var owner *packet.Packet
		var credits int16
		if !dec {
			owner, credits = r.OutputOwner(q, v), int16(r.Credits(q, v))
		}
		PacketRef(c, &owner, table)
		snapshot.Range(c, &credits, snapshot.In(0, s.cfg.BufferDepth+1, "credits"))
		if dec {
			s.coded[int(r.node)*s.outStr+l] = outPair{refID(owner), credits}
		}
	}
	for lane := 0; lane < s.lanes; lane++ {
		i := r.db0 + lane
		owner := walkOwner(c, &s.db, i, table)
		snapshot.Range(c, &s.dbRoute[i], snapshot.In(PortEject, s.deg, "DB route"))
		ejectsHere(owner, s.dbRoute[i])
		r.walkFifo(c, &s.db, i, table)
	}
	r.walkCrossbar(c)
	c.Expect(int64(s.vcArbOffset(now)), "VC arbitration offset")
	for q := 0; q <= s.deg; q++ {
		snapshot.Range(c, &s.swArbOff[r.swIdx(q)], snapshot.In(0, s.stride, "switch arbitration offset"))
	}
	c.I64(&r.stats.TimeoutEvents)
	c.I64(&r.stats.FalseDetections)
	c.I64(&r.stats.Recoveries)
	c.I64(&r.stats.MisrouteHops)
	c.I64(&r.stats.FlitsSwitched)
	c.I64(&r.stats.FlitsEjected)
	c.I64(&r.stats.DBFlitsCarried)
	c.I64(&r.stats.Preemptions)
	c.I64(&r.stats.BlockedCycles)
	byVC := s.blockedByVC[int(r.node)*s.cfg.VCs:][:s.cfg.VCs]
	for v := range byVC {
		c.I64(&byVC[v])
	}
	blocked, presumed := int32(r.BlockedHeaders()), int32(r.PresumedHeaders())
	snapshot.Int(c, &blocked)
	snapshot.Int(c, &presumed)
	if dec {
		s.lastBlocked[r.node], s.lastPresumed[r.node] = blocked, presumed
		s.tickedAt[r.node] = now
	}
}

// walkOwner codes slot i of q's owner as a packet reference and returns
// it; decoding makes the referenced packet the owner, giving it a handle.
func walkOwner(c *snapshot.Codec, q *flitRun, i int, table map[packet.ID]*packet.Packet) *packet.Packet {
	p := q.pkt(i)
	PacketRef(c, &p, table)
	if c.Decoding() {
		q.owner[i] = 0
		if p != nil {
			q.own(i, p)
		}
	}
	return p
}

// walkCrossbar codes the router's packet-by-packet crossbar connections.
// Flit-by-flit allocation keeps none: its walk codes every port at rest, as
// a connection-free packet-by-packet port reads, and a decoder refuses any
// other value, naming the port.
func (r *Router) walkCrossbar(c *snapshot.Codec) {
	s := r.st
	for q := 0; q < s.deg; q++ {
		if s.cxInPort == nil {
			port, vc, savedPort, savedVC := int8(connNone), int8(0), int8(0), int8(0)
			db, saved := false, false
			snapshot.Int(c, &port)
			snapshot.Int(c, &vc)
			c.Bool(&db)
			c.Bool(&saved)
			snapshot.Int(c, &savedPort)
			snapshot.Int(c, &savedVC)
			if port != connNone || vc != 0 || db || saved || savedPort != 0 || savedVC != 0 {
				c.Fail("snapshot: crossbar %d: a connection under flit-by-flit allocation", q)
			}
			continue
		}
		i := r.cxIdx(q)
		snapshot.Range(c, &s.cxInPort[i], snapshot.In(connNone, s.deg+1, "crossbar input port"))
		snapshot.Range(c, &s.cxInVC[i], snapshot.In(0, s.inVCCount(int(s.cxInPort[i])), "crossbar input VC"))
		c.Bool(&s.cxDB[i])
		c.Bool(&s.cxSaved[i])
		snapshot.Range(c, &s.cxSavedPort[i], snapshot.In(0, s.deg+1, "saved crossbar port"))
		snapshot.Range(c, &s.cxSavedVC[i], snapshot.In(0, s.inVCCount(int(s.cxSavedPort[i])), "saved crossbar VC"))
	}
	if c.Decoding() {
		r.syncCrossbar()
	}
}

// walkFifo codes slot i of q, head to tail, each flit as its packet and its
// position. The slot's owner is decoded before it, and decoding refuses a
// flit that is not the owner's next, naming the slot; the refill is counted
// into the router's derived flit counter (not serialized: the snapshot
// format predates it).
func (r *Router) walkFifo(c *snapshot.Codec, q *flitRun, i int, table map[packet.ID]*packet.Packet) {
	dec := c.Decoding()
	n := int(q.n[i])
	c.Len(&n, q.depth)
	if dec {
		q.n[i] = 0
	}
	for k := 0; k < n; k++ {
		var fl packet.Flit
		if !dec {
			fl = q.at(i, k)
		}
		seq := int32(fl.Seq) // the buffer's storage type: a wider value is refused
		PacketRef(c, &fl.Pkt, table)
		snapshot.Int(c, &seq)
		fl.Seq = int(seq)
		if !dec {
			continue
		}
		if c.Err() != nil {
			return
		}
		switch owner := q.pkt(i); {
		case owner == nil:
			c.Fail("snapshot: %s buffers flits with no owner", r.slotName(q, i))
		case fl.Pkt != owner:
			c.Fail("snapshot: %s buffers a flit that its owner, packet %d, does not own", r.slotName(q, i), owner.ID)
		case k == 0 && (fl.Seq < 0 || fl.Seq >= owner.Length):
			c.Fail("snapshot: %s: flit seq %d outside packet length %d", r.slotName(q, i), fl.Seq, owner.Length)
		case k > 0 && fl.Seq != int(q.seq[i])+k:
			c.Fail("snapshot: %s: flit seq %d is not its owner's next, %d", r.slotName(q, i), fl.Seq, int(q.seq[i])+k)
		}
		if c.Err() != nil {
			return
		}
		q.push(i, fl)
		r.st.flitCount[r.node]++
	}
}

// slotName names global slot i of q (the input VCs or the Deadlock Buffer
// lanes) in a decoding error.
func (r *Router) slotName(q *flitRun, i int) string {
	if q == &r.st.db {
		return fmt.Sprintf("DB lane %d", i-r.db0)
	}
	p, v := r.portVCOf(i - r.in0)
	return fmt.Sprintf("input (%d,%d)", p, v)
}

// outPair is an output VC as a snapshot codes it: its owner (-1 for none)
// and credits.
type outPair struct {
	owner   packet.ID
	credits int16
}

// refID is p's ID, -1 for nil (PacketRef's coding).
func refID(p *packet.Packet) packet.ID {
	if p == nil {
		return -1
	}
	return p.ID
}

// decodeGrants sets the router's grant bits from its decoded input slots:
// each routed header at a buffer head holds its output VC's grant, and a
// second header claiming the same VC is refused.
func (r *Router) decodeGrants(c *snapshot.Codec) {
	s := r.st
	clear(s.grant[r.g0 : r.g0+s.gw])
	for i := r.in0; i < r.in0+s.stride; i++ {
		if !r.holdsGrant(i) {
			continue
		}
		q, v := int(s.inRoute[i]), int(s.inOutVC[i])
		if r.granted(q, v) {
			c.Fail("snapshot: output (%d,%d) is granted to two headers", q, v)
			return
		}
		r.setGrant(q, v, true)
	}
}

// VerifyOutputs checks every router's coded output VC pairs against the
// state they derive from, and drops them. The network's decoder calls it
// once every router's input slots are decoded (and the reconfiguration log
// has rewired the links), since an output's credits and owner past its
// grant are its neighbour's input slot. An error names the router and the
// output (port, vc).
func (s *State) VerifyOutputs() error {
	defer func() { s.coded = nil }()
	for n := range s.views {
		r := &s.views[n]
		for l := 0; l < s.outStr; l++ {
			q, v := l/s.cfg.VCs, l%s.cfg.VCs
			if msg := r.outputMismatch(q, v, s.coded[int(r.node)*s.outStr+l]); msg != "" {
				return fmt.Errorf("router %d: snapshot: output (%d,%d): %s", r.node, q, v, msg)
			}
		}
	}
	return nil
}

// outputMismatch returns why the coded pair o of output VC (q, v)
// disagrees with the state, or "".
func (r *Router) outputMismatch(q, v int, o outPair) string {
	s := r.st
	d := r.downIdx(q, v)
	if want := r.Credits(q, v); int(o.credits) != want {
		return fmt.Sprintf("credits %d, but the buffer it feeds has room for %d", o.credits, want)
	}
	if r.granted(q, v) {
		h := r.grantHolder(q, v)
		switch {
		case d < 0:
			return fmt.Sprintf("packet %d's header holds its grant on a link that is down", h.ID)
		case s.in.owner[d] != 0:
			return fmt.Sprintf("packet %d's header holds its grant while its downstream slot is packet %d's", h.ID, s.in.pkt(d).ID)
		case o.owner != h.ID:
			return fmt.Sprintf("owner %s, but packet %d's header holds its grant", refName(o.owner), h.ID)
		}
		return ""
	}
	want := r.OutputOwner(q, v)
	switch {
	case o.owner == refID(want):
		return ""
	case want != nil:
		return fmt.Sprintf("owner %s, but its downstream slot is packet %d's", refName(o.owner), want.ID)
	case d < 0:
		return fmt.Sprintf("owner %s, but no header holds its grant and its link is down", refName(o.owner))
	case s.in.owner[d] == 0:
		return fmt.Sprintf("owner %s, but no header holds its grant and its downstream slot is idle", refName(o.owner))
	}
	return fmt.Sprintf("owner %s, but packet %d's tail has entered its downstream slot", refName(o.owner), s.in.pkt(d).ID)
}

// refName names a coded packet reference in a decoding error.
func refName(id packet.ID) string {
	if id == -1 {
		return "none"
	}
	return fmt.Sprintf("packet %d", id)
}
