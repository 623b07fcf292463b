package router

import (
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
// network decoded (nil when encoding).
func (r *Router) WalkState(c *snapshot.Codec, table map[packet.ID]*packet.Packet) error {
	r.walkState(c, table)
	rng := r.rng.State()
	c.U64x4(&rng)
	if c.Decoding() && c.Err() == nil {
		r.rng.SetState(rng)
		r.pendingTimeouts = r.pendingTimeouts[:0]
	}
	return c.Err()
}

// walkState is the one walk over every router field that can influence a
// future cycle: snapshots and digests encode with it and restore decodes
// with it, so a field cannot be written without being read back, hashed and
// range-checked — each check sits on the line of the field it guards, so
// corrupt input yields an error, never a panic. Packets are stored as IDs.
// The walk follows the logical (port, vc) order and each ring's logical
// head-to-tail order, never the physical SoA layout (ring head positions,
// flat slot indices), so the bytes are layout-invariant; a decoded ring is
// repacked from physical position 0, which no digest can see.
func (r *Router) walkState(c *snapshot.Codec, table map[packet.ID]*packet.Packet) {
	s := r.st
	dec := c.Decoding()
	// ejectsHere rejects a decoded eject grant at a router that is not the
	// packet's destination: delivery asserts it.
	ejectsHere := func(p *packet.Packet, route int32) {
		if dec && p != nil && route == PortEject && p.Dst != r.node {
			c.Fail("snapshot: packet %d for node %d holds an eject grant at node %d", p.ID, p.Dst, r.node)
		}
	}

	c.Expect(int64(r.node), "router node")
	dbLanes := max(s.lanes, 1) // lane 0 is the resting value with no DB at all
	if dec {
		s.flitCount[r.node] = 0
	}
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		PacketRef(c, &s.inPkt[i], table)
		snapshot.Range(c, &s.inRoute[i], snapshot.In(PortEject, s.deg, "input route"))
		ejectsHere(s.inPkt[i], s.inRoute[i])
		snapshot.Range(c, &s.inOutVC[i], snapshot.In(VCDeadlockBuffer, s.cfg.VCs, "output VC grant"))
		snapshot.Range(c, &s.inDBLane[i], snapshot.In(0, dbLanes, "DB lane"))
		snapshot.Int(c, &s.inWaiting[i])
		c.Bool(&s.inPresumed[i])
		c.Bool(&s.inSent[i])
		r.walkFifo(c, &s.in, i, table)
	}
	for l := 0; l < s.outStr; l++ {
		i := r.out0 + l
		PacketRef(c, &s.outOwner[i], table)
		snapshot.Range(c, &s.outCredits[i], snapshot.In(0, s.cfg.BufferDepth+1, "credits"))
	}
	for lane := 0; lane < s.lanes; lane++ {
		i := r.db0 + lane
		PacketRef(c, &s.dbPkt[i], table)
		snapshot.Range(c, &s.dbRoute[i], snapshot.In(PortEject, s.deg, "DB route"))
		ejectsHere(s.dbPkt[i], s.dbRoute[i])
		r.walkFifo(c, &s.db, i, table)
	}
	for q := 0; q < s.deg; q++ {
		i := r.cx0 + q
		snapshot.Range(c, &s.cxInPort[i], snapshot.In(connNone, s.deg+1, "crossbar input port"))
		snapshot.Range(c, &s.cxInVC[i], snapshot.In(0, s.inVCCount(int(s.cxInPort[i])), "crossbar input VC"))
		c.Bool(&s.cxDB[i])
		c.Bool(&s.cxSaved[i])
		snapshot.Range(c, &s.cxSavedPort[i], snapshot.In(0, s.deg+1, "saved crossbar port"))
		snapshot.Range(c, &s.cxSavedVC[i], snapshot.In(0, s.inVCCount(int(s.cxSavedPort[i])), "saved crossbar VC"))
	}
	snapshot.Range(c, &s.vcArbOff[r.node], snapshot.In(0, s.stride, "VC arbitration offset"))
	for q := 0; q <= s.deg; q++ {
		snapshot.Range(c, &s.swArbOff[r.swIdx(q)], snapshot.In(0, s.stride, "switch arbitration offset"))
	}
	snapshot.Int(c, &s.effTout[r.node])
	snapshot.Int(c, &s.decayCount[r.node])
	c.I64(&r.stats.TimeoutEvents)
	c.I64(&r.stats.FalseDetections)
	c.I64(&r.stats.Recoveries)
	c.I64(&r.stats.MisrouteHops)
	c.I64(&r.stats.FlitsSwitched)
	c.I64(&r.stats.FlitsEjected)
	c.I64(&r.stats.DBFlitsCarried)
	c.I64(&r.stats.Preemptions)
	c.I64(&r.stats.BlockedCycles)
	for i := range r.blockedByVC {
		c.I64(&r.blockedByVC[i])
	}
	snapshot.Int(c, &s.lastBlocked[r.node])
	snapshot.Int(c, &s.lastPresumed[r.node])
}

// walkFifo codes ring i of q, head to tail. Decoding drains the ring first
// (zeroing its slots) and counts the refill into the router's derived flit
// counter (not serialized: the snapshot format predates it).
func (r *Router) walkFifo(c *snapshot.Codec, q *flitRing, i int, table map[packet.ID]*packet.Packet) {
	dec := c.Decoding()
	n := int(q.n[i])
	c.Len(&n, q.depth)
	if dec {
		for q.n[i] > 0 {
			q.pop(i)
		}
		q.head[i] = 0
	}
	for k := 0; k < n; k++ {
		var fl packet.Flit
		if !dec {
			fl = q.at(i, k)
		}
		PacketRef(c, &fl.Pkt, table)
		snapshot.Int(c, &fl.Seq)
		if !dec {
			continue
		}
		if c.Err() != nil {
			return
		}
		if fl.Pkt == nil {
			c.Fail("snapshot: buffered flit with no packet")
			return
		}
		if fl.Seq < 0 || fl.Seq >= fl.Pkt.Length {
			c.Fail("snapshot: flit seq %d outside packet length %d", fl.Seq, fl.Pkt.Length)
			return
		}
		q.push(i, fl)
		r.st.flitCount[r.node]++
	}
}
