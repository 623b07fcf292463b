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
// needs to reproduce future selection draws. Over a digest
// (snapshot.NewDigest), which codes no RNG stream, it is the router's part
// of Network.Fingerprint.
//
// Decoding restores a router freshly constructed with the identical
// configuration the snapshot was taken under, but for its grant bits, which
// State.DecodeGrants sets once every router is decoded; table is the packet
// table the network decoded (nil when encoding).
func (r *Router) WalkState(c *snapshot.Codec, table map[packet.ID]*packet.Packet) error {
	r.walkState(c, table)
	rng := r.rng.State()
	c.RNG(&rng)
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
//
// It codes only what the state does not imply. Its input slots, Deadlock
// Buffer lanes and (under packet-by-packet allocation) crossbar ports are
// each a listing (walkListing) of the slots not at rest, so a slot costs
// bytes only while it holds something; a decoder leaves every unlisted slot
// as construction left it. A slot's buffered flits are its owner's run,
// coded as the head's position and a count. The output VCs, the mask bits
// other than mPre and mSent, and the VC arbitration offset (a function of
// the clock, activity.go) are derived on decode and not coded at all. The
// walk follows the logical (port, vc) order, never the physical SoA layout,
// so the bytes are layout-invariant.
func (r *Router) walkState(c *snapshot.Codec, table map[packet.ID]*packet.Packet) {
	s := r.st
	dec := c.Decoding()
	walkListing(c, s.stride, "listed input slot", func(l int) bool { return r.inputAtRest(r.in0 + l) }, func(l int) {
		i := r.in0 + l
		sl := r.loadInput(i)
		r.walkInput(c, &sl, i, table)
		if dec && c.Err() == nil {
			r.storeInput(i, sl)
			if r.inputAtRest(i) {
				c.Fail("snapshot: %s is listed but at rest", r.slotName(&s.in, i))
			}
		}
	})
	walkListing(c, s.lanes, "listed DB lane", func(lane int) bool { return r.dbAtRest(r.db0 + lane) }, func(lane int) {
		i := r.db0 + lane
		sl := r.loadDB(i)
		r.walkDB(c, &sl, i, table)
		if dec && c.Err() == nil {
			if sl.owner != nil {
				s.db.own(i, sl.owner)
			}
			s.dbRoute[i], s.db.n[i], s.db.seq[i] = sl.route, sl.n, sl.seq
			s.flitCount[r.node] += int32(sl.n)
			if r.dbAtRest(i) {
				c.Fail("snapshot: %s is listed but at rest", r.slotName(&s.db, i))
			}
		}
	})
	if s.cxInPort != nil {
		walkListing(c, s.deg, "listed crossbar port", func(q int) bool { return r.portAtRest(r.cxIdx(q)) }, func(q int) {
			i := r.cxIdx(q)
			cp := r.loadPort(i)
			r.walkPort(c, &cp)
			if dec && c.Err() == nil {
				s.cxInPort[i], s.cxInVC[i], s.cxDB[i] = cp.inPort, cp.inVC, cp.db
				s.cxSaved[i], s.cxSavedPort[i], s.cxSavedVC[i] = cp.saved, cp.savedPort, cp.savedVC
				if r.portAtRest(i) {
					c.Fail("snapshot: crossbar %d is listed but at rest", q)
				}
			}
		})
		if dec {
			r.syncCrossbar()
		}
	}
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
	// The timer pass's gauges: recovery runs after the pass and moves
	// presumed headers, so the slots do not imply them.
	blocked, presumed := int32(r.BlockedHeaders()), int32(r.PresumedHeaders())
	snapshot.Int(c, &blocked)
	snapshot.Int(c, &presumed)
	if dec {
		s.lastBlocked[r.node], s.lastPresumed[r.node] = blocked, presumed
		s.tickedAt[r.node] = s.clock.Now()
	}
}

// walkListing codes which of count slots are not at rest, and each of them:
// the listed indices in increasing order, each followed by visit's walk of
// that slot, and then count, which ends the listing. An index is coded by
// snapshot.Range as its distance from the lowest index it may take (one past
// the index before it), so a listing out of order cannot be written, and a
// decoder refuses an index past count. The encoder finds the listed slots
// with atRest as it walks; nothing about the listing is stored.
func walkListing(c *snapshot.Codec, count int, what string, atRest func(l int) bool, visit func(l int)) {
	for next := 0; c.Err() == nil; {
		l := next
		if !c.Decoding() {
			for l < count && atRest(l) {
				l++
			}
		}
		snapshot.Range(c, &l, snapshot.In(next, count+1, what))
		if l == count || c.Err() != nil {
			return
		}
		visit(l)
		next = l + 1
	}
}

// The at-rest predicates, one per kind of listed slot: a slot is at rest
// while it holds what construction leaves in it, so the walk leaves it out
// of its listing. Router.CheckRest (rest_test.go) holds each predicate to
// the walk's bytes over runs of every allocation and recovery mode.

// inputAtRest reports whether global input slot i is at rest: no owner, no
// flits (so no timer), unrouted, DB lane 0, and neither presumed nor sent.
func (r *Router) inputAtRest(i int) bool {
	s := r.st
	return s.in.owner[i] == 0 && s.in.n[i] == 0 && s.inRoute[i] == PortUnrouted && s.inOutVC[i] == VCUnrouted &&
		s.inDBLane[i] == 0 && !r.hasMask(mPre, i) && !r.hasMask(mSent, i)
}

// dbAtRest reports whether global Deadlock Buffer lane slot i is at rest:
// no owner, no flits, unrouted.
func (r *Router) dbAtRest(i int) bool {
	s := r.st
	return s.db.owner[i] == 0 && s.db.n[i] == 0 && s.dbRoute[i] == PortUnrouted
}

// portAtRest reports whether global port slot i's crossbar is at rest: no
// connection, no Deadlock Buffer connection, nothing saved.
func (r *Router) portAtRest(i int) bool {
	s := r.st
	return s.cxInPort[i] == connNone && s.cxInVC[i] == 0 && !s.cxDB[i] && !s.cxSaved[i] && s.cxSavedPort[i] == 0 && s.cxSavedVC[i] == 0
}

// inputSlot is one input VC slot as the walk codes it.
type inputSlot struct {
	owner                *packet.Packet
	route, outVC, dbLane int8
	presumed, sent       bool // mPre and mSent
	n                    uint8
	seq                  int32 // the head flit's position; 0 while n == 0
	waiting              int32 // T_elapsed: 0 unless the head is the owner's header
}

// loadInput reads global input slot i.
func (r *Router) loadInput(i int) inputSlot {
	s := r.st
	sl := inputSlot{
		owner: s.in.pkt(i), route: s.inRoute[i], outVC: s.inOutVC[i], dbLane: s.inDBLane[i],
		presumed: r.hasMask(mPre, i), sent: r.hasMask(mSent, i), n: s.in.n[i], waiting: r.waiting(i),
	}
	if sl.n != 0 {
		sl.seq = s.in.seq[i]
	}
	return sl
}

// walkInput codes input slot sl, global slot i. Its T_elapsed is coded only
// while the head is the owner's header: on any other slot it is 0. Its sent
// flag is always false between cycles (each cycle's TickTimers clears what
// its StageSwitch set), so a decoder refuses a set one: the next cycle's
// switch allocation would take the slot's input port as used.
func (r *Router) walkInput(c *snapshot.Codec, sl *inputSlot, i int, table map[packet.ID]*packet.Packet) {
	s := r.st
	PacketRef(c, &sl.owner, table)
	snapshot.Range(c, &sl.route, snapshot.In(PortEject, s.deg, "input route"))
	r.ejectsHere(c, sl.owner, sl.route)
	snapshot.Range(c, &sl.outVC, snapshot.In(VCDeadlockBuffer, s.cfg.VCs, "output VC grant"))
	snapshot.Range(c, &sl.dbLane, snapshot.In(0, max(s.lanes, 1), "DB lane")) // lane 0 rests with no DB at all
	c.Bool(&sl.presumed)
	c.Bool(&sl.sent)
	if c.Decoding() && sl.sent {
		c.Fail("snapshot: %s is marked sent between cycles", r.slotName(&s.in, i))
	}
	r.walkRun(c, &s.in, i, sl.owner, &sl.n, &sl.seq)
	if sl.n != 0 && sl.seq == 0 {
		snapshot.Int(c, &sl.waiting)
	}
}

// storeInput writes a decoded input slot into global slot i of a freshly
// constructed router, deriving its other masks from it.
func (r *Router) storeInput(i int, sl inputSlot) {
	s := r.st
	if sl.owner != nil {
		s.in.own(i, sl.owner)
	}
	r.setRoute(i, int(sl.route))
	s.inOutVC[i], s.inDBLane[i] = sl.outVC, sl.dbLane
	s.in.n[i], s.in.seq[i] = sl.n, sl.seq
	s.flitCount[r.node] += int32(sl.n)
	if sl.n != 0 && sl.seq == 0 {
		sl.owner.Waiting = sl.waiting
	}
	r.setMask(mPre, i, sl.presumed)
	for k, on := range r.derivedMasks(i) {
		r.setMask(k, i, on)
	}
}

// ejectsHere refuses a decoded eject grant at a router that is not the
// packet's destination: delivery asserts it.
func (r *Router) ejectsHere(c *snapshot.Codec, p *packet.Packet, route int8) {
	if c.Decoding() && p != nil && route == PortEject && p.Dst != r.node {
		c.Fail("snapshot: packet %d for node %d holds an eject grant at node %d", p.ID, p.Dst, r.node)
	}
}

// walkRun codes the flits buffered in slot i of q, its owner's run: a count
// and, when it is not 0, the head flit's position. A decoder refuses flits
// with no owner and a run past its owner's length, naming the slot.
func (r *Router) walkRun(c *snapshot.Codec, q *flitRun, i int, owner *packet.Packet, n *uint8, seq *int32) {
	k := int(*n)
	c.Len(&k, q.depth)
	*n = uint8(k)
	if k == 0 {
		return
	}
	if owner == nil {
		if c.Decoding() {
			c.Fail("snapshot: %s buffers flits with no owner", r.slotName(q, i))
		}
		return
	}
	snapshot.Int(c, seq)
	if c.Decoding() && c.Err() == nil && (*seq < 0 || int(*seq)+k > owner.Length) {
		c.Fail("snapshot: %s: flits %d..%d outside packet %d's length %d", r.slotName(q, i), *seq, int(*seq)+k-1, owner.ID, owner.Length)
	}
}

// dbSlot is one Deadlock Buffer lane as the walk codes it.
type dbSlot struct {
	owner *packet.Packet
	route int8
	n     uint8
	seq   int32 // 0 while n == 0
}

// loadDB reads global Deadlock Buffer lane slot i.
func (r *Router) loadDB(i int) dbSlot {
	s := r.st
	sl := dbSlot{owner: s.db.pkt(i), route: s.dbRoute[i], n: s.db.n[i]}
	if sl.n != 0 {
		sl.seq = s.db.seq[i]
	}
	return sl
}

// walkDB codes Deadlock Buffer lane sl, global lane slot i.
func (r *Router) walkDB(c *snapshot.Codec, sl *dbSlot, i int, table map[packet.ID]*packet.Packet) {
	PacketRef(c, &sl.owner, table)
	snapshot.Range(c, &sl.route, snapshot.In(PortEject, r.st.deg, "DB route"))
	r.ejectsHere(c, sl.owner, sl.route)
	r.walkRun(c, &r.st.db, i, sl.owner, &sl.n, &sl.seq)
}

// crossbarPort is one packet-by-packet crossbar connection as the walk
// codes it.
type crossbarPort struct {
	inPort, inVC       int8
	db, saved          bool
	savedPort, savedVC int8
}

// loadPort reads global port slot i's crossbar connection.
func (r *Router) loadPort(i int) crossbarPort {
	s := r.st
	return crossbarPort{s.cxInPort[i], s.cxInVC[i], s.cxDB[i], s.cxSaved[i], s.cxSavedPort[i], s.cxSavedVC[i]}
}

// walkPort codes crossbar port cp; each VC is checked against the port it
// names.
func (r *Router) walkPort(c *snapshot.Codec, cp *crossbarPort) {
	s := r.st
	snapshot.Range(c, &cp.inPort, snapshot.In(connNone, s.deg+1, "crossbar input port"))
	snapshot.Range(c, &cp.inVC, snapshot.In(0, s.inVCCount(int(cp.inPort)), "crossbar input VC"))
	c.Bool(&cp.db)
	c.Bool(&cp.saved)
	snapshot.Range(c, &cp.savedPort, snapshot.In(0, s.deg+1, "saved crossbar port"))
	snapshot.Range(c, &cp.savedVC, snapshot.In(0, s.inVCCount(int(cp.savedPort)), "saved crossbar VC"))
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

// DecodeGrants sets every router's grant bits from its decoded input
// slots, each routed header at a buffer head holding its output VC's, and
// checks them (checkGrants): two headers on one VC, or a grant on a dead
// link or onto a downstream slot a packet owns, is refused. A snapshot
// decoder calls it once every router is decoded, since that slot can be a
// later router's and Commit would take it from its owner.
func (s *State) DecodeGrants() error {
	for n := range s.views {
		r := &s.views[n]
		for i := r.in0; i < r.in0+s.stride; i++ {
			if r.holdsGrant(i) {
				r.setGrant(int(s.inRoute[i]), int(s.inOutVC[i]), true)
			}
		}
	}
	for n := range s.views {
		if err := s.views[n].checkGrants(); err != nil {
			return err
		}
	}
	return nil
}
