package router

import "math/bits"

// The per-router scan phases of a cycle: route compute (StageRouting),
// switch allocation (StageSwitch) and the deadlock timers (TickTimers).
// Each walks, a word at a time, exactly the input slots that can act in it,
// read from the per-router slot masks (see the layout notes on State):
// route compute the headers at a ring head, switch allocation the occupied
// routed slots, the timers the timing slots and the headers at a ring head.
// A router therefore costs O(w + acting slots) rather than O(stride). A
// rotating walk (rotFirst/rotNext) is a round-robin scan of every slot from
// the phase's offset with the slots outside the mask skipped, and slotPV
// maps a slot back to its (port, vc). Switch allocation sorts the routed
// slots into per-output masks once per router and cycle (indexOutputs);
// each output then walks only its own.
//
// What holds these scans to their meaning is in internal/network's tests:
// CheckState verifies every mask bit against the arrays it summarizes, the
// golden digests pin whole runs, and the small-instance explorer runs every
// initial load of three 4-node networks with the invariants checked in
// every state.

// StageRouting performs routing computation and output VC allocation for
// every input VC whose head flit is an unrouted header. Grants take effect
// immediately in router-local state (output VC ownership), so later headers
// in the same cycle see them; the rotating start offset keeps this fair.
// It walks mHdr from the offset, (now-1) mod stride in cycle now: the
// rotating order over every slot, restricted to the only slots routeSlot can
// act on; routeSlot changes no slot's mHdr bit.
func (r *Router) StageRouting() {
	s := r.st
	off := s.vcArbOffset(s.clock.Now() - 1)
	hdr := r.maskOf(mHdr)
	for l := rotFirst(hdr, off); l >= 0; l = rotNext(hdr, l, off) {
		if i := r.in0 + l; s.inRoute[i] == PortUnrouted {
			r.routeSlot(i)
		}
	}
}

// StageSwitch arbitrates the crossbar and reception channels for this cycle
// and appends the staged flit movements to out. Decisions use
// start-of-cycle buffer/credit state; Commit applies them afterwards.
//
// StageSwitch mutates only this router's state and reads neighbors' Deadlock
// Buffer state, which is start-of-cycle stable: staging reads only
// start-of-cycle state. Deadlock-Buffer-bound transfers are staged
// optimistically; the caller must run ResolveDB over all staged transfers
// (in fixed router order) to settle the write port before committing them.
func (r *Router) StageSwitch(out []Transfer) []Transfer {
	var inputUsed [64]bool // deg+1 <= 64: network.New rejects degree > MaxDegree
	routed := r.indexOutputs(&inputUsed)
	out = r.stageEjection(out, &inputUsed)
	if r.st.cfg.Alloc == PacketByPacket {
		return r.stageSwitchPBP(out, &inputUsed)
	}
	return r.stageSwitchFBF(out, &inputUsed, routed)
}

// indexOutputs is switch allocation's one pass over the router's slot
// masks. It marks in inputUsed every input port a flit already left this
// cycle (mSent) and sorts the occupied routed slots (mOcc ∧ ¬mUnr) into
// per-output masks (State.outMask), so every per-output arbitration walks
// its own candidates only. The masks stay exact for the whole of
// StageSwitch: arbitration changes mSent, inputUsed and the rotating
// offsets, which the walks read live, but no slot's route or occupancy
// before Commit. Bit q of routed is set when output q < deg has a candidate.
func (r *Router) indexOutputs(inputUsed *[64]bool) (routed uint64) {
	s := r.st
	w := s.w
	clear(s.outMask)
	occ, unr, sent := r.maskOf(mOcc), r.maskOf(mUnr), r.maskOf(mSent)
	for j := 0; j < w; j++ {
		for word := sent[j]; word != 0; word &= word - 1 {
			inputUsed[s.slotPV[j<<6+bits.TrailingZeros64(word)].port] = true
		}
		for word := occ[j] &^ unr[j]; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			q := int(s.inRoute[r.in0+j<<6+b])
			if q == PortEject {
				q = s.deg
			} else {
				routed |= 1 << uint(q)
			}
			s.outMask[q*w+j] |= 1 << uint(b)
		}
	}
	return routed
}

// outputMask returns output q's candidate mask (q == deg: the reception
// channel), as indexOutputs left it.
func (s *State) outputMask(q int) []uint64 {
	b := q * s.w
	return s.outMask[b : b+s.w : b+s.w]
}

// stageEjection grants the reception channel(s): the Deadlock Buffers first
// (the recovery lane must always drain), then input VCs round-robin.
func (r *Router) stageEjection(out []Transfer, inputUsed *[64]bool) []Transfer {
	s := r.st
	budget := s.cfg.ReceptionChannels
	if budget == 0 {
		return out
	}
	for lane := 0; lane < s.lanes; lane++ {
		if budget == 0 {
			break
		}
		i := r.dbIdx(lane)
		if s.db.n[i] != 0 && int(s.dbRoute[i]) == PortEject {
			out = append(out, Transfer{From: r, FromDB: true, FromDBLane: lane, Eject: true})
			budget--
		}
	}
	q := s.deg
	granted := false
	m, off := s.outputMask(q), int(s.swArbOff[r.swIdx(q)])
	for l := rotFirst(m, off); l >= 0 && budget > 0; l = rotNext(m, l, off) {
		g := r.in0 + l
		if r.hasMask(mSent, g) {
			continue
		}
		port, vc := r.portVCOf(l)
		out = append(out, Transfer{From: r, FromPort: port, FromVC: vc, Eject: true})
		r.setMask(mSent, g, true)
		inputUsed[port] = true
		budget--
		if !granted {
			s.swArbOff[r.swIdx(q)] = int32((l + 1) % s.stride)
			granted = true
		}
	}
	return out
}

// stageSwitchFBF implements flit-by-flit crossbar allocation: a greedy
// matching of input ports to output ports, one flit per port per cycle,
// with the Deadlock Buffer as an extra crossbar input that has priority on
// its output (so the recovery lane always progresses).
func (r *Router) stageSwitchFBF(out []Transfer, inputUsed *[64]bool, routed uint64) []Transfer {
	s := r.st
	// Only outputs with a candidate or a Deadlock Buffer flit routed to them
	// have anything to grant; visiting just those, in ascending order, is
	// a scan of every output.
	for lane := 0; lane < s.lanes; lane++ {
		if i := r.dbIdx(lane); s.db.n[i] != 0 && s.dbRoute[i] >= 0 {
			routed |= 1 << uint(s.dbRoute[i])
		}
	}
	for ; routed != 0; routed &= routed - 1 {
		q := bits.TrailingZeros64(routed)
		if r.neighbors[q] == nil {
			continue
		}
		// Deadlock Buffer priority on its output.
		if r.stageDBOutput(q, &out) {
			continue
		}
		out = r.arbitrateInput(q, inputUsed, out)
	}
	return out
}

// arbitrateInput grants output port q to one sendable input VC this cycle,
// round-robin over q's candidate mask starting from the port's rotating
// offset. It is the per-flit output arbitration of the flit-by-flit policy
// and the lending fallback of the packet-by-packet policy.
func (r *Router) arbitrateInput(q int, inputUsed *[64]bool, out []Transfer) []Transfer {
	s := r.st
	m, off := s.outputMask(q), int(s.swArbOff[r.swIdx(q)])
	for l := rotFirst(m, off); l >= 0; l = rotNext(m, l, off) {
		port, vc := r.portVCOf(l)
		if inputUsed[port] {
			continue
		}
		g := r.in0 + l
		if int(s.inOutVC[g]) == VCDeadlockBuffer {
			if !dbStageable(r.neighbors[q], int(s.inDBLane[g]), s.inPkt[g]) {
				continue
			}
			out = append(out, Transfer{From: r, FromPort: port, FromVC: vc,
				To: r.neighbors[q], OutPort: q, ToDB: true, ToDBLane: int(s.inDBLane[g])})
		} else {
			if s.outCredits[r.outIdx(q, int(s.inOutVC[g]))] <= 0 {
				continue
			}
			out = append(out, Transfer{From: r, FromPort: port, FromVC: vc, To: r.neighbors[q], OutPort: q, ToVC: int(s.inOutVC[g])})
		}
		inputUsed[port] = true
		r.setMask(mSent, g, true)
		s.swArbOff[r.swIdx(q)] = int32((l + 1) % s.stride)
		break
	}
	return out
}

// TickTimers advances T_elapsed for blocked headers (paper Section 3.1) and
// clears the per-cycle sent markers. It returns the number of headers that
// newly crossed T_out this cycle, and reports each newly presumed packet to
// the observer installed with SetOnTimeout (tracing, flight recorder) as it
// presumes it, in slot order. As a side effect it refreshes the
// router's telemetry instrumentation (BlockedHeaders, PresumedHeaders,
// per-VC blocked-cycle counters) — the loop already touches every input VC
// that can block, so the extra cost is a few adds — and stamps the pass's
// cycle (tickedAt), as of which the gauges and the stored effective T_out
// hold. Under AdaptiveTimeout the pass runs at the T_out in force before
// this cycle's decay, if the cycle is a multiple of 256.
//
// It ticks mTim ∨ mHdr, in ascending slot order: a slot with its timer
// clear and no header at its ring head cannot start timing, and tickSlot
// on it only clears the sent marker, which zeroing mSent afterwards does for
// all of them at once.
func (r *Router) TickTimers() int {
	s := r.st
	newly := 0
	blocked, presumed := 0, 0
	now, tout := s.clock.Now(), s.cfg.Timeout
	if s.cfg.AdaptiveTimeout {
		tout = r.effTimeoutAt(now - 1)
		s.effTout[r.node] = r.effTimeoutAt(now)
	}
	s.tickedAt[r.node] = now
	tim, hdr, sent := r.maskOf(mTim), r.maskOf(mHdr), r.maskOf(mSent)
	for j := range tim {
		for word := tim[j] | hdr[j]; word != 0; word &= word - 1 {
			l := j<<6 + bits.TrailingZeros64(word)
			p, v := r.portVCOf(l)
			newly += r.tickSlot(r.in0+l, p, v, tout, &blocked, &presumed)
		}
		sent[j] = 0
	}
	s.lastBlocked[r.node] = int32(blocked)
	s.lastPresumed[r.node] = int32(presumed)
	return newly
}
