package router

import "math/bits"

// The optimized SoA scan phases. These are the default per-cycle entry
// points; each makes exactly the decisions of its *Ref twin in pipeline.go,
// in the same order, so the two paths stay byte-identical in effect (the
// differential conformance suite in internal/network enforces this every
// cycle). The speed comes from the flat layout: per-slot candidacy checks
// are single loads from contiguous int32/bool arrays (in.n, inRoute,
// inSent), the rotating flat index maps to (port, vc) with the O(1)
// portVCOf inverse instead of the O(ports) nthInputVC walk, and the slot
// total is the precomputed stride rather than a per-call summation. Switch
// allocation sweeps the slots once per router and cycle (indexCandidates)
// rather than once per output port: each output then walks only the slots
// routed to it, O(stride + candidates) where the reference is
// O(deg × stride).

// StageRouting performs routing computation and output VC allocation for
// every input VC whose head flit is an unrouted header. Grants take effect
// immediately in router-local state (output VC ownership), so later headers
// in the same cycle see them; the rotating start offset keeps this fair.
func (r *Router) StageRouting() {
	s := r.st
	total := s.stride
	off := int(s.vcArbOff[r.node])
	s.vcArbOff[r.node] = int32((off + 1) % total)
	for i := 0; i < total; i++ {
		l := off + i
		if l >= total {
			l -= total
		}
		g := r.in0 + l
		// Hot early-out on the contiguous arrays: most slots are empty or
		// already routed, and this rejects them without touching the ring.
		if s.in.n[g] == 0 || s.inRoute[g] != PortUnrouted {
			continue
		}
		r.routeSlot(g)
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
	routed := r.indexCandidates(&inputUsed)
	out = r.stageEjection(out, &inputUsed)
	if r.st.cfg.Alloc == PacketByPacket {
		return r.stageSwitchPBP(out, &inputUsed)
	}
	return r.stageSwitchFBF(out, &inputUsed, routed)
}

// indexCandidates is switch allocation's one sweep of the router's input
// slots. It marks in inputUsed every input port a flit already left this
// cycle, and links each slot that holds a flit with a granted route into
// that output's candidate list (State.candHead/candNext), in ascending slot
// order, so every per-output arbitration visits its own candidates only.
// The lists stay exact for the whole of StageSwitch: arbitration changes
// inSent, inputUsed and the rotating offsets, which the walks read live,
// but no slot's route or occupancy before Commit. Bit q of routed is set
// when output q < deg has a candidate.
func (r *Router) indexCandidates(inputUsed *[64]bool) (routed uint64) {
	s := r.st
	head := s.candHead
	for q := range head {
		head[q] = -1
	}
	for l := s.stride - 1; l >= 0; l-- {
		g := r.in0 + l
		if s.inSent[g] {
			p, _ := r.portVCOf(l)
			inputUsed[p] = true
		}
		q := int(s.inRoute[g])
		if s.in.n[g] == 0 || q == PortUnrouted {
			continue
		}
		if q == PortEject {
			q = s.deg
		} else {
			routed |= 1 << uint(q)
		}
		s.candNext[l] = head[q]
		head[q] = int32(l)
	}
	return routed
}

// firstCand starts output q's round-robin walk from offset off: the lowest
// listed slot at or after off, else (the wrap) the lowest listed slot; -1
// when q has no candidate. Visiting firstCand, then nextCand until -1, is
// the full-stride scan from off with every slot not on the list skipped.
func (s *State) firstCand(q, off int) int {
	l := s.candHead[q]
	for l >= 0 && int(l) < off {
		l = s.candNext[l]
	}
	if l < 0 {
		l = s.candHead[q]
	}
	return int(l)
}

// nextCand returns the slot after l on output q's walk that started at
// first, wrapping from the list's end to its head; -1 once back at first.
func (s *State) nextCand(q, l, first int) int {
	n := s.candNext[l]
	if n < 0 {
		n = s.candHead[q]
	}
	if int(n) == first {
		return -1
	}
	return int(n)
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
	first := s.firstCand(q, int(s.swArbOff[r.swIdx(q)]))
	for l := first; l >= 0 && budget > 0; l = s.nextCand(q, l, first) {
		g := r.in0 + l
		if s.inSent[g] {
			continue
		}
		port, vc := r.portVCOf(l)
		out = append(out, Transfer{From: r, FromPort: port, FromVC: vc, Eject: true})
		s.inSent[g] = true
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
	// the reference's scan of every output.
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
// round-robin over q's candidate list starting from the port's rotating
// offset. It is the per-flit output arbitration of the flit-by-flit policy
// and the lending fallback of the packet-by-packet policy.
func (r *Router) arbitrateInput(q int, inputUsed *[64]bool, out []Transfer) []Transfer {
	s := r.st
	first := s.firstCand(q, int(s.swArbOff[r.swIdx(q)]))
	for l := first; l >= 0; l = s.nextCand(q, l, first) {
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
		s.inSent[g] = true
		s.swArbOff[r.swIdx(q)] = int32((l + 1) % s.stride)
		break
	}
	return out
}

// TickTimers advances T_elapsed for blocked headers (paper Section 3.1) and
// clears the per-cycle sent markers. It returns the number of headers that
// newly crossed T_out this cycle; each newly presumed packet is buffered for
// the observer installed with SetOnTimeout (tracing, flight recorder), which
// runs when the caller invokes FlushTimeouts — deferred so that TickTimers
// touches only router-local state. As a side effect it refreshes the
// router's telemetry instrumentation (BlockedHeaders, PresumedHeaders,
// per-VC blocked-cycle counters) — the loop already touches every input VC,
// so the extra cost is a few adds.
func (r *Router) TickTimers() int {
	s := r.st
	newly := 0
	blocked, presumed := 0, 0
	tout := r.tickDecay()
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		// Idle slots (empty, nothing sent, timer already clear) are the
		// common case at every load; reject them with contiguous loads
		// before paying for the (port, vc) split and the full slot tick.
		if !s.inSent[i] && s.in.n[i] == 0 && s.inWaiting[i] == 0 && !s.inPresumed[i] {
			continue
		}
		p, v := r.portVCOf(l)
		newly += r.tickSlot(i, p, v, tout, &blocked, &presumed)
	}
	s.lastBlocked[r.node] = int32(blocked)
	s.lastPresumed[r.node] = int32(presumed)
	return newly
}
