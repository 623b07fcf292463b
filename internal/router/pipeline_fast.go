package router

// The optimized SoA scan phases. These are the default per-cycle entry
// points; each makes exactly the decisions of its *Ref twin in pipeline.go,
// in the same order, so the two paths stay byte-identical in effect (the
// differential conformance suite in internal/network enforces this every
// cycle). The speed comes from the flat layout: per-slot candidacy checks
// are single loads from contiguous int32/bool arrays (inLen, inRoute,
// inSent), the rotating flat index maps to (port, vc) with the O(1)
// portVCOf inverse instead of the O(ports) nthInputVC walk, and the slot
// total is the precomputed stride rather than a per-call summation.

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
	out = r.stageEjection(out)
	if r.st.cfg.Alloc == PacketByPacket {
		return r.stageSwitchPBP(out)
	}
	return r.stageSwitchFBF(out)
}

// stageEjection grants the reception channel(s): the Deadlock Buffers first
// (the recovery lane must always drain), then input VCs round-robin.
func (r *Router) stageEjection(out []Transfer) []Transfer {
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
	total := s.stride
	off := int(s.swArbOff[r.swIdx(s.deg)])
	granted := false
	for i := 0; i < total && budget > 0; i++ {
		l := off + i
		if l >= total {
			l -= total
		}
		g := r.in0 + l
		if int(s.inRoute[g]) != PortEject || s.in.n[g] == 0 || s.inSent[g] {
			continue
		}
		port, vc := r.portVCOf(l)
		out = append(out, Transfer{From: r, FromPort: port, FromVC: vc, Eject: true})
		s.inSent[g] = true
		budget--
		if !granted {
			s.swArbOff[r.swIdx(s.deg)] = int32((off + i + 1) % total)
			granted = true
		}
	}
	return out
}

// stageSwitchFBF implements flit-by-flit crossbar allocation: a greedy
// matching of input ports to output ports, one flit per port per cycle,
// with the Deadlock Buffer as an extra crossbar input that has priority on
// its output (so the recovery lane always progresses).
func (r *Router) stageSwitchFBF(out []Transfer) []Transfer {
	s := r.st
	var inputUsed [64]bool // deg+1 <= 64: network.New rejects degree > MaxDegree
	// Ejection grants above already consumed their input ports this cycle:
	// one linear sweep of the contiguous sent flags.
	for l := 0; l < s.stride; l++ {
		if s.inSent[r.in0+l] {
			p, _ := r.portVCOf(l)
			inputUsed[p] = true
		}
	}
	for q := 0; q < s.deg; q++ {
		if r.neighbors[q] == nil {
			continue
		}
		// Deadlock Buffer priority on its output.
		if r.stageDBOutput(q, &out) {
			continue
		}
		out = r.arbitrateInput(q, s.stride, &inputUsed, out)
	}
	return out
}

// arbitrateInput grants output port q to one sendable input VC this cycle,
// round-robin starting from the port's rotating offset. It is the per-flit
// output arbitration of the flit-by-flit policy and the lending fallback of
// the packet-by-packet policy.
func (r *Router) arbitrateInput(q, total int, inputUsed *[64]bool, out []Transfer) []Transfer {
	s := r.st
	off := int(s.swArbOff[r.swIdx(q)])
	for i := 0; i < total; i++ {
		l := off + i
		if l >= total {
			l -= total
		}
		g := r.in0 + l
		// Route mismatch is the overwhelmingly common case; test it on the
		// contiguous route array before deriving (port, vc).
		if int(s.inRoute[g]) != q || s.in.n[g] == 0 {
			continue
		}
		port, vc := r.portVCOf(l)
		if inputUsed[port] {
			continue
		}
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
		s.swArbOff[r.swIdx(q)] = int32((off + i + 1) % total)
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
