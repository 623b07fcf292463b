package router

// stageSwitchPBP implements packet-by-packet crossbar allocation (paper
// Section 3.3): a crossbar connection is established when a packet wins an
// output port and held until its tail passes; neither input nor output ports
// are multiplexed among packets. Deadlock-recovery traffic — flits leaving
// the central Deadlock Buffer, or flits of a freshly recovered packet still
// in an edge buffer that must depart with the status line asserted — preempts
// a held output; the displaced input is remembered in the output's
// reconfiguration buffer and reconnected once the recovery packet has
// cleared. Without preemption at both places the recovery lane itself could
// wedge behind a blocked edge packet, exactly the hazard the paper's
// reconfiguration buffer exists to avoid.
//
// The reception path is modeled separately from the crossbar (stageEjection
// runs first in StageSwitch), matching routers whose delivery ports bypass
// the switch. Connection state lives in the shared SoA crossbar arrays
// (cxInPort and friends). Its three per-output searches (connection
// establishment, the lending fallback arbitrateInput and recoveredInputFor)
// walk the per-output masks indexOutputs built; inputUsed arrives holding
// the input ports the ejection grants consumed.
func (r *Router) stageSwitchPBP(out []Transfer, inputUsed *[64]bool) []Transfer {
	s := r.st
	deg := s.deg

	// inputConn[p] counts how many outputs input port p is wired to, and
	// inputPkt[p] is the packet those connections belong to. Input ports
	// are not multiplexed among packets under this policy, but one packet
	// may hold several connections from the same input port: a misrouted
	// wormhole that crosses this router twice enters both times through
	// the same physical channel, and refusing its second connection would
	// deadlock the packet on itself (the upstream segment waiting for a
	// crossbar input that only its own downstream segment can release —
	// a body-flit deadlock the timeout detector, which watches headers,
	// can never recover).
	var inputConn [64]int8
	var inputPkt [64]int32 // handles
	for q := 0; q < deg; q++ {
		c := r.cxIdx(q)
		if s.cxInPort[c] != connNone {
			p := int(s.cxInPort[c])
			inputConn[p]++
			inputPkt[p] = s.in.owner[r.inIdx(p, int(s.cxInVC[c]))]
		}
	}

	unwire := func(p int) {
		inputConn[p]--
		if inputConn[p] == 0 {
			inputPkt[p] = 0
		}
	}
	wire := func(p, v int) {
		inputConn[p]++
		inputPkt[p] = s.in.owner[r.inIdx(p, v)]
	}
	release := func(q int) {
		c := r.cxIdx(q)
		if s.cxInPort[c] != connNone {
			unwire(int(s.cxInPort[c]))
		}
		s.cxInPort[c], s.cxInVC[c] = connNone, 0
		s.cxDB[c] = false
		r.restoreConn(q)
		if s.cxInPort[c] != connNone {
			wire(int(s.cxInPort[c]), int(s.cxInVC[c]))
		}
	}
	preempt := func(q int) {
		c := r.cxIdx(q)
		if s.cxInPort[c] == connNone {
			return
		}
		s.cxSaved[c], s.cxSavedPort[c], s.cxSavedVC[c] = true, s.cxInPort[c], s.cxInVC[c]
		unwire(int(s.cxInPort[c]))
		s.cxInPort[c], s.cxInVC[c] = connNone, 0
		r.stats.Preemptions++
	}

	for q := 0; q < deg; q++ {
		nb := r.Neighbor(q)
		if nb == nil {
			continue
		}
		c := r.cxIdx(q)
		db0 := r.db0 // lane 0; the PBP policy runs with sequential recovery

		dbUnitWants := s.lanes > 0 && s.db.owner[db0] != 0 && int(s.dbRoute[db0]) == q

		// Release a finished DB-unit connection.
		if s.cxDB[c] && !dbUnitWants {
			release(q)
		}

		// The central Deadlock Buffer preempts any edge connection.
		if dbUnitWants {
			if !s.cxDB[c] {
				preempt(q)
				s.cxDB[c] = true
			}
			if s.db.n[db0] != 0 && dbStageable(nb, 0, s.db.owner[db0]) {
				out = append(out, Transfer{From: r, FromDB: true, To: nb, OutPort: q, ToDB: true})
				continue
			}
			// The DB unit is stalled (downstream DB busy). Flits that the
			// DB chain transitively waits on — an earlier recovered
			// packet's edge flits, or their upstream wormhole path — may
			// need this very port, so lend the idle slot (the paper's
			// Assumption 1: internal flow control guarantees forward
			// progress of buffers the recovery lane depends on).
			out = r.arbitrateInput(q, inputUsed, out)
			continue
		}

		// A recovered packet in an edge buffer (status line asserted)
		// preempts as well: its flits must reach the neighbor's DB.
		if rp, rv, ok := r.recoveredInputFor(q); ok && !(int(s.cxInPort[c]) == rp && int(s.cxInVC[c]) == rv) {
			preempt(q)
			s.cxInPort[c], s.cxInVC[c] = int8(rp), int8(rv)
			wire(rp, rv)
		}

		// Drop stale connections (packet drained or redirected by recovery
		// through a different port) and reconnect any suspended input.
		if s.cxInPort[c] != connNone {
			g := r.inIdx(int(s.cxInPort[c]), int(s.cxInVC[c]))
			if s.in.owner[g] == 0 || int(s.inRoute[g]) != q {
				release(q)
			}
		}

		// Establish a connection for a packet that routes to this output.
		// Mid-packet establishment is allowed: it is how a connection
		// dropped from the reconfiguration buffer heals.
		if s.cxInPort[c] == connNone {
			m, off := s.outputMask(q), int(s.swArbOff[r.swIdx(q)])
			for l := rotFirst(m, off); l >= 0; l = rotNext(m, l, off) {
				g := r.in0 + l
				port, vc := r.portVCOf(l)
				if inputUsed[port] {
					continue
				}
				// A wired input port accepts further connections only for
				// the packet already holding it (see inputConn above).
				if inputConn[port] > 0 && inputPkt[port] != s.in.owner[g] {
					continue
				}
				s.cxInPort[c], s.cxInVC[c] = int8(port), int8(vc)
				wire(port, vc)
				s.swArbOff[r.swIdx(q)] = int16((l + 1) % s.stride)
				break
			}
		}
		if s.cxInPort[c] == connNone {
			continue
		}

		// Send the connected packet's next flit. When the holder is stalled
		// (empty buffer, no credits, downstream DB busy), lend the slot to
		// any sendable traffic: a stalled connection must not starve flits
		// the recovery lane transitively depends on (Assumption 1 again).
		inPort, inVC := int(s.cxInPort[c]), int(s.cxInVC[c])
		g := r.inIdx(inPort, inVC)
		staged := false
		if s.in.n[g] != 0 && !inputUsed[inPort] {
			var tr Transfer
			if int(s.inOutVC[g]) == VCDeadlockBuffer {
				if dbStageable(nb, int(s.inDBLane[g]), s.in.owner[g]) {
					tr = Transfer{From: r, FromPort: inPort, FromVC: inVC, To: nb, OutPort: q, ToDB: true, ToDBLane: int(s.inDBLane[g])}
					staged = true
				}
			} else if int(s.in.n[r.downIdx(q, int(s.inOutVC[g]))]) < s.cfg.BufferDepth {
				tr = Transfer{From: r, FromPort: inPort, FromVC: inVC, To: nb, OutPort: q, ToVC: int(s.inOutVC[g])}
				staged = true
			}
			if staged {
				fl := s.in.peek(g)
				out = append(out, tr)
				inputUsed[inPort] = true
				r.setMask(mSent, g, true)
				if fl.IsTail() {
					// Tail passes: tear down and reconnect any suspended
					// input from the reconfiguration buffer.
					release(q)
				}
			}
		}
		if !staged {
			out = r.arbitrateInput(q, inputUsed, out)
		}
	}
	r.syncCrossbar()
	return out
}

// recoveredInputFor returns the lowest input VC holding flits of a
// recovered packet that must leave through output q onto the neighbor's
// Deadlock Buffer: the lowest such slot in q's candidate mask.
func (r *Router) recoveredInputFor(q int) (port, vc int, ok bool) {
	s := r.st
	m := s.outputMask(q)
	for l := nextSet(m, 0); l >= 0; l = nextSet(m, l+1) {
		i := r.in0 + l
		if s.in.owner[i] != 0 && int(s.inOutVC[i]) == VCDeadlockBuffer {
			p, v := r.portVCOf(l)
			return p, v, true
		}
	}
	return 0, 0, false
}

// restoreConn reloads output q's connection from its reconfiguration buffer
// if the suspended input still routes to q (it cannot have advanced while
// disconnected, but recovery may have redirected it to the DB lane).
func (r *Router) restoreConn(q int) {
	s := r.st
	c := r.cxIdx(q)
	if !s.cxSaved[c] {
		return
	}
	s.cxSaved[c] = false
	g := r.inIdx(int(s.cxSavedPort[c]), int(s.cxSavedVC[c]))
	if s.in.owner[g] != 0 && int(s.inRoute[g]) == q {
		s.cxInPort[c], s.cxInVC[c] = s.cxSavedPort[c], s.cxSavedVC[c]
	}
}

// Connection reports packet-by-packet crossbar state for output q: the
// connected input VC (or db), plus any suspended input held in the
// reconfiguration buffer. Intended for tests and tracing.
func (r *Router) Connection(q int) (inPort, inVC int, db bool, savedPort, savedVC int, saved bool) {
	s := r.st
	c := r.cxIdx(q)
	savedPort, savedVC = int(s.cxSavedPort[c]), int(s.cxSavedVC[c])
	if !s.cxSaved[c] {
		savedPort, savedVC = connNone, 0
	}
	return int(s.cxInPort[c]), int(s.cxInVC[c]), s.cxDB[c], savedPort, savedVC, s.cxSaved[c]
}
