package router

import (
	"fmt"
	"math/bits"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// State is everything the routers of one network share: the network-wide
// facts — topology, router configuration, the installed routing and
// selection functions, the Deadlock Buffer lanes' row builder, its row
// memo and labels, the timeout observer, the network's clock — each stored
// once, every router's view (views), the table of the packets its slots
// hold, and the hot per-cycle microarchitectural state of every router as
// flat struct-of-arrays buffers indexed by (router, port, vc). A Router is an
// element of views over its slice of the buffers, so route compute, switch
// allocation and the deadlock-timer phase sweep contiguous memory, and a
// network-wide change (SetLaneRows) is one assignment. Routers are laid out
// consecutively.
//
// Layout (every per-slot, per-port and per-router slice is allocated once,
// at NewState, and never grows; TestStateHoldsNoPointers holds each of them
// pointer-free, so the collector never scans them). Each per-slot field is
// stored in the narrowest type its validated range allows (Config.Normalize
// and network.New hold the bounds: degree ≤ MaxDegree, VCs ≤ MaxVCs, depth
// ≤ MaxBufferDepth), because memory grows with routers × radix × VCs; every
// reader widens to int. On 64-bit and 32-bit alike, an input slot costs 12
// bytes at any buffer depth and maskKinds mask bits, an output slot no bytes
// and one grant bit, and a port 5 bytes of wiring plus 6 of crossbar state
// under packet-by-packet allocation, none under flit-by-flit
// (TestSlotBytes pins them):
//
//	input VCs    stride = deg*VCs + 1 slots per router, port-major:
//	             slot l = p*VCs + v for network port p < deg, l = deg*VCs
//	             for the injection port's one VC. Global index of
//	             router r's slot l is r*stride + l. Per-slot fields live in
//	             parallel arrays (inRoute, inOutVC, inDBLane); the buffer
//	             set in holds each slot's owner, as a handle into the
//	             packet table, and its flits, stored as the head flit's
//	             position and a count (up to BufferDepth), not flit by
//	             flit. A slot's T_elapsed is its owner's Waiting while the
//	             slot's head is the owner's header, else 0 (waiting): a
//	             header waits in one slot at a time. slotPV maps a
//	             router-local slot back to its (port, vc).
//	slot masks   maskKinds masks of w = ⌈stride/64⌉ words per router, one
//	             contiguous block of maskKinds*w words per router (mask):
//	             bit l of mask k is router-local slot l. mOcc (flits
//	             buffered), mHdr (a header at the buffer head), mUnr (inRoute
//	             is PortUnrouted) and mTim (T_elapsed != 0 or mPre) are
//	             exact functions of the arrays between cycles, kept so by
//	             their only writers (pushIn/popIn, setRoute, clearTimer and
//	             tickSlot) and derived, not coded, when a snapshot is
//	             decoded; mSent (a flit left this cycle) and mPre (the
//	             header is presumed deadlocked) are the flags themselves.
//	             Bits past stride are always zero. Route compute walks mHdr,
//	             switch allocation mOcc ∧ ¬mUnr, the timers mTim ∨ mHdr and
//	             the presumed-slot readers mPre, so a router costs each sweep
//	             O(w + slots that can act), not O(stride).
//	output VCs   deg*VCs slots per router, stored as gw = ⌈deg*VCs/64⌉
//	             grant words per router (grant): bit q*VCs+v is set while
//	             a header at this router holds output VC (q, v) and has
//	             not crossed. Everything else about an output VC is the
//	             input slot it feeds (downIdx): credit flow control
//	             reallocates a VC only once that slot has drained, so
//	             its credits are depth less the slot's count, and once
//	             the header has crossed its owner is the slot's owner
//	             until the tail enters the slot (OutputOwner, Credits).
//	DB lanes     lanes slots per router (dbRoute, and dbWriteAt, the
//	             single write port's last-admission cycle) with the
//	             one-flit buffer set db: one lane with Timeout > 0, two
//	             under concurrent recovery, none with Timeout == 0.
//	ports        deg per router: the wiring (nbr, the router a port's
//	             link reaches, and rev, the input port there it lands on;
//	             -1 where there is no link or no paired reverse port), and
//	             under packet-by-packet allocation only, the crossbar
//	             connections (cxInPort, cxInVC, cxDB, cxSaved, cxSavedPort,
//	             cxSavedVC; nil under flit-by-flit, which never connects).
//	per router   swArbOff (deg+1 per router), flitCount, cxHeld, the timer
//	             pass's lastBlocked, lastPresumed and tickedAt (see
//	             activity.go: the VC arbitration offset is a function of the
//	             clock, not stored), and blockedByVC (VCs per router).
//	scratch      outMask ((deg+1)*w words, one router's per-output masks in
//	             StageSwitch) and cands (outStr, one header's candidates).
//
// The packet table (pk) gives every packet that owns an input slot or a
// Deadlock Buffer lane a handle, from when it first owns one until it owns
// none; a freed handle is reused, so the table grows only to the most
// packets that have owned slots at once. Handles are private: snapshots, digests
// and introspection name packets, never handles, so the order handles are
// taken in moves no byte.
//
// Aliasing contract: a Router view may only write slots inside its own base
// ranges, except through another Router's methods (transfer commit writes
// the receiving router's buffers via the receiver view). It reads one
// range of another router's: the input slots its output VCs feed, whose
// owners and counts are its outputs' owners and credits; the stage phases
// read them before any commit of the cycle writes them. A header's owner's
// Waiting is written by the one router whose slot head holds that header
// (tickSlot, clearTimer), and reset by the commit or injection that brings
// the header into a slot. The layout is a private representation: digests
// and snapshots (WalkState) and all introspection walk the
// logical (port, vc) order, so they are layout-invariant by construction.
type State struct {
	topo topology.Graph
	// ctopo is the coordinate view of topo when it has one (k-ary n-cubes),
	// nil otherwise. Dateline tracking, dimension-reversal accounting and
	// the dimension-order Deadlock Buffer lane are gated on it.
	ctopo topology.Topology
	cfg   Config
	alg   routing.Algorithm
	sel   routing.Selection

	// laneRow, when set, routes the Deadlock Buffer lanes by next-hop rows
	// instead of dimension order (see SetLaneRows); laneRows memoises them,
	// laneRows[dst] nil until a Deadlock Buffer hop toward dst needs it.
	// laneLabel orders two lanes (nil with one): a hop to a lower label
	// enters lane 1.
	laneRow   func(dst topology.Node, row []int16)
	laneRows  [][]int16
	laneLabel []int32
	// onTimeout, when set via SetOnTimeout, observes every newly presumed
	// header, called by TickTimers where it presumes it.
	onTimeout func(topology.Node, *packet.Packet)
	// clock is the network's one clock: the phases and the readers of the
	// clock-derived state (activity.go) take the current cycle from it.
	clock *sim.Clock

	nodes  int
	deg    int
	lanes  int // Deadlock Buffer lanes per router (0, 1 or 2)
	stride int // input VC slots per router: deg*VCs + 1
	outStr int // output VC slots per router: deg*VCs
	w      int // words per slot mask: ⌈stride/64⌉
	gw     int // words per grant mask: ⌈outStr/64⌉

	// views holds every router, by node (NewWithState fills it).
	views []Router
	// pk is the packet table the slots' owner handles index.
	pk pktTable

	// Input VC state, nodes*stride slots.
	inRoute  []int8   // granted output port, PortEject or PortUnrouted (write via setRoute)
	inOutVC  []int8   // granted output VC, VCDeadlockBuffer or VCUnrouted
	inDBLane []int8   // lane the hop enters when inOutVC == VCDeadlockBuffer
	in       flitRun  // owners and flits; push and pop through pushIn/popIn
	slotPV   []portVC // router-local slot -> (port, vc), stride entries

	// Per-router input-slot masks, nodes*maskKinds*w words (see the layout
	// notes above).
	mask []uint64

	// Output VC grants, nodes*gw words (write via setGrant).
	grant []uint64

	// Deadlock Buffer lanes, nodes*lanes slots. Each DB is a central queue
	// with a single write port (as in the Chaos router the paper cites):
	// dbWriteAt is the cycle of the lane's last admission, so at most one
	// flit per cycle enters it (see ResolveDB).
	dbRoute   []int8
	dbWriteAt []sim.Cycle
	db        flitRun

	// The wiring, nodes*deg ports (write via Connect and Disconnect).
	nbr []int32 // the node port p's link reaches, -1 where it is down or absent
	rev []int8  // topo.ReversePortAt: the input port there, -1 where unpaired

	// Packet-by-packet crossbar connections, nodes*deg ports; nil under
	// flit-by-flit allocation.
	cxInPort    []int8
	cxInVC      []int8
	cxDB        []bool
	cxSaved     []bool
	cxSavedPort []int8
	cxSavedVC   []int8

	// Per-router scalars, nodes slots (swArbOff: nodes*(deg+1)).
	swArbOff     []int16 // < stride ≤ MaxDegree*MaxVCs + 1
	flitCount    []int32
	cxHeld       []uint8 // held, saved and DB crossbar connections (CrossbarIdle)
	lastBlocked  []int32
	lastPresumed []int32
	tickedAt     []sim.Cycle // the cycle of the router's last TickTimers
	// blockedByVC is telemetry, maintained by TickTimers (which already
	// visits every input VC that can block): cumulative blocked cycles,
	// nodes*VCs entries keyed by router and VC index.
	blockedByVC []int64

	// Switch-allocation scratch, rebuilt by indexOutputs at the start of
	// every StageSwitch and dead after it; staging is serial, so one serves
	// every router. Words [q*w, (q+1)*w) hold the router-local input slots
	// with a flit routed to output q (q == deg: the reception channel).
	outMask []uint64
	cands   []routing.Candidate // route-compute scratch, likewise serial
}

// The per-router input-slot masks, in block order.
const (
	mOcc      = iota // the slot buffers flits
	mHdr             // the buffer head is a header
	mUnr             // inRoute is PortUnrouted
	mTim             // the deadlock timer runs or the header is presumed
	mSent            // a flit left the slot this cycle
	mPre             // the header at the buffer head is presumed deadlocked
	maskKinds        // masks per router
)

// maskNames names the masks for CheckState.
var maskNames = [maskKinds]string{"occupied", "header-at-head", "unrouted", "timing", "sent", "presumed"}

// portVC is an input slot's (port, vc).
type portVC struct{ port, vc int32 }

// NewState builds the shared state for every router of a network on topo:
// cfg (already normalized), the routing and selection functions all routers
// run, the clock the network advances, and the struct-of-arrays buffers. The
// network constructs one State and a NewWithState view per node, and wires
// the views with Connect.
func NewState(topo topology.Graph, cfg Config, alg routing.Algorithm, sel routing.Selection, clock *sim.Clock) *State {
	nodes, deg := topo.Nodes(), topo.Degree()
	lanes := 0
	if cfg.Timeout > 0 {
		lanes = 1
		if cfg.Recovery == RecoveryConcurrent {
			lanes = 2
		}
	}
	ctopo, _ := topology.Coordinated(topo)
	s := &State{
		topo:   topo,
		ctopo:  ctopo,
		cfg:    cfg,
		alg:    alg,
		sel:    sel,
		clock:  clock,
		nodes:  nodes,
		deg:    deg,
		lanes:  lanes,
		stride: deg*cfg.VCs + 1,
		outStr: deg * cfg.VCs,
	}
	s.w = (s.stride + 63) / 64
	in := nodes * s.stride
	s.inRoute = make([]int8, in)
	s.inOutVC = make([]int8, in)
	s.inDBLane = make([]int8, in)
	s.in = newFlitRun(in, cfg.BufferDepth, &s.pk)
	for i := range s.inRoute {
		s.inRoute[i] = PortUnrouted
		s.inOutVC[i] = VCUnrouted
	}
	s.slotPV = make([]portVC, 0, s.stride)
	for p := 0; p <= deg; p++ {
		for v := 0; v < s.inVCCount(p); v++ {
			s.slotPV = append(s.slotPV, portVC{int32(p), int32(v)})
		}
	}
	// Every slot starts unrouted: set mUnr's stride bits in every block.
	s.mask = make([]uint64, nodes*maskKinds*s.w)
	for r := 0; r < nodes; r++ {
		unr := s.mask[(r*maskKinds+mUnr)*s.w:]
		for l := 0; l < s.stride; l++ {
			unr[l>>6] |= 1 << (uint(l) & 63)
		}
	}
	s.gw = (s.outStr + 63) / 64
	s.grant = make([]uint64, nodes*s.gw)
	db := nodes * lanes
	s.dbRoute = make([]int8, db)
	s.dbWriteAt = make([]sim.Cycle, db)
	s.db = newFlitRun(db, 1, &s.pk)
	for i := range s.dbRoute {
		s.dbRoute[i] = PortUnrouted
		s.dbWriteAt[i] = -1
	}
	ports := nodes * deg
	s.nbr = make([]int32, ports)
	s.rev = make([]int8, ports)
	for i := range s.nbr {
		s.nbr[i], s.rev[i] = -1, -1
		if q, ok := topo.ReversePortAt(topology.Node(i/deg), i%deg); ok {
			s.rev[i] = int8(q)
		}
	}
	if cfg.Alloc == PacketByPacket {
		s.cxInPort = make([]int8, ports)
		s.cxInVC = make([]int8, ports)
		s.cxDB = make([]bool, ports)
		s.cxSaved = make([]bool, ports)
		s.cxSavedPort = make([]int8, ports)
		s.cxSavedVC = make([]int8, ports)
		for i := range s.cxInPort {
			s.cxInPort[i] = connNone
		}
	}
	s.swArbOff = make([]int16, nodes*(deg+1))
	s.flitCount = make([]int32, nodes)
	s.cxHeld = make([]uint8, nodes)
	s.lastBlocked = make([]int32, nodes)
	s.lastPresumed = make([]int32, nodes)
	s.tickedAt = make([]sim.Cycle, nodes)
	s.blockedByVC = make([]int64, nodes*cfg.VCs)
	s.views = make([]Router, nodes)
	s.pk.pkts = []*packet.Packet{nil} // handle 0 is no owner
	s.outMask = make([]uint64, (deg+1)*s.w)
	s.cands = make([]routing.Candidate, 0, s.outStr)
	return s
}

// SetLaneRows routes the Deadlock Buffer lanes by next-hop rows in place of
// dimension order and empties the row memo. build fills row with the output
// port toward dst of each lane at each node, -1 at dst, and label orders two
// lanes (core.LaneRows' shape); a row is built on the first hop that needs
// it and kept until the next call.
func (s *State) SetLaneRows(label []int32, build func(dst topology.Node, row []int16)) {
	s.laneLabel, s.laneRow = label, build
	clear(s.laneRows)
}

// Wiring returns the network's wiring tables, nodes*deg ports in router
// order: nbr[v*deg+p] is the node port p of v reaches (-1 where its link is
// down or absent) and rev the input port there its link lands on (-1 where
// unpaired). core.LaneRows reads them; callers must not write them.
func (s *State) Wiring() (nbr []int32, rev []int8) { return s.nbr, s.rev }

// BuildLaneRow fills row with the installed lane's next hops toward dst
// without memoising it, for tests that compare rows against an oracle.
func (s *State) BuildLaneRow(dst topology.Node, row []int16) { s.laneRow(dst, row) }

// LaneRows returns the row memo by destination (nil entries: not built
// yet). Callers must not write into it.
func (s *State) LaneRows() [][]int16 { return s.laneRows }

// laneRowTo returns the lane row toward dst, built on first use.
func (s *State) laneRowTo(dst topology.Node) []int16 {
	if s.laneRows == nil {
		s.laneRows = make([][]int16, s.nodes)
	}
	row := s.laneRows[dst]
	if row == nil {
		row = make([]int16, s.lanes*s.nodes)
		s.laneRow(dst, row)
		s.laneRows[dst] = row
	}
	return row
}

// SetOnTimeout installs the observer TickTimers calls for every header it
// newly presumes deadlocked, with the presuming router's node, in slot
// order; nil detaches. The observer must not read or write simulation
// state. The network wires it when tracing or telemetry is attached.
func (s *State) SetOnTimeout(fn func(topology.Node, *packet.Packet)) { s.onTimeout = fn }

// --- Index helpers -----------------------------------------------------------

// inIdx returns the global input VC slot of (port, vc) at router r: network
// ports and the injection port (port == deg) share the port-major formula.
func (r *Router) inIdx(port, vc int) int { return r.in0 + port*r.st.cfg.VCs + vc }

// downIdx returns the global input VC slot that output VC (port, vc) of
// router r feeds, or -1 where the port has no link.
func (r *Router) downIdx(port, vc int) int {
	s := r.st
	nb := s.nbr[r.pt0+port]
	if nb < 0 {
		return -1
	}
	return int(nb)*s.stride + int(s.rev[r.pt0+port])*s.cfg.VCs + vc
}

// dbIdx returns the global Deadlock Buffer lane slot of lane at router r.
func (r *Router) dbIdx(lane int) int { return r.db0 + lane }

// cxIdx returns the global port slot (wiring, crossbar connection) of
// output q at router r.
func (r *Router) cxIdx(q int) int { return r.pt0 + q }

// swIdx returns the global switch-arbitration offset slot of output q
// (q == deg is the reception channel) at router r.
func (r *Router) swIdx(q int) int { return r.sw0 + q }

// portVCOf maps a router-local flat input slot l back to its (port, vc):
// the inverse of the port-major layout, one table load.
func (r *Router) portVCOf(l int) (port, vc int) {
	pv := r.st.slotPV[l]
	return int(pv.port), int(pv.vc)
}

// --- Slot masks --------------------------------------------------------------

// maskOf returns the w words of router r's mask k.
func (r *Router) maskOf(k int) []uint64 {
	w := r.st.w
	b := r.mk0 + k*w
	return r.st.mask[b : b+w : b+w]
}

// bit returns the word and bit of global input slot i in router r's mask k.
func (r *Router) bit(k, i int) (*uint64, uint64) {
	l := i - r.in0
	return &r.st.mask[r.mk0+k*r.st.w+l>>6], 1 << (uint(l) & 63)
}

// setMask sets (on) or clears global input slot i's bit in mask k.
func (r *Router) setMask(k, i int, on bool) {
	m, b := r.bit(k, i)
	if on {
		*m |= b
	} else {
		*m &^= b
	}
}

// hasMask reports global input slot i's bit in mask k.
func (r *Router) hasMask(k, i int) bool {
	m, b := r.bit(k, i)
	return *m&b != 0
}

// derivedMasks returns what the arrays say global input slot i's mOcc,
// mHdr, mUnr and mTim bits must be (mSent has no array behind it).
func (r *Router) derivedMasks(i int) [mSent]bool {
	s := r.st
	occ := s.in.n[i] != 0
	return [mSent]bool{
		mOcc: occ,
		mHdr: occ && s.in.peek(i).IsHeader(),
		mUnr: s.inRoute[i] == PortUnrouted,
		mTim: r.waiting(i) != 0 || r.hasMask(mPre, i),
	}
}

// pushIn appends fl to global input slot i's buffer; the first flit in an
// empty buffer sets mOcc and, if a header, mHdr.
func (r *Router) pushIn(i int, fl packet.Flit) {
	s := r.st
	s.in.push(i, fl)
	if s.in.n[i] == 1 {
		r.setMask(mOcc, i, true)
		r.setMask(mHdr, i, fl.IsHeader())
	}
}

// popIn removes and returns global input slot i's head flit, updating mOcc
// and mHdr for the flit (if any) that becomes the head.
func (r *Router) popIn(i int) packet.Flit {
	s := r.st
	fl := s.in.pop(i)
	if s.in.n[i] == 0 {
		r.setMask(mOcc, i, false)
		r.setMask(mHdr, i, false)
	} else {
		r.setMask(mHdr, i, s.in.peek(i).IsHeader())
	}
	return fl
}

// grantBit returns the word and bit of output VC (port, vc) in router r's
// grant mask.
func (r *Router) grantBit(port, vc int) (*uint64, uint64) {
	l := port*r.st.cfg.VCs + vc
	return &r.st.grant[r.g0+l>>6], 1 << (uint(l) & 63)
}

// setGrant sets (on) or clears output VC (port, vc)'s grant bit.
func (r *Router) setGrant(port, vc int, on bool) {
	m, b := r.grantBit(port, vc)
	if on {
		*m |= b
	} else {
		*m &^= b
	}
}

// granted reports whether a header at router r holds output VC (port, vc)
// and has not crossed.
func (r *Router) granted(port, vc int) bool {
	m, b := r.grantBit(port, vc)
	return *m&b != 0
}

// releaseGrant clears the grant bit of the output VC global input slot i's
// route names, if it names one. A header that has already crossed holds no
// bit, and no other header can hold one for that VC until its downstream
// slot drains, so the clear is then a no-op.
func (r *Router) releaseGrant(i int) {
	s := r.st
	if q, v := int(s.inRoute[i]), int(s.inOutVC[i]); q >= 0 && v >= 0 {
		r.setGrant(q, v, false)
	}
}

// grantHolder returns the packet whose header at router r holds output VC
// (port, vc), or nil. Only a routed header at a buffer head holds a grant,
// so it walks mHdr ∧ ¬mUnr.
func (r *Router) grantHolder(port, vc int) *packet.Packet {
	s := r.st
	hdr, unr := r.maskOf(mHdr), r.maskOf(mUnr)
	for j := range hdr {
		for word := hdr[j] &^ unr[j]; word != 0; word &= word - 1 {
			i := r.in0 + j<<6 + bits.TrailingZeros64(word)
			if int(s.inRoute[i]) == port && int(s.inOutVC[i]) == vc {
				return s.in.pkt(i)
			}
		}
	}
	return nil
}

// holdsGrant reports whether global input slot i's head is a header that
// holds an output VC grant: it is routed to an output VC and has not
// crossed.
func (r *Router) holdsGrant(i int) bool {
	s := r.st
	return r.hasMask(mHdr, i) && s.inRoute[i] >= 0 && s.inOutVC[i] >= 0
}

// setRoute is the one writer of inRoute: it keeps mUnr exact.
func (r *Router) setRoute(i, route int) {
	r.st.inRoute[i] = int8(route)
	r.setMask(mUnr, i, route == PortUnrouted)
}

// waiting returns global input slot i's T_elapsed: its owner's Waiting
// while the slot's head is the owner's header, else 0.
func (r *Router) waiting(i int) int32 {
	if q := &r.st.in; q.n[i] != 0 && q.seq[i] == 0 {
		return q.pkt(i).Waiting
	}
	return 0
}

// clearTimer stops global input slot i's deadlock timer and clears its
// presumption and mTim bit. It zeroes the owner's Waiting only while the
// slot's head is still the owner's header: once the header has crossed, its
// Waiting is the timer of the slot it entered, which that slot's router may
// already have ticked this cycle.
func (r *Router) clearTimer(i int) {
	if q := &r.st.in; q.n[i] != 0 && q.seq[i] == 0 {
		q.pkt(i).Waiting = 0
	}
	r.setMask(mPre, i, false)
	r.setMask(mTim, i, false)
}

// nextSet returns the lowest set bit of m at or above from, or -1.
func nextSet(m []uint64, from int) int {
	j := from >> 6
	if j >= len(m) {
		return -1
	}
	if word := m[j] >> (uint(from) & 63); word != 0 {
		return from + bits.TrailingZeros64(word)
	}
	for j++; j < len(m); j++ {
		if m[j] != 0 {
			return j<<6 + bits.TrailingZeros64(m[j])
		}
	}
	return -1
}

// rotFirst and rotNext walk the set bits of m in the rotating order that
// starts at off: [off, end) ascending, then [0, off). rotFirst returns the
// first bit (-1 when m is empty), rotNext the one after l (-1 once the walk
// is back at off). With m a slot mask this is the full-stride round-robin
// scan from off with every slot outside the mask skipped.
func rotFirst(m []uint64, off int) int {
	if l := nextSet(m, off); l >= 0 {
		return l
	}
	return nextSet(m, 0) // no bit at or past off, so any hit lies below it
}

func rotNext(m []uint64, l, off int) int {
	n := nextSet(m, l+1)
	if l >= off {
		if n >= 0 {
			return n
		}
		n = nextSet(m, 0) // the wrap
	}
	if n >= off {
		return -1
	}
	return n
}

// inVCCount returns the number of VCs on input port p: one on the
// injection port.
func (s *State) inVCCount(p int) int {
	if p == s.deg {
		return 1
	}
	return s.cfg.VCs
}

// --- Flit buffers ------------------------------------------------------------

// flitRun is a set of fixed-capacity flit buffers, one per slot. A VC is
// reallocated only once its buffer has drained (OutputVCFree), and a
// Deadlock Buffer lane admits one packet at a time, so a slot only ever
// buffers consecutive flits of its owner: flit k (0 == head) of slot i is
// Flit{owner, seq[i]+k}, and a slot costs its owner's handle, its head's
// position and a count at any depth. The owner outlives the flits: a VC
// stays owned while its next flits are still upstream, until its tail
// leaves. The input VCs and the Deadlock Buffer lanes are one set each; the
// input set is pushed and popped through Router.pushIn/popIn, which keep the
// slot masks exact.
type flitRun struct {
	depth int
	tab   *pktTable // the network's packet table, which owner indexes
	owner []int32   // handle; set (own) before its header is pushed, 0 once its tail leaves
	seq   []int32   // the head flit's position; a packet's length fits an int32 (network.New)
	n     []uint8   // depth ≤ MaxBufferDepth
}

func newFlitRun(slots, depth int, tab *pktTable) flitRun {
	return flitRun{
		depth: depth,
		tab:   tab,
		owner: make([]int32, slots),
		seq:   make([]int32, slots),
		n:     make([]uint8, slots),
	}
}

// pkt returns slot i's owner, nil if it has none.
func (q *flitRun) pkt(i int) *packet.Packet { return q.tab.pkts[q.owner[i]] }

// own makes p slot i's owner, giving p a handle if it holds none.
func (q *flitRun) own(i int, p *packet.Packet) { q.owner[i] = q.tab.acquire(p) }

// push appends fl to slot i. It is the writers' guard: fl must be a flit of
// the slot's owner and, behind buffered flits, the next in sequence. The
// first flit into an empty slot starts the run wherever the owner is: the
// flits before it have left or are still upstream. It compares handles, so
// it reads no table entry.
func (q *flitRun) push(i int, fl packet.Flit) {
	n := int(q.n[i])
	switch {
	case n == q.depth:
		panic("router: push to full fifo")
	case q.owner[i] == 0 || fl.Pkt.Handle != q.owner[i]:
		panic("router: push of a flit its slot's owner does not own")
	case n == 0:
		q.seq[i] = int32(fl.Seq)
	case fl.Seq != int(q.seq[i])+n:
		panic("router: push of a flit out of sequence")
	}
	q.n[i]++
}

// peek returns the head flit of slot i.
func (q *flitRun) peek(i int) packet.Flit { return q.at(i, 0) }

// at returns the k-th buffered flit (0 == head) of slot i.
func (q *flitRun) at(i, k int) packet.Flit {
	if k < 0 || k >= int(q.n[i]) {
		panic("router: fifo index out of range")
	}
	return packet.Flit{Pkt: q.pkt(i), Seq: int(q.seq[i]) + k}
}

// pop removes and returns the head flit of slot i. The owner stays: its
// next flit may still arrive.
func (q *flitRun) pop(i int) packet.Flit {
	fl := q.peek(i)
	q.seq[i]++
	q.n[i]--
	return fl
}

// check reports a count of slot i outside its range, an owner handle whose
// table entry does not carry it, or flits that are not a run of an owner's:
// buffered with no owner, or past its length.
func (q *flitRun) check(i int) error {
	n := int(q.n[i])
	if n > q.depth {
		return fmt.Errorf("buffer length %d outside [0,%d]", n, q.depth)
	}
	h := q.owner[i]
	if h != 0 && (h < 0 || int(h) >= len(q.tab.pkts) || q.tab.pkts[h] == nil || q.tab.pkts[h].Handle != h) {
		return fmt.Errorf("owner handle %d names no packet that carries it", h)
	}
	if n == 0 {
		return nil
	}
	if h == 0 {
		return fmt.Errorf("%d flits with no owner", n)
	}
	p := q.tab.pkts[h]
	if first := int(q.seq[i]); first < 0 || first+n > p.Length {
		return fmt.Errorf("flits %d..%d outside packet %d's length %d", first, first+n-1, p.ID, p.Length)
	}
	return nil
}

// --- The packet table ----------------------------------------------------------

// pktTable names the network's packets that own an input slot or a
// Deadlock Buffer lane by 32-bit handles, so the slots store no pointer: a
// packet takes a handle when it first owns a slot (its header is injected,
// committed or decoded) and gives it back once it owns none (its tail is
// delivered, or the network purges it). Handle 0 is no owner, and a freed
// handle is reused before the table grows, so a network in steady state
// takes handles without allocating. The packet carries its own handle
// (packet.Packet.Handle), which is why a packet belongs to one network.
type pktTable struct {
	pkts []*packet.Packet // by handle; pkts[0] is nil, as is every free handle's
	free []int32          // released handles, reused last first
}

// acquire returns p's handle, giving it one if it holds none here.
func (t *pktTable) acquire(p *packet.Packet) int32 {
	if h := p.Handle; h > 0 && int(h) < len(t.pkts) && t.pkts[h] == p {
		return h
	}
	var h int32
	if k := len(t.free) - 1; k >= 0 {
		h, t.free = t.free[k], t.free[:k]
	} else {
		h = int32(len(t.pkts))
		t.pkts = append(t.pkts, nil)
	}
	t.pkts[h], p.Handle = p, h
	return h
}

// release frees p's handle, if it holds one here.
func (t *pktTable) release(p *packet.Packet) {
	h := p.Handle
	if h <= 0 || int(h) >= len(t.pkts) || t.pkts[h] != p {
		return
	}
	t.pkts[h], p.Handle = nil, 0
	t.free = append(t.free, h)
}

// Release gives back p's handle once p owns no input slot or Deadlock
// Buffer lane: the network calls it after purging p from every router.
// Delivery releases a packet's handle itself, when its tail is consumed.
func (s *State) Release(p *packet.Packet) { s.pk.release(p) }

// CheckHandles cross-checks the packet table against the slots that index
// it: every live handle's packet carries that handle and owns an input slot
// or a Deadlock Buffer lane (one that owns none is a leak: its release was
// missed), and every free handle's entry is empty. CheckState checks the
// other direction, slot by slot; the network's CheckInvariants calls both.
func (s *State) CheckHandles() error {
	t := &s.pk
	owned := make([]bool, len(t.pkts))
	for _, q := range [...]*flitRun{&s.in, &s.db} {
		for _, h := range q.owner {
			if h > 0 && int(h) < len(owned) {
				owned[h] = true
			}
		}
	}
	for _, h := range t.free {
		if h <= 0 || int(h) >= len(t.pkts) || t.pkts[h] != nil {
			return fmt.Errorf("packet table: free handle %d is not an empty entry", h)
		}
	}
	live := 0
	for h, p := range t.pkts {
		switch {
		case p == nil:
			continue
		case h == 0:
			return fmt.Errorf("packet table: handle 0 holds packet %d", p.ID)
		case p.Handle != int32(h):
			return fmt.Errorf("packet table: handle %d holds packet %d, which carries handle %d", h, p.ID, p.Handle)
		case !owned[h]:
			return fmt.Errorf("packet table: packet %d holds handle %d but owns no input slot or DB lane", p.ID, h)
		}
		live++
	}
	if live+len(t.free)+1 != len(t.pkts) {
		return fmt.Errorf("packet table: %d live and %d free handles, but %d entries past handle 0", live, len(t.free), len(t.pkts)-1)
	}
	return nil
}

// --- Structural cross-checks -------------------------------------------------

// CheckState cross-checks the router's slice of the shared struct-of-arrays
// buffers against what the view API exposes: buffer lengths in range,
// every owner handle its packet table entry's (the leak check, the other
// direction, is State.CheckHandles) and every buffered run an owner's,
// every input slot's occupied,
// header-at-head, unrouted and timing mask bits equal to what its arrays say
// (the scans trust them), no sent bit (a cycle's TickTimers clears every
// bit its StageSwitch set) and no mask bit past the stride, route/VC grants
// within their sentinel-extended domains, one grant bit for each routed
// header at a buffer head and none other, each on a live link whose
// downstream slot no packet owns (checkGrants), crossbar
// connections naming an input VC that exists, and the maintained
// flit and crossbar-connection counters consistent with the buffers and the
// connections. The network's CheckInvariants calls
// it for every router, so a scan-path bug that corrupts the flat layout
// without (yet) changing observable behavior is still caught near its origin.
func (r *Router) CheckState() error {
	s := r.st
	total := 0
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		p, v := r.portVCOf(l)
		if err := s.in.check(i); err != nil {
			return fmt.Errorf("router %d input (%d,%d): %v", r.node, p, v, err)
		}
		total += int(s.in.n[i])
		for k, want := range r.derivedMasks(i) {
			if got := r.hasMask(k, i); got != want {
				return fmt.Errorf("router %d input (%d,%d): %s mask bit %v, slot state says %v", r.node, p, v, maskNames[k], got, want)
			}
		}
		if r.hasMask(mSent, i) {
			return fmt.Errorf("router %d input (%d,%d): %s mask bit set between cycles", r.node, p, v, maskNames[mSent])
		}
		if rt := int(s.inRoute[i]); rt < PortEject || rt >= s.deg {
			return fmt.Errorf("router %d input (%d,%d): route %d outside [%d,%d)", r.node, p, v, rt, PortEject, s.deg)
		}
		if ov := int(s.inOutVC[i]); ov < VCDeadlockBuffer || ov >= s.cfg.VCs {
			return fmt.Errorf("router %d input (%d,%d): output VC grant %d outside [%d,%d)", r.node, p, v, ov, VCDeadlockBuffer, s.cfg.VCs)
		}
		if ln := int(s.inDBLane[i]); ln < 0 || (ln > 0 && ln >= s.lanes) {
			return fmt.Errorf("router %d input (%d,%d): DB lane %d outside the router's %d lanes", r.node, p, v, ln, s.lanes)
		}
	}
	if pad := s.stride & 63; pad != 0 {
		for k := 0; k < maskKinds; k++ {
			if r.maskOf(k)[s.w-1]>>uint(pad) != 0 {
				return fmt.Errorf("router %d: %s mask has bits past slot %d", r.node, maskNames[k], s.stride-1)
			}
		}
	}
	if err := r.checkGrants(); err != nil {
		return err
	}
	for lane := 0; lane < s.lanes; lane++ {
		i := r.db0 + lane
		if err := s.db.check(i); err != nil {
			return fmt.Errorf("router %d DB lane %d: %v", r.node, lane, err)
		}
		total += int(s.db.n[i])
	}
	if got := int(s.flitCount[r.node]); got != total {
		return fmt.Errorf("router %d: maintained flit count %d, buffers hold %d", r.node, got, total)
	}
	for q := 0; q < s.deg && s.cxInPort != nil; q++ {
		i := r.cxIdx(q)
		if ip := int(s.cxInPort[i]); ip < connNone || ip > s.deg {
			return fmt.Errorf("router %d crossbar %d: input port %d outside [-1,%d]", r.node, q, ip, s.deg)
		}
		if iv, n := int(s.cxInVC[i]), s.inVCCount(int(s.cxInPort[i])); iv < 0 || iv >= n {
			return fmt.Errorf("router %d crossbar %d: input VC %d outside input port %d's [0,%d)", r.node, q, iv, s.cxInPort[i], n)
		}
		if !s.cxSaved[i] {
			continue
		}
		sp := int(s.cxSavedPort[i])
		if sp < 0 || sp > s.deg {
			return fmt.Errorf("router %d crossbar %d: saved port %d outside [0,%d]", r.node, q, sp, s.deg)
		}
		if sv, n := int(s.cxSavedVC[i]), s.inVCCount(sp); sv < 0 || sv >= n {
			return fmt.Errorf("router %d crossbar %d: saved VC %d outside input port %d's [0,%d)", r.node, q, sv, sp, n)
		}
	}
	if got, want := int(s.cxHeld[r.node]), r.countCrossbar(); got != want {
		return fmt.Errorf("router %d: maintained crossbar connection count %d, outputs hold %d", r.node, got, want)
	}
	return nil
}

// maxGrantWords bounds a router's grant words (MaxDegree × MaxVCs bits).
const maxGrantWords = (MaxDegree*MaxVCs + 63) / 64

// checkGrants reports a grant bit that is not exactly one header's: each
// routed header at a buffer head (holdsGrant) must hold its output VC's bit
// alone, and each set bit must have such a header. A granted output VC is
// one whose downstream slot had drained, and only its header can enter that
// slot, so the link must be up and the slot ownerless until the header
// crosses.
func (r *Router) checkGrants() error {
	s := r.st
	var held [maxGrantWords]uint64
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		if !r.holdsGrant(i) {
			continue
		}
		p, v := r.portVCOf(l)
		q, ov := int(s.inRoute[i]), int(s.inOutVC[i])
		b := q*s.cfg.VCs + ov
		switch {
		case held[b>>6]&(1<<(uint(b)&63)) != 0:
			return fmt.Errorf("router %d output (%d,%d): granted to two headers, the second at input (%d,%d)", r.node, q, ov, p, v)
		case !r.granted(q, ov):
			return fmt.Errorf("router %d input (%d,%d): header holds output (%d,%d) without its grant bit", r.node, p, v, q, ov)
		case r.downIdx(q, ov) < 0:
			return fmt.Errorf("router %d input (%d,%d): header holds output (%d,%d) on a link that is down", r.node, p, v, q, ov)
		case s.in.owner[r.downIdx(q, ov)] != 0:
			return fmt.Errorf("router %d input (%d,%d): header holds output (%d,%d), whose downstream slot is packet %d's",
				r.node, p, v, q, ov, s.in.pkt(r.downIdx(q, ov)).ID)
		}
		held[b>>6] |= 1 << (uint(b) & 63)
	}
	for j, word := range s.grant[r.g0 : r.g0+s.gw] {
		if stray := word &^ held[j]; stray != 0 {
			b := j<<6 + bits.TrailingZeros64(stray)
			return fmt.Errorf("router %d output (%d,%d): grant bit set with no header holding it", r.node, b/s.cfg.VCs, b%s.cfg.VCs)
		}
	}
	return nil
}
