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
// once, and the hot per-cycle microarchitectural state of every router as
// flat struct-of-arrays buffers indexed by (router, port, vc). A Router is a
// view over its slice of the buffers, so route compute, switch allocation
// and the deadlock-timer phase sweep contiguous memory, and a network-wide
// change (SetLaneRows) is one assignment. Routers are laid out consecutively.
//
// Layout (all slices are allocated once, at NewState, and never grow). Each
// per-slot field is stored in the narrowest type its validated range allows
// (Config.Normalize and network.New hold the bounds: degree ≤ MaxDegree,
// VCs ≤ MaxVCs, depth ≤ MaxBufferDepth), because memory grows with routers
// × radix × VCs; every reader widens to int. On 64-bit, an input slot costs
// 17 + depth*12 bytes and maskKinds mask bits, an output slot 10 bytes and a
// crossbar slot 6 (TestSlotBytes pins all three):
//
//	input VCs    stride = deg*VCs + 1 slots per router, port-major:
//	             slot l = p*VCs + v for network port p < deg, l = deg*VCs
//	             for the injection port's one VC. Global index of
//	             router r's slot l is r*stride + l. Per-slot fields live in
//	             parallel arrays (inPkt, inRoute, inOutVC, inDBLane,
//	             inWaiting); the flits live in the ring set in
//	             (BufferDepth flits per slot, contiguous, stored as a packet
//	             pointer and an int32 position each, with per-slot uint8
//	             cursors in.head / in.n). slotPV maps a router-local slot
//	             back to its (port, vc).
//	slot masks   maskKinds masks of w = ⌈stride/64⌉ words per router, one
//	             contiguous block of maskKinds*w words per router (mask):
//	             bit l of mask k is router-local slot l. mOcc (flits
//	             buffered), mHdr (a header at the ring head), mUnr (inRoute
//	             is PortUnrouted) and mTim (inWaiting != 0 or mPre) are
//	             exact functions of the arrays, kept so by their only
//	             writers (pushIn/popIn, setRoute, clearTimer and tickSlot)
//	             and derived, not coded, when a snapshot is decoded; mSent
//	             (a flit left this cycle) and mPre (the header is presumed
//	             deadlocked) are the flags themselves. Bits past stride are
//	             always zero. Route compute walks mHdr, switch allocation
//	             mOcc ∧ ¬mUnr, the timers mTim ∨ mHdr and the presumed-slot
//	             readers mPre, so a router costs each sweep O(w + slots that
//	             can act), not O(stride).
//	output VCs   deg*VCs slots per router (outOwner, outCredits).
//	DB lanes     lanes slots per router (dbPkt, dbRoute, and dbWriteAt, the
//	             single write port's last-admission cycle) with the
//	             one-flit ring set db: one lane with Timeout > 0, two
//	             under concurrent recovery, none with Timeout == 0.
//	crossbar     deg packet-by-packet connections per router (cxInPort,
//	             cxInVC, cxDB, cxSaved, cxSavedPort, cxSavedVC).
//	per router   swArbOff (deg+1 per router), flitCount, cxHeld, and the timer
//	             pass's lastBlocked, lastPresumed and tickedAt (see
//	             activity.go: the VC arbitration offset is a function of the
//	             clock, not stored).
//	scratch      outMask ((deg+1)*w words, one router's per-output masks in
//	             StageSwitch) and cands (outStr, one header's candidates).
//
// Aliasing contract: a Router view may only touch slots inside its own base
// ranges, except through another Router's methods (transfer commit writes
// the receiving router's buffers via the receiver view). The layout is a
// private representation: digests (AppendState), snapshots (WalkState) and
// all introspection walk the logical (port, vc) order, so they are
// layout-invariant by construction.
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

	// Input VC state, nodes*stride slots.
	inPkt     []*packet.Packet
	inRoute   []int8   // granted output port, PortEject or PortUnrouted (write via setRoute)
	inOutVC   []int8   // granted output VC, VCDeadlockBuffer or VCUnrouted
	inDBLane  []int8   // lane the hop enters when inOutVC == VCDeadlockBuffer
	inWaiting []int32  // T_elapsed, saturating at math.MaxInt32 (Timeout < it)
	in        flitRing // push and pop through pushIn/popIn
	slotPV    []portVC // router-local slot -> (port, vc), stride entries

	// Per-router input-slot masks, nodes*maskKinds*w words (see the layout
	// notes above).
	mask []uint64

	// Output VC state, nodes*outStr slots.
	outOwner   []*packet.Packet
	outCredits []int16

	// Deadlock Buffer lanes, nodes*lanes slots. Each DB is a central queue
	// with a single write port (as in the Chaos router the paper cites):
	// dbWriteAt is the cycle of the lane's last admission, so at most one
	// flit per cycle enters it (see ResolveDB).
	dbPkt     []*packet.Packet
	dbRoute   []int8
	dbWriteAt []sim.Cycle
	db        flitRing

	// Packet-by-packet crossbar connections, nodes*deg slots.
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
	mHdr             // the ring head is a header
	mUnr             // inRoute is PortUnrouted
	mTim             // the deadlock timer runs or the header is presumed
	mSent            // a flit left the slot this cycle
	mPre             // the header at the ring head is presumed deadlocked
	maskKinds        // masks per router
)

// maskNames names the masks for CheckState.
var maskNames = [maskKinds]string{"occupied", "header-at-head", "unrouted", "timing", "sent", "presumed"}

// portVC is an input slot's (port, vc).
type portVC struct{ port, vc int32 }

// NewState builds the shared state for every router of a network on topo:
// cfg (already normalized), the routing and selection functions all routers
// run, the clock the network advances, and the struct-of-arrays buffers. The
// network constructs one State and a NewWithState view per node.
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
	s.inPkt = make([]*packet.Packet, in)
	s.inRoute = make([]int8, in)
	s.inOutVC = make([]int8, in)
	s.inDBLane = make([]int8, in)
	s.inWaiting = make([]int32, in)
	s.in = newFlitRing(in, cfg.BufferDepth)
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
	out := nodes * s.outStr
	s.outOwner = make([]*packet.Packet, out)
	s.outCredits = make([]int16, out)
	for i := range s.outCredits {
		s.outCredits[i] = int16(cfg.BufferDepth)
	}
	db := nodes * lanes
	s.dbPkt = make([]*packet.Packet, db)
	s.dbRoute = make([]int8, db)
	s.dbWriteAt = make([]sim.Cycle, db)
	s.db = newFlitRing(db, 1)
	for i := range s.dbRoute {
		s.dbRoute[i] = PortUnrouted
		s.dbWriteAt[i] = -1
	}
	cx := nodes * deg
	s.cxInPort = make([]int8, cx)
	s.cxInVC = make([]int8, cx)
	s.cxDB = make([]bool, cx)
	s.cxSaved = make([]bool, cx)
	s.cxSavedPort = make([]int8, cx)
	s.cxSavedVC = make([]int8, cx)
	for i := range s.cxInPort {
		s.cxInPort[i] = connNone
	}
	s.swArbOff = make([]int16, nodes*(deg+1))
	s.flitCount = make([]int32, nodes)
	s.cxHeld = make([]uint8, nodes)
	s.lastBlocked = make([]int32, nodes)
	s.lastPresumed = make([]int32, nodes)
	s.tickedAt = make([]sim.Cycle, nodes)
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

// outIdx returns the global output VC slot of (port, vc) at router r.
func (r *Router) outIdx(port, vc int) int { return r.out0 + port*r.st.cfg.VCs + vc }

// dbIdx returns the global Deadlock Buffer lane slot of lane at router r.
func (r *Router) dbIdx(lane int) int { return r.db0 + lane }

// cxIdx returns the global crossbar connection slot of output q at router r.
func (r *Router) cxIdx(q int) int { return r.cx0 + q }

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
		mTim: s.inWaiting[i] != 0 || r.hasMask(mPre, i),
	}
}

// pushIn appends fl to global input slot i's ring; the first flit in an
// empty ring sets mOcc and, if a header, mHdr.
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

// setRoute is the one writer of inRoute: it keeps mUnr exact.
func (r *Router) setRoute(i, route int) {
	r.st.inRoute[i] = int8(route)
	r.setMask(mUnr, i, route == PortUnrouted)
}

// clearTimer stops global input slot i's deadlock timer and clears its
// presumption and mTim bit.
func (r *Router) clearTimer(i int) {
	r.st.inWaiting[i] = 0
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

// --- Flit rings --------------------------------------------------------------

// flitRing is a set of fixed-capacity flit FIFOs, one per slot, in one
// contiguous array: slot i owns positions [i*depth, (i+1)*depth), read from
// head[i] and holding n[i] flits. A flit is stored as its packet pointer and
// its position in the packet (pkts, seqs), 12 bytes on 64-bit instead of a
// 16-byte packet.Flit, which is what push, peek, at and pop exchange. The
// input VCs and the Deadlock Buffer lanes are one ring set each; the input
// set is pushed and popped through Router.pushIn/popIn, which keep the slot
// masks exact.
type flitRing struct {
	depth int
	head  []uint8 // depth ≤ MaxBufferDepth
	n     []uint8
	pkts  []*packet.Packet
	seqs  []int32 // a packet's length fits an int32 (network.New)
}

func newFlitRing(slots, depth int) flitRing {
	return flitRing{
		depth: depth,
		head:  make([]uint8, slots),
		n:     make([]uint8, slots),
		pkts:  make([]*packet.Packet, slots*depth),
		seqs:  make([]int32, slots*depth),
	}
}

// pos returns the storage index of the k-th buffered flit (0 == head) of
// ring i.
func (q *flitRing) pos(i, k int) int {
	k += int(q.head[i])
	if k >= q.depth {
		k -= q.depth
	}
	return i*q.depth + k
}

// flit returns the flit stored at index k.
func (q *flitRing) flit(k int) packet.Flit { return packet.Flit{Pkt: q.pkts[k], Seq: int(q.seqs[k])} }

// push appends a flit to ring i.
func (q *flitRing) push(i int, fl packet.Flit) {
	if int(q.n[i]) == q.depth {
		panic("router: push to full fifo")
	}
	k := q.pos(i, int(q.n[i]))
	q.pkts[k], q.seqs[k] = fl.Pkt, int32(fl.Seq)
	q.n[i]++
}

// peek returns the head flit of ring i.
func (q *flitRing) peek(i int) packet.Flit {
	if q.n[i] == 0 {
		panic("router: peek on empty fifo")
	}
	return q.flit(i*q.depth + int(q.head[i]))
}

// at returns the k-th buffered flit (0 == head) of ring i.
func (q *flitRing) at(i, k int) packet.Flit {
	if k < 0 || k >= int(q.n[i]) {
		panic("router: fifo index out of range")
	}
	return q.flit(q.pos(i, k))
}

// pop removes and returns the head flit of ring i, zeroing the vacated slot
// so no stale packet pointer outlives its buffered flit.
func (q *flitRing) pop(i int) packet.Flit {
	fl := q.peek(i)
	k := i*q.depth + int(q.head[i])
	q.pkts[k], q.seqs[k] = nil, 0
	if h := int(q.head[i]) + 1; h < q.depth {
		q.head[i] = uint8(h)
	} else {
		q.head[i] = 0
	}
	q.n[i]--
	return fl
}

// check reports a cursor of ring i outside its range or a vacated slot that
// still holds a flit (a stale packet pointer).
func (q *flitRing) check(i int) error {
	h, n := int(q.head[i]), int(q.n[i])
	if h >= q.depth {
		return fmt.Errorf("ring head %d outside [0,%d)", h, q.depth)
	}
	if n > q.depth {
		return fmt.Errorf("ring length %d outside [0,%d]", n, q.depth)
	}
	for k := n; k < q.depth; k++ {
		if p := q.pkts[i*q.depth+(h+k)%q.depth]; p != nil {
			return fmt.Errorf("vacated ring slot %d holds a stale flit of packet %d", k, p.ID)
		}
	}
	return nil
}

// --- Structural cross-checks -------------------------------------------------

// CheckState cross-checks the router's slice of the shared struct-of-arrays
// buffers against what the view API exposes: ring cursors in range, vacated
// ring slots zeroed (no stale packet pointers), every input slot's occupied,
// header-at-head, unrouted and timing mask bits equal to what its arrays say
// (the scans trust them) and no mask bit past the stride, route/VC grants
// within their sentinel-extended domains, credits within [0, depth],
// crossbar connections naming an input VC that exists, and the maintained
// flit and crossbar-connection counters consistent with the rings and the
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
	for l := 0; l < s.outStr; l++ {
		i := r.out0 + l
		if c := int(s.outCredits[i]); c < 0 || c > s.cfg.BufferDepth {
			return fmt.Errorf("router %d output slot %d: credits %d outside [0,%d]", r.node, l, c, s.cfg.BufferDepth)
		}
	}
	for lane := 0; lane < s.lanes; lane++ {
		i := r.db0 + lane
		if err := s.db.check(i); err != nil {
			return fmt.Errorf("router %d DB lane %d: %v", r.node, lane, err)
		}
		total += int(s.db.n[i])
	}
	if got := int(s.flitCount[r.node]); got != total {
		return fmt.Errorf("router %d: maintained flit count %d, rings hold %d", r.node, got, total)
	}
	for q := 0; q < s.deg; q++ {
		i := r.cx0 + q
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
