package router

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// State is everything the routers of one network share: the network-wide
// facts — topology, router configuration, the installed routing and
// selection functions, the Deadlock Buffer lane table, the recovery-order
// positions, the timeout observer — each stored once, and the hot per-cycle
// microarchitectural state of every router as flat struct-of-arrays buffers
// indexed by (router, port, vc). A Router is a view over its slice of the
// buffers, so route compute, switch allocation and the deadlock-timer phase
// sweep contiguous memory, and a network-wide change (SetAlgorithm,
// SetLaneTable) is one assignment. Routers are laid out consecutively.
//
// Layout (all slices are allocated once, at NewState, and never grow):
//
//	input VCs    stride = deg*VCs + InjectionVCs slots per router,
//	             port-major: slot l = p*VCs + v for network port p < deg,
//	             l = deg*VCs + v for the injection port. Global index of
//	             router r's slot l is r*stride + l. Per-slot fields live in
//	             parallel arrays (inPkt, inRoute, inOutVC, inDBLane,
//	             inWaiting, inPresumed, inSent); the flits live in the ring
//	             set in (BufferDepth flits per slot, contiguous, with
//	             per-slot cursors in.head / in.n).
//	output VCs   deg*VCs slots per router (outOwner, outCredits).
//	DB lanes     lanes slots per router (dbPkt, dbRoute, and dbWriteAt, the
//	             single write port's last-admission cycle) with the
//	             DeadlockBufferDepth-flit ring set db.
//	crossbar     deg packet-by-packet connections per router (cxInPort,
//	             cxInVC, cxDB, cxSaved, cxSavedPort, cxSavedVC).
//	per router   vcArbOff, swArbOff (deg+1 per router), flitCount, effTout,
//	             decayCount, lastBlocked, lastPresumed.
//	scratch      candHead (deg+1), candNext (stride): one router's switch
//	             candidate lists, valid only inside its StageSwitch.
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

	// laneTable, when set, routes the Deadlock Buffer lanes by next-hop
	// table instead of dimension order (see SetLaneTable).
	laneTable []int32
	// orderPos is every node's position on the recovery order (concurrent
	// recovery picks a lane by it; see SetRecoveryOrder).
	orderPos []int32
	// onTimeout, when set via SetOnTimeout, observes every newly presumed
	// header. TickTimers buffers them per router; FlushTimeouts drains them.
	onTimeout func(topology.Node, *packet.Packet)

	nodes  int
	deg    int
	lanes  int // Deadlock Buffer lanes per router (0, 1 or 2)
	stride int // input VC slots per router: deg*VCs + InjectionVCs
	outStr int // output VC slots per router: deg*VCs

	// Input VC state, nodes*stride slots.
	inPkt      []*packet.Packet
	inRoute    []int32 // granted output port, PortEject or PortUnrouted
	inOutVC    []int32 // granted output VC, VCDeadlockBuffer or VCUnrouted
	inDBLane   []int32 // recovery lane when inOutVC == VCDeadlockBuffer
	inWaiting  []sim.Cycle
	inPresumed []bool
	inSent     []bool
	in         flitRing

	// Output VC state, nodes*outStr slots.
	outOwner   []*packet.Packet
	outCredits []int32

	// Deadlock Buffer lanes, nodes*lanes slots. Each DB is a central queue
	// with a single write port (as in the Chaos router the paper cites):
	// dbWriteAt is the cycle of the lane's last admission, so at most one
	// flit per cycle enters it (see ResolveDB).
	dbPkt     []*packet.Packet
	dbRoute   []int32
	dbWriteAt []sim.Cycle
	db        flitRing

	// Packet-by-packet crossbar connections, nodes*deg slots.
	cxInPort    []int32
	cxInVC      []int32
	cxDB        []bool
	cxSaved     []bool
	cxSavedPort []int32
	cxSavedVC   []int32

	// Per-router scalars, nodes slots (swArbOff: nodes*(deg+1)).
	vcArbOff     []int32
	swArbOff     []int32
	flitCount    []int32
	effTout      []sim.Cycle
	decayCount   []int32
	lastBlocked  []int32
	lastPresumed []int32

	// Switch-allocation scratch, rebuilt by indexCandidates at the start of
	// every StageSwitch and dead after it; staging is serial, so one pair
	// serves every router. candHead[q] is the first router-local input slot
	// holding a flit routed to output q (q == deg: the reception channel)
	// and candNext[l] the next one after slot l, ascending, -1 ending a list.
	candHead []int32
	candNext []int32
}

// NewState builds the shared state for every router of a network on topo:
// cfg (already normalized), the routing and selection functions all routers
// run, and the struct-of-arrays buffers. The network constructs one State
// and a NewWithState view per node.
func NewState(topo topology.Graph, cfg Config, alg routing.Algorithm, sel routing.Selection) *State {
	nodes, deg := topo.Nodes(), topo.Degree()
	lanes := 0
	if cfg.DeadlockBufferDepth > 0 {
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
		nodes:  nodes,
		deg:    deg,
		lanes:  lanes,
		stride: deg*cfg.VCs + cfg.InjectionVCs,
		outStr: deg * cfg.VCs,
	}
	in := nodes * s.stride
	s.inPkt = make([]*packet.Packet, in)
	s.inRoute = make([]int32, in)
	s.inOutVC = make([]int32, in)
	s.inDBLane = make([]int32, in)
	s.inWaiting = make([]sim.Cycle, in)
	s.inPresumed = make([]bool, in)
	s.inSent = make([]bool, in)
	s.in = newFlitRing(in, cfg.BufferDepth)
	for i := range s.inRoute {
		s.inRoute[i] = PortUnrouted
		s.inOutVC[i] = VCUnrouted
	}
	out := nodes * s.outStr
	s.outOwner = make([]*packet.Packet, out)
	s.outCredits = make([]int32, out)
	for i := range s.outCredits {
		s.outCredits[i] = int32(cfg.BufferDepth)
	}
	db := nodes * lanes
	s.dbPkt = make([]*packet.Packet, db)
	s.dbRoute = make([]int32, db)
	s.dbWriteAt = make([]sim.Cycle, db)
	s.db = newFlitRing(db, cfg.DeadlockBufferDepth)
	for i := range s.dbRoute {
		s.dbRoute[i] = PortUnrouted
		s.dbWriteAt[i] = -1
	}
	cx := nodes * deg
	s.cxInPort = make([]int32, cx)
	s.cxInVC = make([]int32, cx)
	s.cxDB = make([]bool, cx)
	s.cxSaved = make([]bool, cx)
	s.cxSavedPort = make([]int32, cx)
	s.cxSavedVC = make([]int32, cx)
	for i := range s.cxInPort {
		s.cxInPort[i] = connNone
	}
	s.vcArbOff = make([]int32, nodes)
	s.swArbOff = make([]int32, nodes*(deg+1))
	s.flitCount = make([]int32, nodes)
	s.effTout = make([]sim.Cycle, nodes)
	s.decayCount = make([]int32, nodes)
	s.lastBlocked = make([]int32, nodes)
	s.lastPresumed = make([]int32, nodes)
	for i := range s.effTout {
		s.effTout[i] = cfg.Timeout
	}
	s.candHead = make([]int32, deg+1)
	s.candNext = make([]int32, s.stride)
	return s
}

// Algorithm returns the routing function every router currently runs.
func (s *State) Algorithm() routing.Algorithm { return s.alg }

// SetAlgorithm swaps the routing function every router consults for
// unrouted headers. Granted routes are untouched: packets already holding an
// output VC finish their hop under the old function, and any packet the new
// function can no longer make progress for times out and escapes through
// the Deadlock Buffer lane — the DBR reconfiguration argument. Called
// between Step cycles.
func (s *State) SetAlgorithm(alg routing.Algorithm) { s.alg = alg }

// LaneTable returns the installed Deadlock Buffer lane table (nil when the
// lane routes by dimension order).
func (s *State) LaneTable() []int32 { return s.laneTable }

// SetLaneTable installs a next-hop table for the Deadlock Buffer lanes:
// table[int(dst)*nodes + int(node)] is the output port toward dst at node
// (core.BFSLaneTableOver's shape). When set it replaces dimension-order DB
// routing: coordinate-free topologies from construction, concurrent recovery
// (SetRecoveryOrder), every topology once a link or router has failed.
func (s *State) SetLaneTable(table []int32) { s.laneTable = table }

// SetRecoveryOrder installs concurrent recovery's two Deadlock Buffer lanes
// (MonotoneLaneTable over the recovery order): the positions pick a
// recovery's lane, the table routes both.
func (s *State) SetRecoveryOrder(order []topology.Node) {
	pos, table := MonotoneLaneTable(s.topo, order)
	s.orderPos = pos
	s.SetLaneTable(table)
}

// MonotoneLaneTable returns each node's position on order (a permutation of
// g's nodes) and a SetLaneTable-shaped table sending a flit at cur bound for
// dst to the neighbor furthest along order toward dst that does not pass it —
// the monotone shortcut of Lin–McKinley–Ni dual-path routing. Positions
// strictly increase on the up lane and strictly decrease on the down lane, so
// neither lane's dependency graph over receiving routers has a cycle. An
// entry is -1 on the diagonal and where no neighbor qualifies (never when
// order steps along links).
func MonotoneLaneTable(g topology.Graph, order []topology.Node) (pos, table []int32) {
	nodes, deg := g.Nodes(), g.Degree()
	pos = make([]int32, nodes)
	for i, v := range order {
		pos[v] = int32(i)
	}
	nbPos := make([]int32, nodes*deg) // -1 where port p of v has no link
	for i := range nbPos {
		nbPos[i] = -1
		if nb, ok := g.Neighbor(topology.Node(i/deg), i%deg); ok {
			nbPos[i] = pos[nb]
		}
	}
	table = make([]int32, nodes*nodes)
	for d := 0; d < nodes; d++ {
		for c := 0; c < nodes; c++ {
			table[d*nodes+c] = -1
			// ahead is how far short of dst a hop lands, in lane direction:
			// the smallest non-negative one wins, the lowest port on a tie.
			dir := int32(1)
			if pos[d] < pos[c] {
				dir = -1
			}
			best := dir * (pos[d] - pos[c])
			for p := 0; p < deg; p++ {
				np := nbPos[c*deg+p]
				if ahead := dir * (pos[d] - np); np >= 0 && ahead >= 0 && ahead < best {
					best, table[d*nodes+c] = ahead, int32(p)
				}
			}
		}
	}
	return pos, table
}

// SetOnTimeout installs the observer invoked (from FlushTimeouts) for every
// header newly presumed deadlocked, with the presuming router's node; nil
// detaches. The network wires it when tracing or telemetry is attached.
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
// the O(1) inverse of the port-major layout.
func (r *Router) portVCOf(l int) (port, vc int) {
	s := r.st
	if l < s.outStr {
		return l / s.cfg.VCs, l % s.cfg.VCs
	}
	return s.deg, l - s.outStr
}

// inVCCount returns the number of VCs on input port p.
func (s *State) inVCCount(p int) int {
	if p == s.deg {
		return s.cfg.InjectionVCs
	}
	return s.cfg.VCs
}

// --- Flit rings --------------------------------------------------------------

// flitRing is a set of fixed-capacity flit FIFOs, one per slot, in one
// contiguous array: slot i owns flits[i*depth : (i+1)*depth], read from
// head[i] and holding n[i] flits. The input VCs and the Deadlock Buffer
// lanes are one ring set each.
type flitRing struct {
	depth int
	head  []int32
	n     []int32
	flits []packet.Flit
}

func newFlitRing(slots, depth int) flitRing {
	return flitRing{
		depth: depth,
		head:  make([]int32, slots),
		n:     make([]int32, slots),
		flits: make([]packet.Flit, slots*depth),
	}
}

// push appends a flit to ring i.
func (q *flitRing) push(i int, fl packet.Flit) {
	if int(q.n[i]) == q.depth {
		panic("router: push to full fifo")
	}
	q.flits[i*q.depth+(int(q.head[i])+int(q.n[i]))%q.depth] = fl
	q.n[i]++
}

// peek returns the head flit of ring i.
func (q *flitRing) peek(i int) packet.Flit {
	if q.n[i] == 0 {
		panic("router: peek on empty fifo")
	}
	return q.flits[i*q.depth+int(q.head[i])]
}

// at returns the k-th buffered flit (0 == head) of ring i.
func (q *flitRing) at(i, k int) packet.Flit {
	if k < 0 || k >= int(q.n[i]) {
		panic("router: fifo index out of range")
	}
	return q.flits[i*q.depth+(int(q.head[i])+k)%q.depth]
}

// pop removes and returns the head flit of ring i, zeroing the vacated slot
// so no stale packet pointer outlives its buffered flit.
func (q *flitRing) pop(i int) packet.Flit {
	fl := q.peek(i)
	q.flits[i*q.depth+int(q.head[i])] = packet.Flit{}
	q.head[i] = int32((int(q.head[i]) + 1) % q.depth)
	q.n[i]--
	return fl
}

// check reports a cursor of ring i outside its range or a vacated slot that
// still holds a flit (a stale packet pointer).
func (q *flitRing) check(i int) error {
	h, n := int(q.head[i]), int(q.n[i])
	if h < 0 || h >= q.depth {
		return fmt.Errorf("ring head %d outside [0,%d)", h, q.depth)
	}
	if n < 0 || n > q.depth {
		return fmt.Errorf("ring length %d outside [0,%d]", n, q.depth)
	}
	for k := n; k < q.depth; k++ {
		if fl := q.flits[i*q.depth+(h+k)%q.depth]; fl.Pkt != nil {
			return fmt.Errorf("vacated ring slot %d holds a stale flit of packet %d", k, fl.Pkt.ID)
		}
	}
	return nil
}

// --- Structural cross-checks -------------------------------------------------

// CheckState cross-checks the router's slice of the shared struct-of-arrays
// buffers against what the view API exposes: ring cursors in range, vacated
// ring slots zeroed (no stale packet pointers), route/VC grants within their
// sentinel-extended domains, credits within [0, depth], crossbar connections
// naming an input VC that exists, and the maintained flit counter consistent
// with the rings. The network's CheckInvariants calls
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
	return nil
}
