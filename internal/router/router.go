// Package router implements the wormhole router microarchitecture of the
// DISHA paper: per-virtual-channel input buffers with credit-based flow
// control, routing and virtual-channel allocation driven by a pluggable
// routing algorithm and selection function, flit-by-flit or packet-by-packet
// crossbar allocation, the time-out deadlock detector (T_elapsed/T_out), and
// the central Deadlock Buffer with its deadlock-free recovery lane.
//
// Routers are passive: internal/network drives the per-cycle pipeline
// (injection, routing/VC allocation, switch allocation, transfer commit,
// timer update) and owns the recovery Token. All router methods assume
// single-threaded access in a fixed order, which makes simulations
// deterministic for a given seed.
//
// Everything the routers of one network share lives once in a State: the
// network-wide facts (topology, configuration, routing function, Deadlock
// Buffer lane table), the wiring, and the hot per-cycle state — VC buffers,
// output VC grants, deadlock timers, crossbar connections — as flat
// struct-of-arrays buffers that hold no pointer: a buffer names its owner by
// a handle into the State's packet table. An output VC stores only its
// grant: its credits and, once its header has crossed, its owner are those
// of the input buffer it feeds. A header's T_elapsed is its packet's
// (packet.Packet.Waiting). A Router is an element of the State's views over
// its slice of those buffers, so the per-cycle scan phases sweep contiguous
// memory while the router API, digests and snapshots stay layout-invariant.
package router

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Route sentinels stored in an input VC's route slot.
const (
	// PortUnrouted marks an input VC whose head header has not yet been
	// assigned an output.
	PortUnrouted = -1
	// PortEject routes the packet into the local reception channel.
	PortEject = -2
)

// Output VC sentinels stored in an input VC's outVC slot.
const (
	// VCUnrouted marks no output VC granted.
	VCUnrouted = -1
	// VCDeadlockBuffer marks a recovered packet whose flits leave with the
	// status line asserted: the next router places them in its Deadlock
	// Buffer, bypassing the edge buffers.
	VCDeadlockBuffer = -2
)

const connNone = -1

// MaxDegree is the largest router degree the switch allocators support: they
// track per-input-port use (network ports plus the injection port) in fixed
// 64-entry arrays.
const MaxDegree = 63

// Stats are per-router event counters.
type Stats struct {
	TimeoutEvents   int64 // headers whose T_elapsed first exceeded T_out
	FalseDetections int64 // presumed headers that later moved without recovery
	Recoveries      int64 // packets switched onto the Deadlock Buffer lane here
	MisrouteHops    int64 // non-profitable hops taken out of this router
	FlitsSwitched   int64 // flits sent on network output ports
	FlitsEjected    int64 // flits consumed by the local reception channel(s)
	DBFlitsCarried  int64 // flits that transited this router's Deadlock Buffer
	Preemptions     int64 // packet-by-packet crossbar preemptions by the DB
	BlockedCycles   int64 // header-cycles spent blocked (sum of T_elapsed ticks)
}

// Router is one network node's switch: an element of the network-wide
// State's views over the node's slice of its buffers. It holds only what is
// the node's own — its base offsets into the shared buffers, its RNG
// stream, and the cold counters no per-cycle scan sweeps. Everything else,
// its wiring (the State's nbr and rev rows) included, and everything
// network-wide (topology, configuration, routing and selection functions,
// the Deadlock Buffer lane table) is read through st.
type Router struct {
	node topology.Node
	rng  sim.RNG

	// Shared state and this router's base offsets into its buffers.
	st  *State
	in0 int // first input VC slot:       node * st.stride
	g0  int // first grant word:          node * st.gw
	db0 int // first Deadlock Buffer slot: node * st.lanes
	pt0 int // first port (wiring, crossbar) slot: node * st.deg
	sw0 int // first switch-arb slot:      node * (st.deg + 1)
	mk0 int // first slot-mask word:       node * maskKinds * st.w

	stats Stats
}

// NewWithState sets up node's view in the shared state st, with a copy of
// rng as the router's private selection stream, and returns it. The caller
// wires neighbors with Connect before the first cycle.
func NewWithState(node topology.Node, rng *sim.RNG, st *State) *Router {
	r := &st.views[node]
	*r = Router{
		node: node,
		rng:  *rng,
		st:   st,
		in0:  int(node) * st.stride,
		g0:   int(node) * st.gw,
		db0:  int(node) * st.lanes,
		pt0:  int(node) * st.deg,
		sw0:  int(node) * (st.deg + 1),
		mk0:  int(node) * maskKinds * st.w,
	}
	return r
}

// Connect wires the neighbor reached through the given output port. The
// network calls it for both directions of every link.
func (r *Router) Connect(port int, neighbor *Router) {
	r.st.nbr[r.pt0+port] = int32(neighbor.node)
}

// Neighbor returns the router wired to the given output port (nil where no
// link exists). Analysis tools use it to follow wait-for relations across
// links.
func (r *Router) Neighbor(port int) *Router {
	if nb := r.st.nbr[r.pt0+port]; nb >= 0 {
		return &r.st.views[nb]
	}
	return nil
}

// InjectionPort returns the input port index of the injection channel.
func (r *Router) InjectionPort() int { return r.st.deg }

// Algorithm returns the routing algorithm this router runs; analysis tools
// use it to recompute a blocked header's candidate set.
func (r *Router) Algorithm() routing.Algorithm { return r.st.alg }

// Stats returns a copy of the router's event counters.
func (r *Router) Stats() Stats { return r.stats }

// BlockedHeaders returns how many headers failed to advance during this
// cycle's TickTimers pass, 0 if the router's pass did not run this cycle (a
// live congestion gauge).
func (r *Router) BlockedHeaders() int { return r.gauge(r.st.lastBlocked) }

// PresumedHeaders returns how many headers were in the presumed-deadlocked
// state during this cycle's TickTimers pass, 0 if the router's pass did not
// run this cycle.
func (r *Router) PresumedHeaders() int { return r.gauge(r.st.lastPresumed) }

// BlockedCyclesVC returns the cumulative header-blocked cycles charged to
// the given VC index (summed over all input ports).
func (r *Router) BlockedCyclesVC(vc int) int64 {
	if vc < 0 || vc >= r.st.cfg.VCs {
		return 0
	}
	return r.st.blockedByVC[int(r.node)*r.st.cfg.VCs+vc]
}

// --- routing.View -----------------------------------------------------------

// Node returns the router's node (routing.View).
func (r *Router) Node() topology.Node { return r.node }

// Topo implements routing.View.
func (r *Router) Topo() topology.Graph { return r.st.topo }

// ReverseAt returns the input port at Neighbor(port) that this router's
// link through port lands on, or -1 where the port is unconnected or has
// no paired reverse channel. Wait-for-graph analysis and the lane-row
// builder use it to follow flow control across arbitrary-graph links.
func (r *Router) ReverseAt(port int) int {
	if port < 0 || port >= r.st.deg {
		return -1
	}
	return int(r.st.rev[r.pt0+port])
}

// VCs implements routing.View.
func (r *Router) VCs() int { return r.st.cfg.VCs }

// LinkExists implements routing.View.
func (r *Router) LinkExists(port int) bool {
	return port >= 0 && port < r.st.deg && r.st.nbr[r.pt0+port] >= 0
}

// OutputVCFree implements routing.View: a VC is allocatable only when no
// header here holds its grant and the downstream buffer has no owner, so
// has drained and expects no flit (atomic VC reallocation, so packets never
// interleave inside one edge buffer).
func (r *Router) OutputVCFree(port, vc int) bool {
	if r.granted(port, vc) {
		return false
	}
	d := r.downIdx(port, vc)
	return d < 0 || r.st.in.owner[d] == 0
}

// OccupantDimReversals implements routing.View.
func (r *Router) OccupantDimReversals(port, vc int) (int, bool) {
	o := r.OutputOwner(port, vc)
	if o == nil {
		return 0, false
	}
	return o.DimReversals, true
}

// FreeVCs implements routing.View.
func (r *Router) FreeVCs(port int) int {
	n := 0
	for vc := 0; vc < r.st.cfg.VCs; vc++ {
		if r.OutputVCFree(port, vc) {
			n++
		}
	}
	return n
}

var _ routing.View = (*Router)(nil)

// --- Injection interface (used by the network's NI model) -------------------

// InjectFlit offers the next flit of a packet to the injection input. It
// returns false if the injection channel cannot accept it this cycle: a
// header needs the channel's one VC idle, any other flit needs its packet
// to own the VC with buffer space. A header takes the packet's handle and
// starts its T_elapsed at 0.
func (r *Router) InjectFlit(fl packet.Flit, now sim.Cycle) bool {
	s := r.st
	i := r.inIdx(s.deg, 0)
	if fl.IsHeader() {
		if s.in.owner[i] != 0 || s.in.n[i] != 0 {
			return false
		}
		s.in.own(i, fl.Pkt)
		fl.Pkt.InjectedAt = now
		fl.Pkt.Waiting = 0
	} else if s.in.owner[i] == 0 || s.in.owner[i] != fl.Pkt.Handle || int(s.in.n[i]) == s.cfg.BufferDepth {
		return false
	}
	r.pushIn(i, fl)
	s.flitCount[r.node]++
	return true
}

// --- Introspection helpers (tests, wait-for-graph analysis) ------------------

// InputOwner returns the packet owning input VC (port, vc), if any.
func (r *Router) InputOwner(port, vc int) *packet.Packet { return r.st.in.pkt(r.inIdx(port, vc)) }

// InputRoute returns the granted (route, outVC) of input VC (port, vc).
func (r *Router) InputRoute(port, vc int) (route, outVC int) {
	i := r.inIdx(port, vc)
	return int(r.st.inRoute[i]), int(r.st.inOutVC[i])
}

// InputTimer returns the deadlock-timer state of input VC (port, vc): the
// header's T_elapsed, whether it is presumed deadlocked, and whether a flit
// left this cycle. The divergence reporter of internal/network's lockstep
// tests uses it to name the first field in which two networks differ.
func (r *Router) InputTimer(port, vc int) (waiting sim.Cycle, presumed, sent bool) {
	i := r.inIdx(port, vc)
	return sim.Cycle(r.waiting(i)), r.hasMask(mPre, i), r.hasMask(mSent, i)
}

// InputOccupancy returns the number of buffered flits in input VC (port, vc).
func (r *Router) InputOccupancy(port, vc int) int { return int(r.st.in.n[r.inIdx(port, vc)]) }

// InputHead returns the head flit of input VC (port, vc); ok is false when
// the buffer is empty.
func (r *Router) InputHead(port, vc int) (packet.Flit, bool) {
	q, i := &r.st.in, r.inIdx(port, vc)
	if q.n[i] == 0 {
		return packet.Flit{}, false
	}
	return packet.Flit{Pkt: q.pkt(i), Seq: int(q.seq[i])}, true
}

// OutputOwner returns the packet holding output VC (port, vc), if any: the
// header here that holds its grant, else the downstream slot's owner until
// its tail has entered that slot.
func (r *Router) OutputOwner(port, vc int) *packet.Packet {
	if r.granted(port, vc) {
		return r.grantHolder(port, vc)
	}
	d := r.downIdx(port, vc)
	if d < 0 {
		return nil
	}
	q := &r.st.in
	p := q.pkt(d)
	if p == nil || (q.n[d] != 0 && int(q.seq[d])+int(q.n[d]) == p.Length) {
		return nil // idle, or the tail has crossed
	}
	return p
}

// Credits returns the credit count of output VC (port, vc): the free space
// of the buffer it feeds, the full depth where the port has no link.
func (r *Router) Credits(port, vc int) int {
	n := 0
	if d := r.downIdx(port, vc); d >= 0 {
		n = int(r.st.in.n[d])
	}
	return r.st.cfg.BufferDepth - n
}

// DBLanes returns the number of Deadlock Buffer units (0 with recovery
// disabled, 1 for sequential recovery, 2 for concurrent recovery).
func (r *Router) DBLanes() int { return r.st.lanes }

// DBOccupancy returns the total number of flits across all Deadlock
// Buffer lanes.
func (r *Router) DBOccupancy() int {
	n := 0
	for lane := 0; lane < r.st.lanes; lane++ {
		n += int(r.st.db.n[r.dbIdx(lane)])
	}
	return n
}

// DBOwner returns the packet currently threading the (first) Deadlock
// Buffer lane; use DBLaneOwner for a specific lane.
func (r *Router) DBOwner() *packet.Packet {
	if r.st.lanes == 0 {
		return nil
	}
	return r.st.db.pkt(r.db0)
}

// DBLaneOwner returns the packet threading the given Deadlock Buffer lane.
func (r *Router) DBLaneOwner(lane int) *packet.Packet { return r.st.db.pkt(r.dbIdx(lane)) }

// InputPorts returns the number of input ports including injection.
func (r *Router) InputPorts() int { return r.st.deg + 1 }

// InputVCCount returns the number of VCs on the given input port.
func (r *Router) InputVCCount(port int) int { return r.st.inVCCount(port) }

// Quiescent reports whether the router holds no flits at all. O(1): backed
// by the maintained flit counter rather than a buffer walk.
func (r *Router) Quiescent() bool { return r.st.flitCount[r.node] == 0 }

// String identifies the router by coordinate (or node id on a
// coordinate-free graph) and algorithm for logs.
func (r *Router) String() string {
	if r.st.ctopo != nil {
		return fmt.Sprintf("router@%v(%s)", r.st.ctopo.Coord(r.node), r.st.alg.Name())
	}
	return fmt.Sprintf("router@%d(%s)", r.node, r.st.alg.Name())
}

// Disconnect severs the output link on the given port (fault injection).
// The network drops the link's victims and releases its grants first.
func (r *Router) Disconnect(port int) { r.st.nbr[r.pt0+port] = -1 }
