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
// Buffer lane table) and the hot per-cycle state — VC buffers, credits,
// deadlock timers, crossbar connections — as flat struct-of-arrays buffers. A
// Router is a view over its slice of those buffers, so the per-cycle scan
// phases sweep contiguous memory while the router API, digests and snapshots
// stay layout-invariant.
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

// Deadlock Buffer lane indices for concurrent recovery.
const (
	laneUp   = 0 // toward increasing positions on the recovery order
	laneDown = 1 // toward decreasing positions on the recovery order
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

// Router is one network node's switch: a view over the node's slice of the
// network-wide State. It holds only what is the node's own — its base
// offsets into the shared buffers, its wiring (neighbors, reverse ports),
// its RNG stream, and the cold counters and scratch
// no per-cycle scan sweeps. Everything network-wide (topology, configuration,
// routing and selection functions, the Deadlock Buffer lane table) is read
// through st.
type Router struct {
	node topology.Node
	rng  *sim.RNG

	// Shared state and this router's base offsets into its buffers.
	st   *State
	in0  int // first input VC slot:       node * st.stride
	out0 int // first output VC slot:      node * st.outStr
	db0  int // first Deadlock Buffer slot: node * st.lanes
	cx0  int // first crossbar slot:        node * st.deg
	sw0  int // first switch-arb slot:      node * (st.deg + 1)
	mk0  int // first slot-mask word:       node * maskKinds * st.w

	neighbors []*Router // per network port; nil where no link exists

	// rev caches topo.ReversePortAt for every output port: rev[p] is the
	// input port at neighbors[p] that our link lands on, or -1 where the
	// port is unconnected or unpaired. The transfer-commit and credit hot
	// paths index it instead of re-deriving the pairing per flit.
	rev []int32

	stats Stats

	// Telemetry instrumentation, maintained by TickTimers (which already
	// visits every input VC that can block, so this costs almost nothing):
	// cumulative blocked cycles keyed by VC index.
	blockedByVC []int64
}

// NewWithState constructs the view of node over the shared state st, with
// rng as the router's private selection stream. The caller wires neighbors
// with Connect before the first cycle.
func NewWithState(node topology.Node, rng *sim.RNG, st *State) *Router {
	deg, cfg := st.deg, st.cfg
	r := &Router{
		node:        node,
		rng:         rng,
		st:          st,
		in0:         int(node) * st.stride,
		out0:        int(node) * st.outStr,
		db0:         int(node) * st.lanes,
		cx0:         int(node) * deg,
		sw0:         int(node) * (deg + 1),
		mk0:         int(node) * maskKinds * st.w,
		neighbors:   make([]*Router, deg),
		rev:         make([]int32, deg),
		blockedByVC: make([]int64, max(cfg.VCs, cfg.InjectionVCs)),
	}
	for p := 0; p < deg; p++ {
		if q, ok := st.topo.ReversePortAt(node, p); ok {
			r.rev[p] = int32(q)
		} else {
			r.rev[p] = -1
		}
	}
	return r
}

// New constructs a standalone router for node over a State of its own
// (cfg already normalized), timed by clock. Tests and single-router tools
// use it; a network shares one State across all routers via NewState +
// NewWithState instead.
func New(node topology.Node, topo topology.Graph, cfg Config, alg routing.Algorithm, sel routing.Selection, rng *sim.RNG, clock *sim.Clock) *Router {
	return NewWithState(node, rng, NewState(topo, cfg, alg, sel, clock))
}

// EffectiveTimeout returns the router's current deadlock time-out: the
// configured T_out, or the self-tuned value under AdaptiveTimeout.
func (r *Router) EffectiveTimeout() sim.Cycle { return r.effTimeoutAt(r.st.clock.Now()) }

// Connect wires the neighbor reached through the given output port. The
// network calls it for both directions of every link.
func (r *Router) Connect(port int, neighbor *Router) {
	r.neighbors[port] = neighbor
}

// Neighbor returns the router wired to the given output port (nil where no
// link exists). Analysis tools use it to follow wait-for relations across
// links.
func (r *Router) Neighbor(port int) *Router { return r.neighbors[port] }

// InjectionPort returns the input port index of the injection channel.
func (r *Router) InjectionPort() int { return r.st.deg }

// Algorithm returns the routing algorithm this router runs; analysis tools
// use it to recompute a blocked header's candidate set.
func (r *Router) Algorithm() routing.Algorithm { return r.st.alg }

// NodeID returns the router's node.
func (r *Router) NodeID() topology.Node { return r.node }

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
	if vc < 0 || vc >= len(r.blockedByVC) {
		return 0
	}
	return r.blockedByVC[vc]
}

// --- routing.View -----------------------------------------------------------

// Node implements routing.View.
func (r *Router) Node() topology.Node { return r.node }

// Topo implements routing.View.
func (r *Router) Topo() topology.Graph { return r.st.topo }

// ReverseAt returns the input port at Neighbor(port) that this router's
// link through port lands on, or -1 where the port is unconnected or has
// no paired reverse channel. Wait-for-graph analysis and the invariant
// checker use it to follow flow control across arbitrary-graph links.
func (r *Router) ReverseAt(port int) int {
	if port < 0 || port >= len(r.rev) {
		return -1
	}
	return int(r.rev[port])
}

// VCs implements routing.View.
func (r *Router) VCs() int { return r.st.cfg.VCs }

// LinkExists implements routing.View.
func (r *Router) LinkExists(port int) bool {
	return port >= 0 && port < len(r.neighbors) && r.neighbors[port] != nil
}

// OutputVCFree implements routing.View: a VC is allocatable only when no
// packet owns it and the downstream buffer has fully drained (atomic VC
// reallocation, so packets never interleave inside one edge buffer).
func (r *Router) OutputVCFree(port, vc int) bool {
	i := r.outIdx(port, vc)
	return r.st.outOwner[i] == nil && int(r.st.outCredits[i]) == r.st.cfg.BufferDepth
}

// OccupantDimReversals implements routing.View.
func (r *Router) OccupantDimReversals(port, vc int) (int, bool) {
	o := r.st.outOwner[r.outIdx(port, vc)]
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
// returns false if the injection channel cannot accept it this cycle: the
// flit's packet must already own an injection VC with buffer space, or — for
// a header — some injection VC must be idle.
func (r *Router) InjectFlit(fl packet.Flit, now sim.Cycle) bool {
	s := r.st
	base := r.inIdx(s.deg, 0)
	if fl.IsHeader() {
		for v := 0; v < s.cfg.InjectionVCs; v++ {
			i := base + v
			if s.inPkt[i] == nil && s.in.n[i] == 0 {
				s.inPkt[i] = fl.Pkt
				r.pushIn(i, fl)
				s.flitCount[r.node]++
				fl.Pkt.InjectedAt = now
				return true
			}
		}
		return false
	}
	for v := 0; v < s.cfg.InjectionVCs; v++ {
		i := base + v
		if s.inPkt[i] == fl.Pkt && int(s.in.n[i]) < s.cfg.BufferDepth {
			r.pushIn(i, fl)
			s.flitCount[r.node]++
			return true
		}
	}
	return false
}

// --- Introspection helpers (tests, wait-for-graph analysis) ------------------

// InputOwner returns the packet owning input VC (port, vc), if any.
func (r *Router) InputOwner(port, vc int) *packet.Packet { return r.st.inPkt[r.inIdx(port, vc)] }

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
	return r.st.inWaiting[i], r.st.inPresumed[i], r.hasMask(mSent, i)
}

// InputOccupancy returns the number of buffered flits in input VC (port, vc).
func (r *Router) InputOccupancy(port, vc int) int { return int(r.st.in.n[r.inIdx(port, vc)]) }

// InputHead returns the head flit of input VC (port, vc); ok is false when
// the buffer is empty.
func (r *Router) InputHead(port, vc int) (packet.Flit, bool) {
	i := r.inIdx(port, vc)
	if r.st.in.n[i] == 0 {
		return packet.Flit{}, false
	}
	return r.st.in.peek(i), true
}

// OutputOwner returns the packet holding output VC (port, vc), if any.
func (r *Router) OutputOwner(port, vc int) *packet.Packet { return r.st.outOwner[r.outIdx(port, vc)] }

// Credits returns the credit count of output VC (port, vc).
func (r *Router) Credits(port, vc int) int { return int(r.st.outCredits[r.outIdx(port, vc)]) }

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
	return r.st.dbPkt[r.db0]
}

// DBLaneOwner returns the packet threading the given Deadlock Buffer lane.
func (r *Router) DBLaneOwner(lane int) *packet.Packet { return r.st.dbPkt[r.dbIdx(lane)] }

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
// The network guarantees the link is idle when it calls this.
func (r *Router) Disconnect(port int) { r.neighbors[port] = nil }

// LinkBusy reports whether any traffic state rides the output link on port:
// an owned output VC, undrained downstream credits, or Deadlock Buffer
// traffic routed through it. Fault injection refuses busy links (dynamic
// mid-stream faults lose flits and are out of scope, as in the paper). Like
// PurgePacket it walks every input slot: a granted VC may be empty, and no
// slot mask covers the empty ones.
func (r *Router) LinkBusy(port int) bool {
	if r.neighbors[port] == nil {
		return false
	}
	s := r.st
	for v := 0; v < s.cfg.VCs; v++ {
		i := r.outIdx(port, v)
		if s.outOwner[i] != nil || int(s.outCredits[i]) != s.cfg.BufferDepth {
			return true
		}
	}
	for lane := 0; lane < s.lanes; lane++ {
		i := r.dbIdx(lane)
		if s.dbPkt[i] != nil && int(s.dbRoute[i]) == port {
			return true
		}
	}
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		if s.inPkt[i] != nil && int(s.inRoute[i]) == port {
			return true
		}
	}
	return false
}
