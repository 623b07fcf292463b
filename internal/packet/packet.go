// Package packet defines the messages moved by the simulator: multi-flit
// wormhole packets and the flits they decompose into, together with the
// per-packet bookkeeping that the routing algorithms in this repository need
// (misroute counts for Disha's livelock bound, dimension-reversal counts for
// Dally & Aoki, class state for Duato, and recovery state for the Deadlock
// Buffer lane).
package packet

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// ID uniquely identifies a packet within one simulation.
type ID int64

// Kind classifies a flit's position within its packet.
type Kind int

const (
	// Header is the first flit; it carries routing information and reserves
	// channel state as it advances.
	Header Kind = iota
	// Body is an interior data flit.
	Body
	// Tail is the last flit; it releases reserved channel state.
	Tail
	// HeaderTail is the only flit of a single-flit packet.
	HeaderTail
)

// String names the flit kind for traces and test failures.
func (k Kind) String() string {
	switch k {
	case Header:
		return "header"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeaderTail:
		return "header+tail"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Flit is one flow-control unit. Flits are small values; all shared mutable
// state lives on the owning Packet.
type Flit struct {
	Pkt *Packet
	Seq int // 0-based position within the packet
}

// Kind derives the flit's role from its position.
func (f Flit) Kind() Kind {
	switch {
	case f.Pkt.Length == 1:
		return HeaderTail
	case f.Seq == 0:
		return Header
	case f.Seq == f.Pkt.Length-1:
		return Tail
	default:
		return Body
	}
}

// IsHeader reports whether this flit leads its packet.
func (f Flit) IsHeader() bool { return f.Seq == 0 }

// IsTail reports whether this flit ends its packet.
func (f Flit) IsTail() bool { return f.Seq == f.Pkt.Length-1 }

// String renders the flit as "pktID/kind[seq/len]" for traces.
func (f Flit) String() string {
	return fmt.Sprintf("pkt%d/%s[%d/%d]", f.Pkt.ID, f.Kind(), f.Seq, f.Pkt.Length)
}

// Packet is a wormhole message. The simulator creates each packet once and
// threads pointers to it through flits and channel state; fields below the
// routing-state comment are mutated as the packet advances.
type Packet struct {
	ID     ID
	Src    topology.Node
	Dst    topology.Node
	Length int // number of flits

	// Timing, in simulation cycles.
	CreatedAt   sim.Cycle // enqueued at the source
	InjectedAt  sim.Cycle // header entered the router at the source
	DeliveredAt sim.Cycle // tail consumed at the destination; -1 until then

	// Routing state.
	Hops            int    // header hops taken so far
	Misroutes       int    // non-profitable hops taken (Disha livelock bound)
	DimReversals    int    // higher-to-lower dimension traversals (Dally & Aoki)
	OnDeterministic bool   // Dally & Aoki: forced onto the deterministic class
	DatelineCrossed uint64 // bit d set once the packet crossed dimension d's torus dateline
	LastDim         int    // dimension of the previous hop (-1 before the first hop)

	// Retries counts abort-and-retry retransmissions of this packet.
	Retries int

	// Deadlock recovery state (Disha).
	OnDB        bool // packet switched onto the Deadlock Buffer lane
	TimedOut    bool // packet ever presumed deadlocked
	SeizedToken bool // packet captured the recovery Token
	// Waiting is the header's T_elapsed, the blocking time-out the paper
	// keeps per packet: the cycles its header has waited at the head of the
	// input VC it is in, saturating at math.MaxInt32. The router that holds
	// the header ticks it, and a header entering a VC starts it at 0; it
	// means nothing while the header is not at an input VC's head (the
	// router reads 0 for every other VC).
	Waiting     int32
	RecoveredAt sim.Cycle // cycle the packet switched to the DB lane; -1 if never

	// Delivery accounting.
	FlitsDelivered int // flits consumed at the destination so far
	HeaderArrived  bool

	// Handle names the packet in its network's router state while it owns
	// an input VC or a Deadlock Buffer lane (0 otherwise): the VCs store it
	// in place of a pointer. The routers assign and free it, so a packet
	// belongs to one network. It is never coded; snapshots name packets by
	// ID.
	Handle int32
}

// New creates a packet with delivery timestamps initialized to -1.
func New(id ID, src, dst topology.Node, length int, now sim.Cycle) *Packet {
	if length < 1 {
		panic("packet: length must be >= 1")
	}
	return &Packet{
		ID:          id,
		Src:         src,
		Dst:         dst,
		Length:      length,
		CreatedAt:   now,
		InjectedAt:  -1,
		DeliveredAt: -1,
		RecoveredAt: -1,
		LastDim:     -1,
	}
}

// Flit returns flit seq of this packet.
func (p *Packet) Flit(seq int) Flit {
	if seq < 0 || seq >= p.Length {
		panic(fmt.Sprintf("packet: flit %d out of range for length %d", seq, p.Length))
	}
	return Flit{Pkt: p, Seq: seq}
}

// Delivered reports whether every flit has been consumed at the destination.
func (p *Packet) Delivered() bool { return p.FlitsDelivered == p.Length }

// Age returns creation-to-delivery latency; it panics if not yet delivered.
func (p *Packet) Age() sim.Cycle {
	if p.DeliveredAt < 0 {
		panic("packet: Age on undelivered packet")
	}
	return p.DeliveredAt - p.CreatedAt
}

// NetworkLatency returns injection-to-delivery latency (excludes source
// queueing); it panics if the packet has not been injected and delivered.
func (p *Packet) NetworkLatency() sim.Cycle {
	if p.DeliveredAt < 0 || p.InjectedAt < 0 {
		panic("packet: NetworkLatency on undelivered packet")
	}
	return p.DeliveredAt - p.InjectedAt
}

// String summarizes the packet's identity and progress for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt%d %d->%d len=%d hops=%d", p.ID, p.Src, p.Dst, p.Length, p.Hops)
}
