package telemetry

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Kind classifies a packet lifecycle event.
type Kind int

const (
	// Inject: a packet's header entered the network at its source.
	Inject Kind = iota
	// Deliver: a packet's tail was consumed at its destination.
	Deliver
	// Timeout: a blocked header's T_elapsed crossed T_out.
	Timeout
	// Recover: a packet was switched onto the Deadlock Buffer lane.
	Recover
	// TokenCapture: the recovery Token was captured at a router.
	TokenCapture
	// TokenRelease: the destination released the Token.
	TokenRelease
	// Kill: abort-and-retry recovery purged the packet for retransmission.
	Kill
	// Drop: a dynamic reconfiguration event discarded the packet's
	// in-flight flits; unlike Kill it is not retransmitted.
	Drop
)

var kindNames = [...]string{"inject", "deliver", "timeout", "recover", "token-capture", "token-release", "kill", "drop"}

// String returns the kind's name as the JSONL "event" line spells it.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindStrings returns every kind's string form in canonical (declaration)
// order, for tools that render per-kind summaries.
func KindStrings() []string {
	return append([]string(nil), kindNames[:]...)
}

// Event is one step of a packet's lifecycle. The network builds it once, at
// the site where the step happens, and hands it to the Hub, whose snapshot
// trigger, episode tracker and JSONL "event" line read that same record.
type Event struct {
	Cycle sim.Cycle
	Kind  Kind
	Node  topology.Node
	Pkt   packet.ID
}

// ring retains the most recent cap(buf) values pushed into it.
type ring[T any] struct {
	buf  []T
	next int // the oldest slot once buf is full; 0 until then
}

func newRing[T any](capacity int) ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return ring[T]{buf: make([]T, 0, capacity)}
}

// slot advances the ring by one value and returns that value's slot: a
// zero one while the ring fills, then the oldest, whose contents the caller
// may reuse (a flight-recorder frame keeps its router list's array).
func (r *ring[T]) slot() *T {
	if len(r.buf) < cap(r.buf) {
		r.buf = r.buf[:len(r.buf)+1]
		return &r.buf[len(r.buf)-1]
	}
	s := &r.buf[r.next]
	r.next = (r.next + 1) % cap(r.buf)
	return s
}

// push appends v, evicting the oldest value when full.
func (r *ring[T]) push(v T) { *r.slot() = v }

// items returns the retained values oldest-first, in a slice of its own.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
