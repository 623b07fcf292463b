package telemetry

import (
	"fmt"
	"strings"

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
	// Drop: a dynamic reconfiguration event (link or router kill) discarded
	// the packet's in-flight flits; unlike Kill it is not retransmitted.
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
// the site where the step happens, and every consumer — the EventRing, the
// Hub's snapshot trigger, episode tracker and JSONL "event" line — reads
// that same record.
type Event struct {
	Cycle sim.Cycle
	Kind  Kind
	Node  topology.Node
	Pkt   packet.ID
}

// String renders the event as one fixed-width line (EventRing.Dump).
func (e Event) String() string {
	return fmt.Sprintf("[%6d] %-13s node=%-4d pkt=%d", e.Cycle, e.Kind, e.Node, e.Pkt)
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

// push appends v, evicting the oldest value when full.
func (r *ring[T]) push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % cap(r.buf)
}

// items returns the retained values oldest-first, in a slice of its own.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// EventRing keeps the most recent events of a run for debugging and
// teaching, and counts every event ever recorded by kind. It is opt-in
// (Network.EnableTrace) and independent of the Hub. Like the rest of the
// package it is nil-safe: reads return zero values, Record is a no-op.
type EventRing struct {
	events ring[Event]
	total  int64
	counts [len(kindNames)]int64
}

// NewEventRing returns a ring keeping the most recent capacity events
// (minimum 1).
func NewEventRing(capacity int) *EventRing {
	return &EventRing{events: newRing[Event](capacity)}
}

// Record appends an event, evicting the oldest when full. No-op on nil.
func (b *EventRing) Record(e Event) {
	if b == nil {
		return
	}
	b.events.push(e)
	b.total++
	b.counts[e.Kind]++
}

// Total returns how many events were ever recorded (including evicted).
func (b *EventRing) Total() int64 {
	if b == nil {
		return 0
	}
	return b.total
}

// Count returns how many events of kind were ever recorded.
func (b *EventRing) Count(k Kind) int64 {
	if b == nil || int(k) >= len(b.counts) {
		return 0
	}
	return b.counts[k]
}

// Events returns the retained events oldest-first.
func (b *EventRing) Events() []Event {
	if b == nil {
		return nil
	}
	return b.events.items()
}

// Filter returns retained events of one kind, oldest-first.
func (b *EventRing) Filter(k Kind) []Event {
	var out []Event
	for _, e := range b.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// PacketHistory returns retained events for one packet, oldest-first.
func (b *EventRing) PacketHistory(id packet.ID) []Event {
	var out []Event
	for _, e := range b.Events() {
		if e.Pkt == id {
			out = append(out, e)
		}
	}
	return out
}

// Dump renders the retained events, one per line.
func (b *EventRing) Dump() string {
	var sb strings.Builder
	for _, e := range b.Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
