// Package trace records notable simulation events — injections, deliveries,
// deadlock presumptions, recoveries and Token movements — into a bounded
// ring buffer for debugging and teaching. Tracing is opt-in and records
// only packet-level events, so it does not perturb the per-flit hot path.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Kind classifies an event.
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

// Event is one recorded occurrence.
type Event struct {
	Cycle sim.Cycle
	Kind  Kind
	Node  topology.Node
	Pkt   packet.ID
}

func (e Event) String() string {
	return fmt.Sprintf("[%6d] %-13s node=%-4d pkt=%d", e.Cycle, e.Kind, e.Node, e.Pkt)
}

// Buffer is a fixed-capacity event ring. The zero value is unusable; use
// New. All methods are safe on a nil *Buffer (reads return zero values,
// Record is a no-op), so instrumentation call sites never need their own
// tracing-enabled checks.
type Buffer struct {
	events []Event
	next   int
	total  int64
	counts map[Kind]int64
	sink   func(Event)
}

// New returns a ring buffer keeping the most recent capacity events.
func New(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	return &Buffer{events: make([]Event, 0, capacity), counts: make(map[Kind]int64)}
}

// SetSink installs a callback that observes every recorded event as it
// happens (nil detaches). The ring only retains the most recent events;
// a sink sees them all — the JSONL trace export streams through it.
func (b *Buffer) SetSink(fn func(Event)) {
	if b == nil {
		return
	}
	b.sink = fn
}

// Record appends an event, evicting the oldest when full. No-op on nil.
func (b *Buffer) Record(e Event) {
	if b == nil {
		return
	}
	if len(b.events) < cap(b.events) {
		b.events = append(b.events, e)
	} else {
		b.events[b.next] = e
		b.next = (b.next + 1) % cap(b.events)
	}
	b.total++
	b.counts[e.Kind]++
	if b.sink != nil {
		b.sink(e)
	}
}

// Total returns how many events were ever recorded (including evicted).
func (b *Buffer) Total() int64 {
	if b == nil {
		return 0
	}
	return b.total
}

// Count returns how many events of kind were ever recorded.
func (b *Buffer) Count(k Kind) int64 {
	if b == nil {
		return 0
	}
	return b.counts[k]
}

// Events returns the retained events oldest-first.
func (b *Buffer) Events() []Event {
	if b == nil {
		return nil
	}
	out := make([]Event, 0, len(b.events))
	if len(b.events) == cap(b.events) {
		out = append(out, b.events[b.next:]...)
		out = append(out, b.events[:b.next]...)
		return out
	}
	return append(out, b.events...)
}

// Filter returns retained events of one kind, oldest-first.
func (b *Buffer) Filter(k Kind) []Event {
	var out []Event
	for _, e := range b.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// PacketHistory returns retained events for one packet, oldest-first.
func (b *Buffer) PacketHistory(id packet.ID) []Event {
	var out []Event
	for _, e := range b.Events() {
		if e.Pkt == id {
			out = append(out, e)
		}
	}
	return out
}

// Dump renders the retained events, one per line.
func (b *Buffer) Dump() string {
	var sb strings.Builder
	for _, e := range b.Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
