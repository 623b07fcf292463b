package telemetry

import (
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

func TestEventRingEviction(t *testing.T) {
	b := NewEventRing(3)
	for i := 0; i < 5; i++ {
		b.Record(Event{Cycle: int64Cycle(i), Kind: Inject, Pkt: pid(i)})
	}
	if b.Total() != 5 {
		t.Fatalf("total %d", b.Total())
	}
	evs := b.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d", len(evs))
	}
	for i, e := range evs {
		if e.Pkt != pid(i+2) {
			t.Fatalf("event %d is pkt %d, want %d (oldest-first)", i, e.Pkt, i+2)
		}
	}
}

func TestEventRingCountsAndFilter(t *testing.T) {
	b := NewEventRing(10)
	b.Record(Event{Kind: Inject, Pkt: 1})
	b.Record(Event{Kind: Deliver, Pkt: 1})
	b.Record(Event{Kind: Inject, Pkt: 2})
	b.Record(Event{Kind: Recover, Pkt: 2})
	if b.Count(Inject) != 2 || b.Count(Deliver) != 1 || b.Count(TokenRelease) != 0 {
		t.Fatal("counts wrong")
	}
	if got := b.Filter(Inject); len(got) != 2 || got[0].Pkt != 1 || got[1].Pkt != 2 {
		t.Fatalf("filter wrong: %v", got)
	}
	if got := b.PacketHistory(2); len(got) != 2 || got[1].Kind != Recover {
		t.Fatalf("history wrong: %v", got)
	}
}

func TestEventRingDumpAndStrings(t *testing.T) {
	b := NewEventRing(4)
	b.Record(Event{Cycle: 7, Kind: TokenCapture, Node: 3, Pkt: 9})
	s := b.Dump()
	if !strings.Contains(s, "token-capture") || !strings.Contains(s, "pkt=9") {
		t.Fatalf("dump: %q", s)
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind must format")
	}
	for k := Inject; k <= TokenRelease; k++ {
		if strings.Contains(k.String(), "Kind(") {
			t.Fatalf("kind %d missing name", k)
		}
	}
}

func TestEventRingTinyCapacityClamped(t *testing.T) {
	b := NewEventRing(0)
	b.Record(Event{Pkt: 1})
	b.Record(Event{Pkt: 2})
	if got := b.Events(); len(got) != 1 || got[0].Pkt != 2 {
		t.Fatalf("clamped buffer wrong: %v", got)
	}
}

func int64Cycle(i int) sim.Cycle { return sim.Cycle(i) }

func pid(i int) packet.ID { return packet.ID(i) }
