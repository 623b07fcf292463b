package telemetry

import (
	"bytes"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ev builds the event the network would emit for pkt at node in cycle.
func ev(k Kind, pkt int64, node int, cycle int64) Event {
	return Event{Cycle: sim.Cycle(cycle), Kind: k, Node: topology.Node(node), Pkt: packet.ID(pkt)}
}

func TestEpisodeLifecycleDelivered(t *testing.T) {
	r := NewRegistry()
	tr := NewEpisodeTracker(8)
	tr.Register(r)

	tr.Observe(ev(Timeout, 7, 3, 100))
	if !tr.HasPending() {
		t.Fatal("HasPending() = false after Open, want true")
	}
	tr.LabelPending(true, map[int64]bool{7: true})
	if tr.HasPending() {
		t.Error("HasPending() = true after LabelPending, want false")
	}
	tr.Observe(ev(TokenCapture, 7, 0, 104))
	tr.Observe(ev(Recover, 7, 0, 105))
	tr.Observe(ev(TokenRelease, 7, 0, 130))
	tr.Observe(ev(Deliver, 7, 0, 132))

	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("Spans() = %d spans, want 1", len(spans))
	}
	s := spans[0]
	want := EpisodeSpan{
		Seq: 0, Pkt: 7, Node: 3, Start: 100,
		Capture: 104, Recover: 105, Release: 130, End: 132,
		Outcome: "delivered", TrueCycle: true, Member: true,
	}
	if *s != want {
		t.Errorf("span = %+v, want %+v", *s, want)
	}
	if tr.OpenCount() != 0 {
		t.Errorf("OpenCount() = %d, want 0", tr.OpenCount())
	}
	if tr.Total() != 1 {
		t.Errorf("Total() = %d, want 1", tr.Total())
	}

	got := map[string]float64{}
	for _, sm := range r.Gather() {
		got[sm.Name+sm.Labels.render()] = sm.Value
	}
	if v := got[`disha_episodes_total{verdict="true-cycle"}`]; v != 1 {
		t.Errorf("true-cycle counter = %g, want 1", v)
	}
	if v := got[`disha_episode_outcomes_total{outcome="delivered"}`]; v != 1 {
		t.Errorf("delivered counter = %g, want 1", v)
	}
	if v := got["disha_episode_resolve_cycles_count"]; v != 1 {
		t.Errorf("resolve histogram count = %g, want 1", v)
	}
	if v := got["disha_episode_resolve_cycles_sum"]; v != 32 {
		t.Errorf("resolve histogram sum = %g, want 32 (132-100)", v)
	}
	if v := got["disha_episode_db_cycles_sum"]; v != 27 {
		t.Errorf("db histogram sum = %g, want 27 (132-105)", v)
	}
	if v := got["disha_episodes_open"]; v != 0 {
		t.Errorf("open gauge = %g, want 0", v)
	}
}

func TestEpisodeFalsePresumption(t *testing.T) {
	r := NewRegistry()
	tr := NewEpisodeTracker(8)
	tr.Register(r)

	// Congestion drains on its own: no Token capture, no DB switch.
	tr.Observe(ev(Timeout, 9, 1, 50))
	tr.LabelPending(false, nil)
	tr.Observe(ev(Deliver, 9, 0, 60))

	s := tr.Spans()[0]
	if s.TrueCycle || s.Member {
		t.Errorf("false presumption labeled TrueCycle=%v Member=%v, want false/false", s.TrueCycle, s.Member)
	}
	if s.Capture != -1 || s.Recover != -1 || s.Release != -1 {
		t.Errorf("unreached phases should stay -1: capture=%d recover=%d release=%d",
			s.Capture, s.Recover, s.Release)
	}
	got := map[string]float64{}
	for _, sm := range r.Gather() {
		got[sm.Name+sm.Labels.render()] = sm.Value
	}
	if v := got[`disha_episodes_total{verdict="false-presumption"}`]; v != 1 {
		t.Errorf("false-presumption counter = %g, want 1", v)
	}
	// No DB time to observe when the packet never entered the lane.
	if v := got["disha_episode_db_cycles_count"]; v != 0 {
		t.Errorf("db histogram count = %g, want 0", v)
	}
}

func TestEpisodeKilled(t *testing.T) {
	r := NewRegistry()
	tr := NewEpisodeTracker(8)
	tr.Register(r)
	tr.Observe(ev(Timeout, 4, 2, 10))
	tr.LabelPending(true, nil)
	tr.Observe(ev(Kill, 4, 0, 25))
	s := tr.Spans()[0]
	if s.Outcome != "killed" || s.End != 25 {
		t.Errorf("killed span = %+v, want outcome=killed end=25", *s)
	}
	if s.TrueCycle != true || s.Member != false {
		t.Errorf("span verdict = TrueCycle=%v Member=%v, want true/false", s.TrueCycle, s.Member)
	}
	// A killed packet that is re-injected and re-presumed opens a NEW span.
	tr.Observe(ev(Timeout, 4, 2, 40))
	if tr.OpenCount() != 1 || tr.Total() != 2 {
		t.Errorf("after re-presumption: OpenCount=%d Total=%d, want 1, 2", tr.OpenCount(), tr.Total())
	}
	// A reconfiguration drop is not an abort-and-retry kill: the event
	// stream tells them apart, so the span and the counter do too.
	tr.Observe(ev(Drop, 4, 2, 55))
	if s := tr.Spans()[1]; s.Outcome != "dropped" || s.End != 55 {
		t.Errorf("dropped span = %+v, want outcome=dropped end=55", *s)
	}
	got := map[string]float64{}
	for _, sm := range r.Gather() {
		got[sm.Name+sm.Labels.render()] = sm.Value
	}
	for outcome, want := range map[string]float64{"killed": 1, "dropped": 1, "delivered": 0} {
		if v := got[`disha_episode_outcomes_total{outcome="`+outcome+`"}`]; v != want {
			t.Errorf("%s counter = %g, want %g", outcome, v, want)
		}
	}
}

func TestEpisodeReopenAbsorbed(t *testing.T) {
	tr := NewEpisodeTracker(8)
	tr.Observe(ev(Timeout, 1, 0, 10))
	tr.LabelPending(false, nil)
	tr.Observe(ev(Timeout, 1, 5, 20)) // header re-crossed T_out while still blocked
	if tr.Total() != 1 {
		t.Fatalf("Total() = %d after re-open, want 1 (absorbed)", tr.Total())
	}
	tr.Observe(ev(Deliver, 1, 0, 30))
	s := tr.Spans()[0]
	if s.Start != 10 || s.Node != 0 {
		t.Errorf("re-open must keep the original span: start=%d node=%d, want 10, 0", s.Start, s.Node)
	}
	// First-write-wins on phase marks too.
	tr.Observe(ev(Timeout, 2, 0, 40))
	tr.LabelPending(false, nil)
	tr.Observe(ev(TokenCapture, 2, 0, 41))
	tr.Observe(ev(TokenCapture, 2, 0, 45))
	tr.Observe(ev(Deliver, 2, 0, 50))
	if got := tr.Spans()[1].Capture; got != 41 {
		t.Errorf("second Capture overwrote the first: %d, want 41", got)
	}
}

func TestEpisodeFlushOpen(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	tr := NewEpisodeTracker(8)
	tr.SetWriter(w)

	// Open out of pkt order; FlushOpen must emit in Seq order.
	tr.Observe(ev(Timeout, 30, 0, 5))
	tr.Observe(ev(Timeout, 10, 1, 6))
	tr.Observe(ev(Timeout, 20, 2, 7))
	tr.LabelPending(false, nil)
	tr.FlushOpen(100)

	if tr.OpenCount() != 0 {
		t.Errorf("OpenCount() = %d after FlushOpen, want 0", tr.OpenCount())
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	lines, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3", len(lines))
	}
	for i, l := range lines {
		if l.Type != "span" || l.Span == nil {
			t.Fatalf("line %d: type=%q span=%v, want span line", i, l.Type, l.Span)
		}
		if l.Span.Seq != int64(i) {
			t.Errorf("line %d: Seq = %d, want %d (Seq order)", i, l.Span.Seq, i)
		}
		if l.Span.Outcome != "open" || l.Span.End != 100 {
			t.Errorf("line %d: outcome=%q end=%d, want open/100", i, l.Span.Outcome, l.Span.End)
		}
		if l.Cycle != 100 {
			t.Errorf("line %d: Cycle = %d, want 100 (span End)", i, l.Cycle)
		}
	}
}

func TestEpisodeRingEviction(t *testing.T) {
	tr := NewEpisodeTracker(2)
	for pkt := int64(0); pkt < 4; pkt++ {
		tr.Observe(ev(Timeout, pkt, 0, pkt*10))
		tr.LabelPending(false, nil)
		tr.Observe(ev(Deliver, pkt, 0, pkt*10+5))
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("Spans() = %d, want 2 (ring depth)", len(spans))
	}
	if spans[0].Pkt != 2 || spans[1].Pkt != 3 {
		t.Errorf("ring holds pkts %d,%d, want 2,3 (oldest evicted, oldest-first order)",
			spans[0].Pkt, spans[1].Pkt)
	}
	if tr.Total() != 4 {
		t.Errorf("Total() = %d, want 4 (eviction does not forget totals)", tr.Total())
	}
}

func TestEpisodeSpanJSONLRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	s := &EpisodeSpan{
		Seq: 3, Pkt: 42, Node: 6, Start: 10, Capture: 12, Recover: 13,
		Release: 20, End: 22, Outcome: "delivered", TrueCycle: true, Member: true,
	}
	w.WriteSpan(s)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	lines, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(lines) != 1 || lines[0].Type != "span" || lines[0].Span == nil {
		t.Fatalf("decoded %+v, want one span line", lines)
	}
	if got := *lines[0].Span; got != *s {
		t.Errorf("roundtripped span = %+v, want %+v", got, *s)
	}
}

// TestEpisodeTrackerNilSafety closes a span on a tracker whose metrics
// were never registered (its histograms are nil).
func TestEpisodeTrackerNilSafety(t *testing.T) {
	live := NewEpisodeTracker(1)
	live.Observe(ev(Timeout, 1, 0, 0))
	live.LabelPending(true, nil)
	live.Observe(ev(Deliver, 1, 0, 5))
	if live.Total() != 1 || len(live.Spans()) != 1 {
		t.Errorf("unregistered tracker Total() = %d, %d spans; want 1, 1", live.Total(), len(live.Spans()))
	}
}

// TestHubEpisodeOptions: every hub has an episode tracker, retaining
// EpisodeDepth spans, or 256 when EpisodeDepth is not positive.
func TestHubEpisodeOptions(t *testing.T) {
	for depth, want := range map[int]int{0: 256, -1: 256, 3: 3} {
		if got := cap(NewHub(Options{EpisodeDepth: depth}).Episodes.closed.buf); got != want {
			t.Errorf("EpisodeDepth %d: tracker retains %d spans, want %d", depth, got, want)
		}
	}
}
