package telemetry

import (
	"bytes"
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("disha_test_total", "A test counter.", Labels{{Key: "node", Value: "3"}})
	c.Add(41)
	c.Inc()
	r.GaugeFunc("disha_test_gauge", "A test gauge.", nil, func() float64 { return 2.5 })

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "# HELP disha_test_total A test counter.\n" +
		"# TYPE disha_test_total counter\n" +
		"disha_test_total{node=\"3\"} 42\n" +
		"# HELP disha_test_gauge A test gauge.\n" +
		"# TYPE disha_test_gauge gauge\n" +
		"disha_test_gauge 2.5\n"
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistrySharedFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("disha_shared_total", "Shared.", Labels{{Key: "node", Value: "0"}})
	r.Counter("disha_shared_total", "Shared.", Labels{{Key: "node", Value: "1"}})
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "# TYPE disha_shared_total") != 1 {
		t.Fatalf("family header repeated:\n%s", buf.String())
	}
	if len(r.Names()) != 1 {
		t.Fatalf("Names() = %v, want one family", r.Names())
	}
}

func TestPublishSnapshot(t *testing.T) {
	r := NewRegistry()
	v := int64(0)
	r.CounterFunc("disha_live_total", "Live.", nil, func() int64 { return v })
	if r.Published() != nil {
		t.Fatal("Published before first Publish must be nil")
	}
	v = 7
	r.Publish()
	snap := r.Published()
	v = 8 // must not affect the published snapshot
	if !strings.Contains(string(snap), "disha_live_total 7") {
		t.Fatalf("snapshot does not hold published value:\n%s", snap)
	}
}

func TestNilMetricSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	c.Add(5)
	c.Inc()
	g.Set(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil metrics must read zero")
	}
}

func TestSamplerRingWraps(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, 10, 4)
	g := reg.Gauge("p", "sampled", nil)
	ts := s.Track("p")
	for c := int64(0); c <= 70; c++ {
		if !s.Due(c) {
			continue
		}
		g.Set(float64(c))
		s.Sample(c)
	}
	if ts.Len() != 4 {
		t.Fatalf("Len = %d, want ring capacity 4", ts.Len())
	}
	cycles, values := ts.Points()
	wantCycles := []int64{40, 50, 60, 70}
	for i, c := range wantCycles {
		if cycles[i] != c || values[i] != float64(c) {
			t.Fatalf("point %d = (%d, %g), want (%d, %d)", i, cycles[i], values[i], c, c)
		}
	}
}

func TestSamplerEmit(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, 1, 8)
	reg.GaugeFunc("q", "sampled", nil, func() float64 { return 3 })
	s.Track("q")
	var got []int64
	s.Emit = func(cycle int64, name string, v float64) {
		if name != "q" || v != 3 {
			t.Fatalf("emit (%s, %g)", name, v)
		}
		got = append(got, cycle)
	}
	s.Sample(5)
	s.Sample(6)
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("emitted cycles %v", got)
	}
}

// TestSamplerTracksFamilySums checks that a tracked family samples as the
// sum over its label sets, counters and gauges alike, in tracking order,
// and that an unknown or histogram family is refused.
func TestSamplerTracksFamilySums(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, 1, 8)
	for i, v := range []float64{2, 5, 7} {
		g := reg.Gauge("occ", "per node", Labels{{Key: "node", Value: strconv.Itoa(i)}})
		g.Set(v)
	}
	c := reg.Counter("total", "network-wide", nil)
	c.Add(4)
	reg.Histogram("lat", "a histogram", nil, []float64{1})
	s.Track("total")
	s.Track("occ")
	var names []string
	var values []float64
	s.Emit = func(_ int64, name string, v float64) {
		names = append(names, name)
		values = append(values, v)
	}
	s.Sample(1)
	if !slices.Equal(names, []string{"total", "occ"}) || !slices.Equal(values, []float64{4, 14}) {
		t.Fatalf("sampled %v = %v, want [total occ] = [4 14]", names, values)
	}
	for _, name := range []string{"missing", "lat"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Track(%q) did not panic", name)
				}
			}()
			s.Track(name)
		}()
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3, 100, 2)
	for c := int64(1); c <= 5; c++ {
		fr := f.BeginFrame(c)
		fr.Routers = append(fr.Routers, RouterFrame{Node: int32(c), Blocked: 1})
	}
	frames := f.Frames()
	if len(frames) != 3 {
		t.Fatalf("retained %d frames, want 3", len(frames))
	}
	for i, want := range []int64{3, 4, 5} {
		if frames[i].Cycle != want {
			t.Fatalf("frame %d cycle %d, want %d", i, frames[i].Cycle, want)
		}
	}
	// Frames must be deep copies: BeginFrame reuses the oldest slot's backing
	// array, which must not show through previously returned snapshots.
	fr := f.BeginFrame(6)
	fr.Routers = append(fr.Routers, RouterFrame{Node: 99})
	if frames[0].Routers[0].Node != 3 {
		t.Fatal("Frames aliases the live ring")
	}
}

func TestFlightRecorderThrottle(t *testing.T) {
	f := NewFlightRecorder(4, 100, 2)
	if !f.ShouldSnapshot(10) {
		t.Fatal("first snapshot must be allowed")
	}
	f.AddSnapshot(&Snapshot{Cycle: 10})
	if f.ShouldSnapshot(50) {
		t.Fatal("snapshot inside cooldown window allowed")
	}
	if !f.ShouldSnapshot(110) {
		t.Fatal("snapshot after cooldown refused")
	}
	f.AddSnapshot(&Snapshot{Cycle: 110})
	if f.ShouldSnapshot(500) {
		t.Fatal("snapshot beyond the retention bound allowed")
	}
	if len(f.Snapshots()) != 2 {
		t.Fatalf("retained %d snapshots, want 2", len(f.Snapshots()))
	}
}

func TestJSONLRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	w.Meta(map[string]string{"alg": "disha"})
	w.Sample(100, "disha_blocked_headers", 4)
	w.Event(Event{Cycle: 123, Kind: Timeout, Node: 7, Pkt: 55})
	w.WriteSnapshot(&Snapshot{
		Cycle: 130, TriggerNode: 7, TriggerPkt: 55,
		Frames:       []Frame{{Cycle: 129, Routers: []RouterFrame{{Node: 7, Blocked: 2}}}},
		WFG:          []WFGNode{{Node: 7, Pkt: 55, WaitsOn: []int64{56}, Deadlocked: true}},
		TrueDeadlock: true,
	})
	w.WriteCounters(200, map[string]int64{"packets_delivered": 9})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	lines, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 5 {
		t.Fatalf("decoded %d lines, want 5", len(lines))
	}
	if lines[0].Type != "meta" || lines[0].Meta["alg"] != "disha" {
		t.Fatalf("meta line %+v", lines[0])
	}
	if l := lines[1]; l.Type != "sample" || l.Cycle != 100 || l.Name != "disha_blocked_headers" || l.Value != 4 {
		t.Fatalf("sample line %+v", l)
	}
	if l := lines[2]; l.Type != "event" || l.Kind != "timeout" || l.Node != 7 || l.Pkt != 55 {
		t.Fatalf("event line %+v", l)
	}
	s := lines[3].Snapshot
	if s == nil || !s.TrueDeadlock || len(s.Frames) != 1 || len(s.WFG) != 1 || s.WFG[0].WaitsOn[0] != 56 {
		t.Fatalf("snapshot line %+v", lines[3])
	}
	if lines[4].Counters["packets_delivered"] != 9 {
		t.Fatalf("counters line %+v", lines[4])
	}
}

func TestReadJSONLBadLine(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"type\":\"meta\"}\nnot json\n")); err == nil {
		t.Fatal("malformed line not reported")
	}
	// A final line cut short of its newline is a torn tail: reported as
	// such, with every line before it. Followed by more lines it is not.
	lines, err := ReadJSONL(strings.NewReader("{\"type\":\"meta\"}\n{\"type\":\"ev"))
	if !errors.Is(err, ErrTornTail) || len(lines) != 1 {
		t.Fatalf("torn tail: %d lines, err %v; want 1 line and ErrTornTail", len(lines), err)
	}
	if _, err := ReadJSONL(strings.NewReader("{\"type\":\"ev\n{\"type\":\"meta\"}\n")); err == nil || errors.Is(err, ErrTornTail) {
		t.Fatalf("cut line mid-stream: err %v, want a plain decode error", err)
	}
	if lines, err := ReadJSONL(strings.NewReader("{\"type\":\"meta\"}")); err != nil || len(lines) != 1 {
		t.Fatalf("complete final line without newline: %d lines, err %v", len(lines), err)
	}
}

func TestHubTrigger(t *testing.T) {
	h := NewHub(Options{})
	if _, _, ok := h.TakeTrigger(); ok {
		t.Fatal("fresh hub has a trigger")
	}
	h.Observe(Event{Kind: Deliver, Node: 2, Pkt: 9}) // only a Timeout arms it
	h.Observe(Event{Kind: Timeout, Node: 3, Pkt: 10})
	h.Observe(Event{Kind: Timeout, Node: 4, Pkt: 11}) // first presumption of the cycle wins
	node, pkt, ok := h.TakeTrigger()
	if !ok || node != 3 || pkt != 10 {
		t.Fatalf("trigger (%d, %d, %v)", node, pkt, ok)
	}
	if _, _, ok := h.TakeTrigger(); ok {
		t.Fatal("trigger not consumed")
	}

	// Without a flight recorder nothing takes a trigger, so none arms.
	h = NewHub(Options{FlightDepth: -1})
	h.Observe(Event{Kind: Timeout, Node: 3, Pkt: 10})
	if _, _, ok := h.TakeTrigger(); ok {
		t.Fatal("a hub without a flight recorder armed the snapshot trigger")
	}
}

// TestHubObserveOneStream feeds a hub the events of one recovery and reads
// them back from every consumer: the JSONL stream carries each event as it
// was observed, the closing event ahead of the span it closes, and the
// tracker's span is assembled from the same records.
func TestHubObserveOneStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	h := NewHub(Options{Writer: w})
	events := []Event{
		{Cycle: 5, Kind: Inject, Node: 1, Pkt: 8},
		{Cycle: 20, Kind: Timeout, Node: 3, Pkt: 8},
		{Cycle: 22, Kind: TokenCapture, Node: 3, Pkt: 8},
		{Cycle: 22, Kind: Recover, Node: 3, Pkt: 8},
		{Cycle: 30, Kind: TokenRelease, Node: 6, Pkt: 8},
		{Cycle: 31, Kind: Deliver, Node: 6, Pkt: 8},
	}
	for _, e := range events {
		h.Observe(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(events)+1 {
		t.Fatalf("stream has %d lines, want %d events and the span", len(lines), len(events))
	}
	for i, e := range events {
		l := lines[i]
		if l.Type != "event" || l.Cycle != int64(e.Cycle) || l.Kind != e.Kind.String() || l.Node != int(e.Node) || l.Pkt != int64(e.Pkt) {
			t.Errorf("line %d = %+v, want event %v", i, l, e)
		}
	}
	want := EpisodeSpan{Seq: 0, Pkt: 8, Node: 3, Start: 20, Capture: 22, Recover: 22, Release: 30, End: 31, Outcome: "delivered"}
	if last := lines[len(events)]; last.Type != "span" || last.Span == nil || *last.Span != want {
		t.Errorf("last line = %+v (span %+v), want span %+v", last, last.Span, want)
	}
	if spans := h.Episodes.Spans(); len(spans) != 1 || *spans[0] != want {
		t.Errorf("tracker spans = %v, want the one the stream carries", spans)
	}
	if node, pkt, ok := h.TakeTrigger(); !ok || node != 3 || pkt != 8 {
		t.Errorf("trigger (%d, %d, %v), want armed by the timeout at node 3", node, pkt, ok)
	}

	var nilHub *Hub
	nilHub.Observe(events[1]) // the network calls Observe with no hub attached
}

func TestOptionsDisable(t *testing.T) {
	h := NewHub(Options{SampleEvery: -1, FlightDepth: -1})
	if h.Sampler != nil || h.Recorder != nil {
		t.Fatal("negative options must disable sampler and recorder")
	}
	if NewHub(Options{}).Sampler == nil || NewHub(Options{}).Recorder == nil {
		t.Fatal("defaults must enable sampler and recorder")
	}
}
