package telemetry

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("disha_test_total", "A test counter.", Labels{{Key: "node", Value: "3"}}, func() int64 { return 42 })
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
	for _, node := range []string{"0", "1"} {
		r.CounterFunc("disha_shared_total", "Shared.", Labels{{Key: "node", Value: node}}, func() int64 { return 1 })
	}
	r.Publish()
	want := "# HELP disha_shared_total Shared.\n" +
		"# TYPE disha_shared_total counter\n" +
		"disha_shared_total{node=\"0\"} 1\n" +
		"disha_shared_total{node=\"1\"} 1\n"
	if got := string(r.Published()); got != want {
		t.Fatalf("one family, two series:\ngot:\n%s\nwant:\n%s", got, want)
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

// samples flushes w and decodes the "sample" lines it wrote to buf.
func samples(t *testing.T, w *JSONLWriter, buf *bytes.Buffer) []Line {
	t.Helper()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines, err := ReadJSONL(buf)
	if err != nil {
		t.Fatal(err)
	}
	var out []Line
	for _, l := range lines {
		if l.Type == "sample" {
			out = append(out, l)
		}
	}
	return out
}

// TestHubSamplesOnPeriod checks that a hub with a Writer writes the tracked
// families' samples on its sampling period and publishes on the same
// cycles.
func TestHubSamplesOnPeriod(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	h := NewHub(Options{SampleEvery: 10, Writer: w})
	p := 0.0
	h.Registry.GaugeFunc("p", "sampled", nil, func() float64 { return p })
	h.Sampler.Track("p")
	for c := int64(1); c <= 75; c++ {
		p = float64(c)
		h.Tick(c)
	}
	got := samples(t, w, &buf)
	if len(got) != 7 {
		t.Fatalf("wrote %d samples, want one every 10 cycles to 70", len(got))
	}
	for i, l := range got {
		if c := int64(10 * (i + 1)); l.Cycle != c || l.Name != "p" || l.Value != float64(c) {
			t.Fatalf("sample %d = %+v, want p = %d at cycle %d", i, l, c, c)
		}
	}
	if pub := string(h.Registry.Published()); !strings.Contains(pub, "p 70\n") {
		t.Fatalf("published at cycle 70:\n%s", pub)
	}
}

func TestSamplerEmit(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	reg := NewRegistry()
	s := NewSampler(reg, w)
	reg.GaugeFunc("q", "sampled", nil, func() float64 { return 3 })
	s.Track("q")
	s.Sample(5)
	s.Sample(6)
	got := samples(t, w, &buf)
	if len(got) != 2 || got[0].Cycle != 5 || got[1].Cycle != 6 || got[0].Name != "q" || got[1].Value != 3 {
		t.Fatalf("sample lines %+v", got)
	}
}

// TestSamplerTracksFamilySums checks that a tracked family samples as the
// sum over its label sets, counters and gauges alike, in tracking order,
// and that an unknown or histogram family is refused.
func TestSamplerTracksFamilySums(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	reg := NewRegistry()
	s := NewSampler(reg, w)
	for i, v := range []float64{2, 5, 7} {
		reg.GaugeFunc("occ", "per node", Labels{{Key: "node", Value: strconv.Itoa(i)}}, func() float64 { return v })
	}
	reg.CounterFunc("total", "network-wide", nil, func() int64 { return 4 })
	reg.Histogram("lat", "a histogram", nil, []float64{1})
	s.Track("total")
	s.Track("occ")
	s.Sample(1)
	var names []string
	var values []float64
	for _, l := range samples(t, w, &buf) {
		names = append(names, l.Name)
		values = append(values, l.Value)
	}
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
}

func TestOptionsDisable(t *testing.T) {
	w := NewJSONLWriter(io.Discard)
	if NewHub(Options{SampleEvery: -1, Writer: w}).Sampler != nil {
		t.Fatal("a negative SampleEvery must disable the sampler")
	}
	if NewHub(Options{Writer: w}).Sampler == nil {
		t.Fatal("defaults with a Writer must enable the sampler")
	}
	if NewHub(Options{}).Sampler != nil {
		t.Fatal("a hub with no Writer has nothing to sample into")
	}
}
