package telemetry

import "sort"

// EpisodeSpan is one recovery episode rendered as a structured span: the
// lifecycle of a single deadlock presumption from the cycle a blocked
// header crossed T_out through Token capture, Deadlock-Buffer routing and
// final delivery or abort. Cycle fields use -1 as "did not happen":
// a false presumption that drains on its own never captures the Token, so
// Capture/Recover/Release stay -1 while End records the delivery.
type EpisodeSpan struct {
	// Seq is the episode's monotonically increasing sequence number,
	// assigned in presumption order (deterministic across runs).
	Seq int64 `json:"seq"`
	// Pkt is the presumed packet's ID.
	Pkt int64 `json:"pkt"`
	// Node is the router where the presumption fired.
	Node int `json:"node"`
	// Start is the presumption cycle (T_elapsed crossed T_out).
	Start int64 `json:"start"`
	// Capture is the cycle the packet's router seized the Token (-1 if the
	// episode resolved without sequential recovery).
	Capture int64 `json:"capture"`
	// Recover is the cycle the packet was switched onto the Deadlock
	// Buffer lane (-1 if it was never recovered).
	Recover int64 `json:"recover"`
	// Release is the cycle the destination released the Token (-1 if this
	// episode's packet did not hold it).
	Release int64 `json:"release"`
	// End is the cycle the episode closed (-1 while still open).
	End int64 `json:"end"`
	// Outcome is "delivered", "killed" (abort-and-retry purged the packet
	// for retransmission), "dropped" (a reconfiguration event discarded it)
	// or "open" (still unresolved when the run ended).
	Outcome string `json:"outcome"`
	// TrueCycle is the WFG analyzer's verdict at presumption time: true
	// when the wait-for graph held a genuine cycle that cycle, false for a
	// false presumption (congestion that would have drained on its own).
	TrueCycle bool `json:"true_cycle"`
	// Member is true when this packet itself was part of the deadlocked
	// set (a true cycle can exist without containing this packet).
	Member bool `json:"member"`
}

// EpisodeTracker folds the packet-event stream into EpisodeSpans (Observe):
// a Timeout opens a span, Token capture / DB switch / Token release mark
// it, and a Deliver, Kill or Drop closes it. The tracker labels each new
// span true-cycle vs false-presumption from the WFG analysis run the same
// cycle. Closed spans land in a bounded ring, stream to the JSONL writer
// (if set), and feed the time-to-resolve / time-in-DB histograms.
//
// Like the rest of the package it is single-writer (simulation goroutine).
// Every Hub builds one; the verdict and outcome counts are plain fields
// that Register exposes as counters.
type EpisodeTracker struct {
	open    map[int64]*EpisodeSpan
	pending []*EpisodeSpan     // opened this cycle, awaiting the WFG verdict
	closed  ring[*EpisodeSpan] // most recent closed spans
	seq     int64
	writer  *JSONLWriter

	trueCycles, falsePresumptions int64                 // labelled spans by WFG verdict
	outcomes                      [len(kindNames)]int64 // closed spans by closing event kind

	// Registered histograms (nil until Register; Observe on nil is a no-op).
	histResolve *Histogram
	histInDB    *Histogram
}

// NewEpisodeTracker returns a tracker retaining the most recent depth
// closed spans (minimum 1).
func NewEpisodeTracker(depth int) *EpisodeTracker {
	return &EpisodeTracker{
		open:   make(map[int64]*EpisodeSpan),
		closed: newRing[*EpisodeSpan](depth),
	}
}

// SetWriter streams every closed span as a JSONL "span" line. Nil detaches.
func (t *EpisodeTracker) SetWriter(w *JSONLWriter) { t.writer = w }

// Register adds the tracker's derived metrics to reg: episode-verdict and
// outcome counters, time-to-resolve and time-in-DB cycle histograms, and
// an open-episodes gauge.
func (t *EpisodeTracker) Register(reg *Registry) {
	cycles := ExponentialBuckets(1, 2, 12) // 1 .. 2048 cycles
	t.histResolve = reg.Histogram("disha_episode_resolve_cycles",
		"Cycles from deadlock presumption to episode close (delivery, kill or drop).", nil, cycles)
	t.histInDB = reg.Histogram("disha_episode_db_cycles",
		"Cycles a recovered packet spent on the Deadlock Buffer lane before delivery.", nil, cycles)
	reg.CounterFunc("disha_episodes_total",
		"Recovery episodes by WFG verdict at presumption time.",
		Labels{{Key: "verdict", Value: "true-cycle"}}, func() int64 { return t.trueCycles })
	reg.CounterFunc("disha_episodes_total",
		"Recovery episodes by WFG verdict at presumption time.",
		Labels{{Key: "verdict", Value: "false-presumption"}}, func() int64 { return t.falsePresumptions })
	for kind, outcome := range closingOutcome {
		if outcome != "" {
			reg.CounterFunc("disha_episode_outcomes_total",
				"Closed recovery episodes by outcome.",
				Labels{{Key: "outcome", Value: outcome}}, func() int64 { return t.outcomes[kind] })
		}
	}
	reg.GaugeFunc("disha_episodes_open",
		"Recovery episodes currently unresolved.", nil,
		func() float64 { return float64(t.OpenCount()) })
}

// closingOutcome is the span outcome of each event kind that ends an
// episode ("" for the kinds that do not).
var closingOutcome = [len(kindNames)]string{Deliver: "delivered", Kill: "killed", Drop: "dropped"}

// Observe folds one packet event into the packet's episode. A Timeout
// opens one, unless the packet's episode is already open (a header
// re-crossing T_out while still blocked keeps its original span); the
// first TokenCapture, Recover and TokenRelease mark their cycles; Deliver,
// Kill and Drop close it. Events of packets with no open episode — nearly
// all of them — cost one map lookup.
func (t *EpisodeTracker) Observe(e Event) {
	if e.Kind == Inject {
		return
	}
	pkt, cycle := int64(e.Pkt), int64(e.Cycle)
	s, ok := t.open[pkt]
	if e.Kind == Timeout {
		if ok {
			return
		}
		s = &EpisodeSpan{
			Seq: t.seq, Pkt: pkt, Node: int(e.Node), Start: cycle,
			Capture: -1, Recover: -1, Release: -1, End: -1, Outcome: "open",
		}
		t.seq++
		t.open[pkt] = s
		t.pending = append(t.pending, s)
		return
	}
	if !ok {
		return
	}
	switch e.Kind {
	case TokenCapture:
		markOnce(&s.Capture, cycle)
	case Recover:
		markOnce(&s.Recover, cycle)
	case TokenRelease:
		markOnce(&s.Release, cycle)
	case Deliver, Kill, Drop:
		delete(t.open, pkt)
		s.End = cycle
		s.Outcome = closingOutcome[e.Kind]
		t.histResolve.Observe(float64(cycle - s.Start))
		if s.Recover >= 0 {
			t.histInDB.Observe(float64(cycle - s.Recover))
		}
		t.outcomes[e.Kind]++
		t.retire(s)
	}
}

// markOnce records cycle in an unset (-1) phase field; the first mark wins.
func markOnce(field *int64, cycle int64) {
	if *field < 0 {
		*field = cycle
	}
}

// HasPending reports whether any spans opened this cycle still await their
// WFG verdict (the network uses this to decide whether to run the
// analyzer).
func (t *EpisodeTracker) HasPending() bool {
	return len(t.pending) > 0
}

// LabelPending applies the WFG verdict to every span opened this cycle:
// trueCycle is the global "the graph holds a cycle now" verdict and member
// marks the packet IDs inside the deadlocked set. Call once per
// presumption cycle, after the analyzer ran and before recovery proceeds.
func (t *EpisodeTracker) LabelPending(trueCycle bool, member map[int64]bool) {
	for _, s := range t.pending {
		s.TrueCycle = trueCycle
		s.Member = member[s.Pkt]
		if trueCycle {
			t.trueCycles++
		} else {
			t.falsePresumptions++
		}
	}
	t.pending = t.pending[:0]
}

// retire moves a span that left the open set into the closed ring and onto
// the JSONL stream.
func (t *EpisodeTracker) retire(s *EpisodeSpan) {
	t.closed.push(s)
	if t.writer != nil {
		t.writer.WriteSpan(s)
	}
}

// FlushOpen closes out every still-open span at end of run with outcome
// "open" (End set to the final cycle, no histogram observations — the
// episode never resolved), in Seq order so the JSONL stream stays
// deterministic.
func (t *EpisodeTracker) FlushOpen(cycle int64) {
	if len(t.open) == 0 {
		return
	}
	spans := make([]*EpisodeSpan, 0, len(t.open))
	for _, s := range t.open {
		spans = append(spans, s)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })
	for _, s := range spans {
		delete(t.open, s.Pkt)
		s.End = cycle
		t.retire(s)
	}
}

// OpenCount returns how many episodes are currently unresolved.
func (t *EpisodeTracker) OpenCount() int { return len(t.open) }

// Total returns how many episodes were ever opened.
func (t *EpisodeTracker) Total() int64 { return t.seq }

// Spans returns the retained closed spans, oldest-first.
func (t *EpisodeTracker) Spans() []*EpisodeSpan { return t.closed.items() }
