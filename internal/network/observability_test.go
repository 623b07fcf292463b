package network

import (
	"bytes"
	"regexp"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// dishaGolden returns the deadlock-prone golden DISHA case.
func dishaGolden() goldenCase {
	for _, gc := range goldenCases() {
		if gc.name == "disha" {
			return gc
		}
	}
	panic("no golden case named disha")
}

// runCaseObserved is runCase with the hub attached — the packet-event
// stream's one consumer: its snapshot trigger, episode tracker, flight
// recorder and JSONL writer — plus the phase profiler at an awkward prime
// period so profiled and unprofiled cycles interleave.
func runCaseObserved(t *testing.T, gc goldenCase) string {
	t.Helper()
	n := mustNet(t, gc.build())
	var buf bytes.Buffer
	w := telemetry.NewJSONLWriter(&buf)
	n.EnableTelemetry(telemetry.Options{SampleEvery: 25, ProfileEvery: 7, Writer: w})
	n.Run(gc.cycles)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"type":"event"`)) {
		t.Fatal("the stream has no event line; the emit point is not under test")
	}
	return n.FingerprintHex()
}

// TestGoldenDigestsWithObservability proves the observability stack is
// digest-invariant: with the one emit point feeding every consumer and the
// phase profiler on, the committed golden digests must still hold. The
// profiler reads the wall clock and the consumers bookkeep events, but
// neither may touch simulation state.
func TestGoldenDigestsWithObservability(t *testing.T) {
	want := readGolden(t)
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			if got := runCaseObserved(t, gc); got != want[gc.name] {
				t.Errorf("digest %s differs from golden %s with every observer on", got, want[gc.name])
			}
		})
	}
}

// TestProfilerPopulatesHistograms checks the phase profiler actually
// observes every phase: each phase family member must have exactly one
// observation per profiled cycle, and the two fused stage phases (timed per
// router inside stage) nonzero wall-clock time.
func TestProfilerPopulatesHistograms(t *testing.T) {
	n := mustNet(t, testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.4, 7))
	hub := n.EnableTelemetry(telemetry.Options{ProfileEvery: 1})
	n.Run(50)

	counts, sums := map[string]float64{}, map[string]float64{}
	for _, s := range hub.Registry.Gather() {
		switch s.Name {
		case "disha_step_phase_seconds_count":
			counts[s.Labels.Map()["phase"]] = s.Value
		case "disha_step_phase_seconds_sum":
			sums[s.Labels.Map()["phase"]] = s.Value
		}
	}
	for _, phase := range []string{
		"inject", "route_compute", "switch_allocate", "db_resolve",
		"commit", "timers", "flush", "recovery", "active_sweep", "step_total",
	} {
		if counts[phase] != 50 {
			t.Errorf("phase %q observation count = %g, want 50 (ProfileEvery=1)", phase, counts[phase])
		}
	}
	for _, phase := range []string{"route_compute", "switch_allocate"} {
		if sums[phase] <= 0 {
			t.Errorf("phase %q accumulated %g s over 50 profiled cycles, want > 0", phase, sums[phase])
		}
	}
}

// TestEpisodeSnapshotAgreement runs the deadlock-prone golden DISHA case
// and cross-checks the two true-deadlock verdict paths: every
// flight-recorder snapshot's TrueDeadlock must agree with the TrueCycle
// label of the episode span opened by the same presumption (matched on
// cycle and trigger packet). Both derive from one WFG analysis per cycle,
// so disagreement means the cache wiring broke.
func TestEpisodeSnapshotAgreement(t *testing.T) {
	disha := dishaGolden()
	cfg := disha.build()
	n := mustNet(t, cfg)
	// Deep episode ring: the deadlock-prone case opens thousands of
	// episodes and the matching spans must survive to the end of the run.
	hub := n.EnableTelemetry(telemetry.Options{SnapshotCooldown: 50, EpisodeDepth: 1 << 16})
	n.Run(disha.cycles)
	hub.Episodes.FlushOpen(int64(n.Now()))

	if hub.Episodes.Total() == 0 {
		t.Fatal("deadlock-prone case opened no recovery episodes")
	}
	snaps := hub.Recorder.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("deadlock-prone case recorded no snapshots")
	}

	spansByStart := map[int64][]*telemetry.EpisodeSpan{}
	for _, s := range hub.Episodes.Spans() {
		spansByStart[s.Start] = append(spansByStart[s.Start], s)
	}
	matched := 0
	for _, snap := range snaps {
		// Every span opened in the snapshot's cycle was labeled by the same
		// WFG analysis the snapshot reused, so their verdicts must be equal.
		// (The trigger packet itself may have re-crossed T_out on an episode
		// opened earlier, so we match on cycle, not on the trigger packet.)
		for _, s := range spansByStart[snap.Cycle] {
			matched++
			if s.TrueCycle != snap.TrueDeadlock {
				t.Errorf("cycle %d pkt %d: span TrueCycle=%v, snapshot TrueDeadlock=%v — verdicts must agree",
					snap.Cycle, s.Pkt, s.TrueCycle, snap.TrueDeadlock)
			}
		}
	}
	if matched == 0 {
		t.Fatal("no snapshot cycle matched any episode span")
	}
}

// TestEpisodeSpansWellFormed checks the span stream a real run produces:
// phase cycles must be ordered (start <= capture <= recover <= end when
// present) and every closed span carries a terminal outcome.
func TestEpisodeSpansWellFormed(t *testing.T) {
	disha := dishaGolden()
	cfg := disha.build()
	n := mustNet(t, cfg)
	hub := n.EnableTelemetry(telemetry.Options{})
	n.Run(disha.cycles)
	hub.Episodes.FlushOpen(int64(n.Now()))

	for _, s := range hub.Episodes.Spans() {
		if s.Outcome != "delivered" && s.Outcome != "killed" && s.Outcome != "dropped" && s.Outcome != "open" {
			t.Errorf("span pkt %d: bad outcome %q", s.Pkt, s.Outcome)
		}
		if s.End < s.Start {
			t.Errorf("span pkt %d: end %d before start %d", s.Pkt, s.End, s.Start)
		}
		if s.Capture >= 0 && s.Capture < s.Start {
			t.Errorf("span pkt %d: capture %d before start %d", s.Pkt, s.Capture, s.Start)
		}
		if s.Recover >= 0 && s.Capture >= 0 && s.Recover < s.Capture {
			t.Errorf("span pkt %d: recover %d before capture %d", s.Pkt, s.Recover, s.Capture)
		}
		if s.Recover >= 0 && s.End < s.Recover {
			t.Errorf("span pkt %d: end %d before recover %d", s.Pkt, s.End, s.Recover)
		}
	}
}

// observedJSONL runs the deadlock-prone golden DISHA configuration for 3000
// cycles with a JSONL writer attached and returns the stream without its
// go_* process samples (heap size, goroutine count and GC totals describe
// the host, not the simulation).
func observedJSONL(t *testing.T) []byte {
	t.Helper()
	disha := dishaGolden()
	var buf bytes.Buffer
	w := telemetry.NewJSONLWriter(&buf)
	n := mustNet(t, disha.build())
	hub := n.EnableTelemetry(telemetry.Options{SnapshotCooldown: 100, Writer: w})
	n.Run(3000)
	hub.Episodes.FlushOpen(int64(n.Now()))
	w.WriteCounters(int64(n.Now()), n.CountersMap())
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if !bytes.Contains(line, []byte(`"name":"go_`)) {
			out = append(out, line...)
		}
	}
	return out
}

// TestObservedJSONLDeterministic pins the trace file as a function of
// (seed, config): two identical observed runs must write the same bytes.
// Snapshot lines carry each blocked header's waits_on list, so a wait-for
// graph built in map order fails here.
func TestObservedJSONLDeterministic(t *testing.T) {
	a, b := observedJSONL(t), observedJSONL(t)
	for _, typ := range []string{"event", "snapshot", "span", "sample", "counters"} {
		if !bytes.Contains(a, []byte(`"type":"`+typ+`"`)) {
			t.Fatalf("stream has no %s line; the comparison would be vacuous", typ)
		}
	}
	if !regexp.MustCompile(`"waits_on":\[\d+,`).Match(a) {
		t.Fatal("no snapshot header waits on two packets; the order check would be vacuous")
	}
	if bytes.Equal(a, b) {
		return
	}
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			t.Fatalf("identical runs diverge at line %d:\n%.300s\n%.300s", i+1, la[i], lb[i])
		}
	}
	t.Fatalf("identical runs wrote %d and %d lines", len(la), len(lb))
}

// TestEpisodeDroppedByReconfig runs a link-kill campaign over the
// deadlock-prone golden DISHA case, whose recovery is sequential: a presumed
// packet discarded by a reconfiguration event closes its episode as
// "dropped". "killed" is the abort-and-retry outcome and must not appear.
func TestEpisodeDroppedByReconfig(t *testing.T) {
	disha := dishaGolden()
	n := mustNet(t, disha.build())
	hub := n.EnableTelemetry(telemetry.Options{EpisodeDepth: 1 << 16})
	var sched []ReconfigEvent
	for i := 0; i < 8; i++ {
		sched = append(sched, ReconfigEvent{Cycle: sim.Cycle(200 + 100*i), Kind: ReconfigKillLink, Node: topology.Node(9 * i), Port: i % 4})
	}
	if err := n.ScheduleReconfig(sched); err != nil {
		t.Fatal(err)
	}
	n.Run(1200)

	outcomes := map[string]int{}
	for _, s := range hub.Episodes.Spans() {
		outcomes[s.Outcome]++
	}
	if n.Counters().PacketsLost == 0 {
		t.Fatal("the campaign dropped no packet")
	}
	if outcomes["dropped"] == 0 || outcomes["killed"] != 0 {
		t.Errorf("span outcomes %v, want at least one dropped and no killed", outcomes)
	}
	got := map[string]float64{}
	for _, sm := range hub.Registry.Gather() {
		if sm.Name == "disha_episode_outcomes_total" {
			got[sm.Labels.Map()["outcome"]] = sm.Value
		}
	}
	if got["dropped"] != float64(outcomes["dropped"]) || got["killed"] != 0 {
		t.Errorf("disha_episode_outcomes_total %v disagrees with the spans %v", got, outcomes)
	}
}
