package network

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// observedStreamFile holds one SHA-256 per observedStreamCases entry: the
// observed JSONL stream without its go_* samples, followed by the event
// ring's Dump. Regenerate after an intentional change to what the
// observation stack records with
//
//	go test ./internal/network -run TestObservedStreamFrozen -update-golden
const observedStreamFile = "testdata/observed_streams.json"

// streamCase is one observed run: a configuration, a cycle budget, an
// optional reconfiguration schedule and the event kinds the run must emit
// for its digest to pin them.
type streamCase struct {
	name   string
	cycles int
	build  func() Config
	sched  []ReconfigEvent
	kinds  []telemetry.Kind
}

// linkKillSchedule kills eight links of an 8x8 network, one every 100
// cycles from cycle 200.
func linkKillSchedule() []ReconfigEvent {
	var sched []ReconfigEvent
	for i := 0; i < 8; i++ {
		sched = append(sched, ReconfigEvent{Cycle: sim.Cycle(200 + 100*i), Kind: ReconfigKillLink, Node: topology.Node(9 * i), Port: i % 4})
	}
	return sched
}

// observedStreamCases are the golden cases plus one run of each recovery
// path the golden cases lack: abort-and-retry (Kill events), token-free
// concurrent recovery (Recover without TokenCapture) and a link-kill
// campaign (Drop events).
func observedStreamCases() []streamCase {
	var out []streamCase
	for _, gc := range goldenCases() {
		out = append(out, streamCase{name: gc.name, cycles: gc.cycles, build: gc.build})
	}
	return append(out,
		streamCase{name: "abort-retry", cycles: 600, build: func() Config { return abortRetryConfig(12) },
			kinds: []telemetry.Kind{telemetry.Timeout, telemetry.Kill}},
		streamCase{name: "concurrent", cycles: 600, build: func() Config { return concurrentConfig(12) },
			kinds: []telemetry.Kind{telemetry.Timeout, telemetry.Recover}},
		streamCase{name: "chaos", cycles: 1200, build: dishaGolden().build, sched: linkKillSchedule(),
			kinds: []telemetry.Kind{telemetry.Timeout, telemetry.Drop}},
	)
}

// observedStreamDigest runs sc with a 1024-event ring and a hub writing
// JSONL (samples every 25 cycles, a snapshot at most every 50), closes the
// open episodes, writes the counters line and returns the SHA-256 of the
// stream's lines but the go_* samples (they describe the host process),
// followed by the ring's Dump.
func observedStreamDigest(t *testing.T, sc streamCase) string {
	t.Helper()
	n := mustNet(t, sc.build())
	if err := n.ScheduleReconfig(sc.sched); err != nil {
		t.Fatal(err)
	}
	ring := n.EnableTrace(1024)
	var buf bytes.Buffer
	w := telemetry.NewJSONLWriter(&buf)
	hub := n.EnableTelemetry(telemetry.Options{SampleEvery: 25, SnapshotCooldown: 50, Writer: w})
	n.Run(sc.cycles)
	hub.Episodes.FlushOpen(int64(n.Now()))
	w.WriteCounters(int64(n.Now()), n.CountersMap())
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, k := range sc.kinds {
		if ring.Count(k) == 0 {
			t.Fatalf("the run emitted no %s event; its digest would not pin them", k)
		}
	}
	h := sha256.New()
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if !bytes.Contains(line, []byte(`"name":"go_`)) {
			h.Write(line)
		}
	}
	h.Write([]byte(ring.Dump()))
	return hex.EncodeToString(h.Sum(nil))
}

// TestObservedStreamFrozen holds everything the observation stack records
// — events, samples, flight-recorder snapshots, episode spans, the counters
// line and the event ring — to digests committed in observedStreamFile.
func TestObservedStreamFrozen(t *testing.T) {
	cases := observedStreamCases()
	got := make(map[string]string)
	for _, sc := range cases {
		sc := sc
		t.Run(sc.name, func(t *testing.T) { got[sc.name] = observedStreamDigest(t, sc) })
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(observedStreamFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %d entries of %s", len(got), observedStreamFile)
		return
	}
	raw, err := os.ReadFile(observedStreamFile)
	if err != nil {
		t.Fatalf("missing %s (regenerate with -update-golden): %v", observedStreamFile, err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt %s: %v", observedStreamFile, err)
	}
	for _, sc := range cases {
		if got[sc.name] != want[sc.name] {
			t.Errorf("%s: observed stream digest %s, frozen %s — what the observation stack records changed", sc.name, got[sc.name], want[sc.name])
		}
	}
}
