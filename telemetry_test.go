package disha_test

import (
	"bytes"
	"io"
	"maps"
	"net/http"
	"strings"
	"testing"

	disha "repro"
)

// wedgeConfig is a configuration that reliably presumes deadlocks: single VC,
// shallow buffers, high load, recovery enabled.
func wedgeConfig(seed uint64) disha.SimConfig {
	return disha.SimConfig{
		Topo:        disha.Torus(8, 8),
		Algorithm:   disha.DishaRouting(0),
		Pattern:     nil, // filled by caller via defaultPattern
		LoadRate:    0.9,
		MsgLen:      8,
		VCs:         1,
		BufferDepth: 2,
		Timeout:     8,
		Seed:        seed,
	}
}

func newWedgeSim(t testing.TB, seed uint64) *disha.Simulator {
	cfg := wedgeConfig(seed)
	cfg.Pattern = disha.Uniform(cfg.Topo)
	sim, err := disha.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestTelemetryDeterminism runs the same seed twice — once bare, once with
// every telemetry feature enabled (tight sampling, flight recorder, JSONL
// writer, phase profiler) — and requires bit-identical results: same counters,
// same per-packet latencies. Telemetry is pull-based; it must never perturb
// the simulation.
func TestTelemetryDeterminism(t *testing.T) {
	run := func(instrument bool) (map[string]int64, []float64) {
		sim := newWedgeSim(t, 7)
		if instrument {
			var jsonl bytes.Buffer
			tw := disha.NewTelemetryWriter(&jsonl)
			sim.EnableTelemetry(disha.TelemetryOptions{
				SampleEvery: 10, SnapshotCooldown: 100, Writer: tw,
				ProfileEvery: 16,
			})
		}
		var lats []float64
		sim.OnDeliver(func(p *disha.Packet) { lats = append(lats, float64(p.Age())) })
		sim.Run(3000)
		return sim.CountersMap(), lats
	}

	bareCounters, bareLats := run(false)
	telCounters, telLats := run(true)

	if !maps.Equal(bareCounters, telCounters) {
		t.Fatalf("telemetry changed counters:\nbare: %v\ntele: %v", bareCounters, telCounters)
	}
	if len(bareLats) != len(telLats) {
		t.Fatalf("telemetry changed delivery count: %d vs %d", len(bareLats), len(telLats))
	}
	for i := range bareLats {
		if bareLats[i] != telLats[i] {
			t.Fatalf("delivery %d latency %g vs %g", i, bareLats[i], telLats[i])
		}
	}
	if bareCounters["packets_delivered"] == 0 {
		t.Fatal("run delivered nothing; determinism check is vacuous")
	}
}

// TestMetricsEndpoint drives a fully instrumented run and scrapes the live
// HTTP endpoint, checking the Prometheus text format and the presence of the
// core metric families.
func TestMetricsEndpoint(t *testing.T) {
	sim := newWedgeSim(t, 3)
	sim.EnableTelemetry(disha.TelemetryOptions{SampleEvery: 100})
	addr, shutdown, err := sim.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	sim.Run(2000)

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"disha_flits_forwarded_total",
		"disha_blocked_headers",
		"disha_token_transit_cycles",
		"disha_packets_delivered_total",
		"disha_vc_blocked_cycles_total",
	} {
		if !strings.Contains(text, "# TYPE "+want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}

	// pprof must be wired on the same mux.
	resp, err = http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint status %d", resp.StatusCode)
	}
}

// TestFlightRecorderCapturesDeadlock wedges the network and checks the
// recorder produced at least one snapshot with history and a wait-for-graph,
// and that the JSONL stream carries it.
func TestFlightRecorderCapturesDeadlock(t *testing.T) {
	var jsonl bytes.Buffer
	tw := disha.NewTelemetryWriter(&jsonl)
	sim := newWedgeSim(t, 12)
	tel := sim.EnableTelemetry(disha.TelemetryOptions{
		SampleEvery: 50, SnapshotCooldown: 200, Writer: tw,
	})
	sim.Run(4000)
	if sim.Counters().TimeoutEvents == 0 {
		t.Skip("no deadlock presumed at this seed")
	}
	snaps := tel.Recorder.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("timeouts occurred but no flight-recorder snapshot")
	}
	s := snaps[0]
	if len(s.Frames) == 0 {
		t.Fatal("snapshot carries no frames")
	}
	if s.Frames[len(s.Frames)-1].Cycle != s.Cycle {
		t.Fatalf("last frame cycle %d != snapshot cycle %d", s.Frames[len(s.Frames)-1].Cycle, s.Cycle)
	}
	if len(s.WFG) == 0 {
		t.Fatal("snapshot carries no wait-for-graph")
	}

	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	text := jsonl.String()
	if !strings.Contains(text, `"type":"snapshot"`) {
		t.Fatal("JSONL stream has no snapshot line")
	}
	if !strings.Contains(text, `"type":"sample"`) {
		t.Fatal("JSONL stream has no sample lines")
	}
}

// BenchmarkCountersSnapshot measures Network.Counters() — it is called per
// delivered packet by harness hot loops and is memoized per cycle, so
// repeated snapshots within a cycle must be cheap.
func BenchmarkCountersSnapshot(b *testing.B) {
	sim := newWedgeSim(b, 1)
	sim.Run(1000)
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		c := sim.Counters()
		sink += c.PacketsDelivered
	}
	_ = sink
}

// BenchmarkTelemetryOverhead compares a bare run against one with sampling
// every 100 cycles and the flight recorder armed — the acceptance envelope
// is < 5% regression.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, instrument bool) {
		for i := 0; i < b.N; i++ {
			sim := newWedgeSim(b, uint64(i+1))
			if instrument {
				sim.EnableTelemetry(disha.TelemetryOptions{SampleEvery: 100})
			}
			sim.Run(2000)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}
