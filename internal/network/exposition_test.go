package network

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// expositionFile pins the hub's published exposition after
// expositionRun, go_* samples dropped. Regenerate after an intentional
// change to a metric's name, help text, labels, order or value with
//
//	go test ./internal/network -run TestPublishedExpositionPinned -update-golden
const expositionFile = "testdata/exposition_torus4x4.txt"

// dropGoSamples removes the go_* sample lines from a text exposition,
// keeping their # HELP and # TYPE lines: the values describe the host
// process.
func dropGoSamples(text []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(text, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("go_")) {
			out = append(out, line...)
		}
	}
	return out
}

// TestPublishedExpositionPinned holds the network hub's /metrics text —
// every family's help, type, labels, order and value — byte for byte to
// the exposition of a deadlock-prone 4x4 torus run of 300 cycles.
func TestPublishedExpositionPinned(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(1), 0.5, 11)
	cfg.Router.VCs = 1
	n := mustNet(t, cfg)
	hub := n.EnableTelemetry(telemetry.Options{})
	n.Run(300)
	if n.Counters().TimeoutEvents == 0 {
		t.Fatal("no deadlock presumed: the episode and recovery families read 0")
	}
	hub.Registry.Publish()
	got := dropGoSamples(hub.Registry.Published())
	if *updateGolden {
		if err := os.WriteFile(expositionFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(expositionFile)
	if err != nil {
		t.Fatalf("missing %s (regenerate with -update-golden): %v", expositionFile, err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("exposition line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exposition has %d lines, pinned %d", len(gl), len(wl))
	}
}

// TestPublishesWithSamplingOff requires /metrics to refresh while a run
// with sampling off is still going: the hub publishes on the default
// 100-cycle period even with no sampler to tick.
func TestPublishesWithSamplingOff(t *testing.T) {
	n := mustNet(t, testConfig(topology.MustTorus(4, 4), routing.Disha(1), 0.3, 5))
	hub := n.EnableTelemetry(telemetry.Options{SampleEvery: -1})
	n.Run(250)
	text := string(hub.Registry.Published())
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "disha_cycles_total "); ok {
			if c, err := strconv.Atoi(v); err != nil || c <= 0 || c >= 250 {
				t.Fatalf("published %q mid-run", line)
			}
			return
		}
	}
	t.Fatalf("nothing published in 250 cycles with sampling off:\n%s", text)
}
