package network

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// activeCount returns how many routers are currently in the active set.
func (n *Network) activeCount() int {
	c := 0
	for _, w := range n.actMask {
		c += bits.OnesCount64(w)
	}
	return c
}

// activeSetVariants extends the kernel conformance matrix with the cases the
// active-set scheduler is most likely to get wrong: long idle stretches
// (routers sleep for hundreds of cycles and derive their arbitration offset
// from the clock on waking) and bursty injection (routers oscillate between
// drained and busy).
func activeSetVariants() []kernelVariant {
	vs := kernelVariants()
	vs = append(vs,
		kernelVariant{"idle-low-load", func() Config {
			cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.05, 17)
			cfg.Router.VCs = 2
			cfg.Router.Timeout = 4
			return cfg
		}},
		kernelVariant{"bursty-low-load", func() Config {
			cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.1, 23)
			cfg.Router.VCs = 2
			cfg.Router.Timeout = 4
			cfg.Burst = traffic.BurstConfig{MeanBurst: 8, MeanIdle: 56}
			return cfg
		}},
	)
	return vs
}

// TestActiveSetMatchesFullScan proves the scheduler's determinism contract
// directly: with the active set enabled execution is fingerprint-identical,
// cycle range by cycle range, to the full-scan kernel on every recovery
// mode, allocation policy, and the idle-heavy corner cases, and the state
// passes CheckInvariants after every cycle. 1200 cycles gives the low-load
// variant long sleeps, so the clock-derived state is read far from the
// cycle it was last written. Both networks also write their JSONL streams,
// and the two must be equal but for the go_* samples: a skipped router that
// woke a cycle late could still reach the same state by the next
// fingerprint, but not with the same event cycles.
func TestActiveSetMatchesFullScan(t *testing.T) {
	const cycles = 1200
	for _, v := range activeSetVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			baseline := mustNet(t, v.build())
			useFullScan(t, baseline)
			n := mustNet(t, v.build())
			var wantBuf, gotBuf bytes.Buffer
			wantW, gotW := telemetry.NewJSONLWriter(&wantBuf), telemetry.NewJSONLWriter(&gotBuf)
			baseline.EnableTelemetry(telemetry.Options{Writer: wantW})
			n.EnableTelemetry(telemetry.Options{Writer: gotW})

			sawIdle := false
			for i := 0; i < cycles; i++ {
				baseline.Step()
				n.Step()
				if n.activeCount() < len(n.routers) {
					sawIdle = true
				}
				if err := n.CheckInvariants(); err != nil {
					t.Fatalf("cycle %d: %v", i+1, err)
				}
				if i%20 == 19 && n.Fingerprint() != baseline.Fingerprint() {
					reportDivergence(t, i+1, n, baseline)
				}
			}
			if !sawIdle {
				t.Fatal("comparison never exercised a skipped router; the test is vacuous")
			}
			if baseline.activeCount() != len(baseline.routers) {
				t.Fatal("the full-scan baseline deactivated a router")
			}
			if err := errors.Join(wantW.Flush(), gotW.Flush()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(wantBuf.Bytes(), []byte(`"type":"event"`)) {
				t.Fatal("the full scan wrote no event line; the comparison is vacuous")
			}
			got, want := runLines(gotBuf.Bytes()), runLines(wantBuf.Bytes())
			for i := 0; i < len(got) && i < len(want); i++ {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("line %d differs from the full scan's:\n got %s\nwant %s", i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("active set wrote %d lines, full scan %d", len(got), len(want))
			}
		})
	}
}

// purgeDrainsVariant is where an abort-retry purge often drains a router
// after its timer pass, so it sleeps holding that pass's gauges.
var purgeDrainsVariant = kernelVariant{"abort-retry-purge-drains", func() Config {
	cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.1, 2)
	cfg.Router.VCs = 1
	cfg.Router.BufferDepth = 1
	cfg.Router.Timeout = 4
	cfg.Router.Recovery = router.RecoveryAbortRetry
	return cfg
}}

// TestActiveSetTelemetryMatchesFullScan holds the active-set telemetry path
// — flight-recorder frames built from the active routers only, sleeping
// routers' gauges read from the clock — to what the full scan records: the
// same frame and per-router gauges every cycle, the same snapshots and the
// same disha_* sample lines. In the last variant a router drained by a purge
// sleeps holding the pre-purge gauges, which the full scan zeroes a cycle
// later.
func TestActiveSetTelemetryMatchesFullScan(t *testing.T) {
	const cycles = 800
	for _, v := range append(activeSetVariants(), purgeDrainsVariant) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			var wantBuf, gotBuf bytes.Buffer
			wantW, gotW := telemetry.NewJSONLWriter(&wantBuf), telemetry.NewJSONLWriter(&gotBuf)
			baseline := mustNet(t, v.build())
			useFullScan(t, baseline)
			n := mustNet(t, v.build())
			wantHub := baseline.EnableTelemetry(telemetry.Options{SampleEvery: 7, SnapshotCooldown: 50, Writer: wantW})
			gotHub := n.EnableTelemetry(telemetry.Options{SampleEvery: 7, SnapshotCooldown: 50, Writer: gotW})
			gauges := func(h *telemetry.Hub) []telemetry.Sample {
				var out []telemetry.Sample
				for _, s := range h.Registry.Gather() {
					if s.Name == "disha_blocked_headers" || s.Name == "disha_presumed_headers" {
						out = append(out, s)
					}
				}
				return out
			}
			framed, sawIdle := 0, false
			for i := 0; i < cycles; i++ {
				baseline.Step()
				n.Step()
				sawIdle = sawIdle || n.activeCount() < len(n.routers)
				got, want := gotHub.Recorder.Frames(), wantHub.Recorder.Frames()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cycle %d: frame\n got %+v\nwant %+v", i+1, got, want)
				}
				if len(want[len(want)-1].Routers) > 0 {
					framed++
				}
				if !reflect.DeepEqual(gauges(gotHub), gauges(wantHub)) {
					t.Fatalf("cycle %d: per-router gauges differ from the full scan's", i+1)
				}
			}
			if !sawIdle || framed == 0 {
				t.Fatalf("skipped a router: %v, non-empty frames: %d; the comparison is vacuous", sawIdle, framed)
			}
			if got, want := gotHub.Recorder.Snapshots(), wantHub.Recorder.Snapshots(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d snapshots differ from the full scan's %d", len(got), len(want))
			}
			if err := errors.Join(wantW.Flush(), gotW.Flush()); err != nil {
				t.Fatal(err)
			}
			got, want := simSamples(t, &gotBuf), simSamples(t, &wantBuf)
			if len(want) == 0 {
				t.Fatal("the full scan wrote no disha_* sample; the comparison is vacuous")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("disha_* samples differ from the full scan's:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// simSamples decodes a JSONL stream's disha_* sample lines, in stream
// order; the go_* runtime gauges describe the process, not the run.
func simSamples(t *testing.T, stream io.Reader) []telemetry.Line {
	t.Helper()
	lines, err := telemetry.ReadJSONL(stream)
	if err != nil {
		t.Fatal(err)
	}
	var out []telemetry.Line
	for _, l := range lines {
		if l.Type == "sample" && strings.HasPrefix(l.Name, "disha_") {
			out = append(out, l)
		}
	}
	return out
}

// TestActiveSetDeactivatesAndReawakens pins the scheduler's lifecycle: under
// light load most routers sleep, a drained network sleeps entirely, and the
// sleeping state is consistent with the soundness invariant throughout.
func TestActiveSetDeactivatesAndReawakens(t *testing.T) {
	cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.05, 5)
	n := mustNet(t, cfg)

	minActive, maxActive := len(n.routers), 0
	for i := 0; i < 400; i++ {
		n.Step()
		a := n.activeCount()
		if a < minActive {
			minActive = a
		}
		if a > maxActive {
			maxActive = a
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// At 5% load on 64 nodes the steady state must be mostly asleep, and
	// wakes must actually happen (the network is not permanently idle).
	if minActive > len(n.routers)/2 {
		t.Errorf("min active %d of %d: scheduler barely deactivates at 5%% load", minActive, len(n.routers))
	}
	if maxActive == 0 {
		t.Fatal("no router ever active under injection")
	}
	if !n.RunUntilDrained(10000) {
		t.Fatal("network did not drain")
	}
	n.Step() // one more cycle so the post-drain sweep runs
	if a := n.activeCount(); a != 0 {
		t.Errorf("%d routers active in a drained network, want 0", a)
	}
}

// TestActiveSetSnapshotCrossMode proves activation state is derived, not
// serialized: a snapshot taken from an active-set network restores into a
// full-scan network (and vice versa) and both continuations stay
// fingerprint-identical, cycle by cycle.
func TestActiveSetSnapshotCrossMode(t *testing.T) {
	build := func() Config {
		cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.3, 29)
		cfg.Router.VCs = 2
		cfg.Router.Timeout = 4
		return cfg
	}
	src := mustNet(t, build())
	src.Run(300)

	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := make([]*Network, 2)
	for i, disable := range []bool{false, true} {
		rn := mustNet(t, build())
		if disable {
			useFullScan(t, rn)
		}
		if err := rn.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		if got, want := rn.FingerprintHex(), src.FingerprintHex(); got != want {
			t.Fatalf("restore (disable=%v) fingerprint mismatch:\n got %s\nwant %s", disable, got, want)
		}
		restored[i] = rn
	}
	for i := 0; i < 200; i++ {
		src.Step()
		restored[0].Step()
		restored[1].Step()
		if i%20 == 19 {
			want := src.FingerprintHex()
			if got := restored[0].FingerprintHex(); got != want {
				t.Fatalf("active-set restore diverged by cycle %d", i+1)
			}
			if got := restored[1].FingerprintHex(); got != want {
				t.Fatalf("full-scan restore diverged by cycle %d", i+1)
			}
		}
	}
}

// TestActiveSetAbortRetryPurgeGauges pins the subtlest gauge rule: a
// router drained by an abort-retry purge goes to sleep with its
// blocked/presumed telemetry gauges still holding the pre-purge values (the
// full scan only clears them on the next timer pass). Once that pass is
// older than the current cycle the gauges must read 0, so telemetry and
// digests agree with the full scan. Covered end to end by lockstep above;
// this isolates the rule on one router.
func TestActiveSetAbortRetryPurgeGauges(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.6, 7)
	cfg.Router.VCs = 2
	cfg.Router.BufferDepth = 1
	cfg.Router.Timeout = 4
	cfg.Router.Recovery = router.RecoveryAbortRetry
	n := mustNet(t, cfg)
	n.Run(400)
	if n.Counters().PacketsKilled == 0 {
		t.Skip("no abort-retry kills at this seed; gauge rule not exercisable")
	}
	n.StopInjection()
	if !n.RunUntilDrained(10000) {
		t.Fatal("network did not drain")
	}
	n.Run(3)
	for _, r := range n.Routers() {
		if r.BlockedHeaders() != 0 || r.PresumedHeaders() != 0 {
			t.Fatalf("node %d gauges stale after drain: blocked=%d presumed=%d",
				r.Node(), r.BlockedHeaders(), r.PresumedHeaders())
		}
	}
}

// TestActiveSetObservationIsReadOnly holds every observer to reading: with
// routers asleep, Fingerprint, Snapshot, Routers, the registry's Gather and
// Publish, a flight-recorder dump and each router's gauges leave the
// network's simulation state exactly as they found it (stateImage, a deep
// copy of everything but the observers and memos).
func TestActiveSetObservationIsReadOnly(t *testing.T) {
	variants := append(activeSetVariants(), purgeDrainsVariant)
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			n := mustNet(t, v.build())
			hub := n.EnableTelemetry(telemetry.Options{SampleEvery: 7})
			observe := func() {
				n.Fingerprint()
				if err := n.Snapshot(io.Discard); err != nil {
					t.Fatal(err)
				}
				hub.Registry.Gather()
				hub.Registry.Publish()
				n.buildSnapshot(n.Now(), 0, 0, nil)
				for _, r := range n.Routers() {
					r.BlockedHeaders()
					r.PresumedHeaders()
				}
			}
			observed := 0
			for i := 1; i <= 600; i++ {
				n.Step()
				if i%5 != 0 || n.activeCount() == len(n.routers) {
					continue
				}
				before := stateImage(n)
				observe()
				if after := stateImage(n); after != before {
					t.Fatalf("cycle %d: observing wrote the state: %s", i, firstDifference(before, after))
				}
				observed++
			}
			if observed == 0 {
				t.Fatal("no cycle had a sleeping router; the test is vacuous")
			}
		})
	}
}

// firstDifference names the state field (an image line) where two images
// first differ, with the text around the difference.
func firstDifference(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] == lb[i] {
			continue
		}
		k := 0
		for k < len(la[i]) && k < len(lb[i]) && la[i][k] == lb[i][k] {
			k++
		}
		lo := max(k-60, 0)
		return fmt.Sprintf("%s\n before …%s\n  after …%s", la[i][:strings.IndexByte(la[i], ':')],
			la[i][lo:min(k+60, len(la[i]))], lb[i][lo:min(k+60, len(lb[i]))])
	}
	return "images differ in length"
}
