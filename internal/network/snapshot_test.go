package network

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// Regenerate the committed snapshot-format fixture after an intentional
// format change (remember to bump snapshotVersion) with:
//
//	go test ./internal/network -run TestSnapshotGoldenFixture -update-snapshot
var updateSnapshot = flag.Bool("update-snapshot", false, "rewrite testdata/snapshot_v2.bin from the current encoder")

const snapshotFixture = "testdata/snapshot_v2.bin"

// takeSnapshot runs a fresh network for warm cycles and returns the network
// plus its serialized state.
func takeSnapshot(t *testing.T, cfg Config, warm int) (*Network, []byte) {
	t.Helper()
	n := mustNet(t, cfg)
	n.Run(warm)
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return n, buf.Bytes()
}

// restoreFresh builds a fresh network with cfg and loads the snapshot.
func restoreFresh(t *testing.T, cfg Config, data []byte) *Network {
	t.Helper()
	n := mustNet(t, cfg)
	if err := n.Restore(bytes.NewReader(data)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return n
}

// checkLockstep steps both networks together and insists their full-state
// fingerprints agree at every cycle — the core restore-equivalence property.
func checkLockstep(t *testing.T, orig, restored *Network, cycles int) {
	t.Helper()
	if got, want := restored.FingerprintHex(), orig.FingerprintHex(); got != want {
		t.Fatalf("digest differs immediately after restore: %s vs %s", got, want)
	}
	for i := 0; i < cycles; i++ {
		orig.Step()
		restored.Step()
		if got, want := restored.FingerprintHex(), orig.FingerprintHex(); got != want {
			t.Fatalf("digest diverges %d cycles after restore: %s vs %s", i+1, got, want)
		}
	}
}

// TestSnapshotRoundTripDigest is the acceptance property from the issue: for
// every routing algorithm, a network restored from a mid-run snapshot
// produces the same per-cycle fingerprint as the uninterrupted original.
func TestSnapshotRoundTripDigest(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Run("serial", func(t *testing.T) {
				cfg := gc.build()
				orig, data := takeSnapshot(t, cfg, 300)
				restored := restoreFresh(t, cfg, data)
				checkLockstep(t, orig, restored, 150)
			})
		})
	}
}

// TestSnapshotRecoveryModes round-trips the two non-default recovery modes,
// whose state machines (two DB lanes per router, abort-retry kill lists) put
// packets in places sequential recovery never does.
func TestSnapshotRecoveryModes(t *testing.T) {
	base := func(recovery router.RecoveryMode) Config {
		cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.9, 12)
		cfg.Router.VCs = 2
		cfg.Router.BufferDepth = 1
		cfg.Router.Timeout = 4
		cfg.Router.Recovery = recovery
		return cfg
	}
	for _, tc := range []struct {
		name string
		mode router.RecoveryMode
	}{
		{"concurrent", router.RecoveryConcurrent},
		{"abort-retry", router.RecoveryAbortRetry},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := base(tc.mode)
			orig, data := takeSnapshot(t, cfg, 400)
			restored := restoreFresh(t, cfg, data)
			checkLockstep(t, orig, restored, 150)
		})
	}
}

// TestSnapshotFaultReplay verifies the fault-injection replay list: a
// snapshot of a degraded network restores the same failed links (and the
// rebuilt DB routing tables they imply) before applying state.
func TestSnapshotFaultReplay(t *testing.T) {
	cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.4, 9)
	n := mustNet(t, cfg)
	if err := n.FailLink(10, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.FailLink(35, 1); err != nil {
		t.Fatal(err)
	}
	n.Run(300)
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := restoreFresh(t, cfg, buf.Bytes())
	if restored.FailedLinks() != 2 {
		t.Fatalf("restored network has %d failed links, want 2", restored.FailedLinks())
	}
	checkLockstep(t, n, restored, 150)
}

// TestSnapshotDrainedStateResumes checks that stopped injection survives a
// round trip: a drained-and-stopped network stays drained after restore.
func TestSnapshotDrainedStateResumes(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.3, 5)
	n := mustNet(t, cfg)
	n.Run(500)
	n.StopInjection()
	if !n.RunUntilDrained(5000) {
		t.Fatal("network did not drain")
	}
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := restoreFresh(t, cfg, buf.Bytes())
	checkLockstep(t, n, restored, 50)
	if !restored.Drained() {
		t.Fatal("restored network resumed injection after drain")
	}
}

// TestSnapshotConfigGuard tries to load a snapshot into structurally
// different networks; every mismatch must be rejected with an error.
func TestSnapshotConfigGuard(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.3, 1)
	_, data := takeSnapshot(t, cfg, 100)

	mutations := map[string]func(*Config){
		"topology":  func(c *Config) { c.Topo = topology.MustMesh(4, 4) },
		"size":      func(c *Config) { c.Topo = topology.MustTorus(8, 8) },
		"algorithm": func(c *Config) { c.Algorithm = routing.DOR() },
		"seed":      func(c *Config) { c.Seed = 2 },
		"load":      func(c *Config) { c.LoadRate = 0.31 },
		"msglen":    func(c *Config) { c.MsgLen = 4 },
		"vcs":       func(c *Config) { c.Router.VCs = 6 },
		"depth":     func(c *Config) { c.Router.BufferDepth = 4 },
		"timeout":   func(c *Config) { c.Router.Timeout = 99 },
		"recovery":  func(c *Config) { c.Router.Recovery = router.RecoveryAbortRetry },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			bad := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.3, 1)
			mutate(&bad)
			n := mustNet(t, bad)
			if err := n.Restore(bytes.NewReader(data)); err == nil {
				t.Fatal("restore into a mismatched configuration succeeded")
			}
		})
	}
}

// TestSnapshotFreshnessGuard insists Restore refuses a network that has
// already been stepped — partial overwrite would corrupt state silently.
func TestSnapshotFreshnessGuard(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.3, 1)
	_, data := takeSnapshot(t, cfg, 50)
	stale := mustNet(t, cfg)
	stale.Run(10)
	if err := stale.Restore(bytes.NewReader(data)); err == nil {
		t.Fatal("restore into a stepped network succeeded")
	}
}

// TestSnapshotCorruption flips bytes and truncates a valid snapshot at every
// prefix length; decoding must always fail cleanly, never panic, and never
// silently succeed.
func TestSnapshotCorruption(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 3)
	cfg.Router.Timeout = 4
	_, data := takeSnapshot(t, cfg, 200)

	t.Run("truncation", func(t *testing.T) {
		for cut := 0; cut < len(data); cut++ {
			n := mustNet(t, cfg)
			if err := n.Restore(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded without error", cut, len(data))
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		// Any flipped bit breaks the SHA-256 trailer, so Open must reject it.
		for pos := 0; pos < len(data); pos += 97 {
			mut := bytes.Clone(data)
			mut[pos] ^= 0x40
			n := mustNet(t, cfg)
			if err := n.Restore(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit flip at %d decoded without error", pos)
			}
		}
	})
}

// TestSnapshotDeterministicBytes pins that the encoder itself is
// deterministic: two snapshots of the same state are byte-identical.
func TestSnapshotDeterministicBytes(t *testing.T) {
	cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.6, 42)
	cfg.Router.VCs = 2
	cfg.Router.BufferDepth = 1
	cfg.Router.Timeout = 4

	run := func() []byte {
		n := mustNet(t, cfg)
		n.Run(300)
		var buf bytes.Buffer
		if err := n.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if first, again := run(), run(); !bytes.Equal(first, again) {
		t.Fatal("two snapshots of identical runs differ")
	}
}

// TestAppendStateIsSnapshotPrefix pins the one-walk contract the digest's
// soundness rests on: after each golden case's run, every router's digest
// bytes (AppendState) are exactly its snapshot bytes (WalkState) minus the
// 32-byte RNG trailer, so no field a restore brings back can go unhashed.
func TestAppendStateIsSnapshotPrefix(t *testing.T) {
	const rngTrailer = 4 * 8
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			n := mustNet(t, gc.build())
			n.Run(gc.cycles)
			n.Fingerprint() // brings routers the active set skipped up to date
			for i, r := range n.routers {
				var enc snapshot.Codec
				if err := r.WalkState(&enc, nil); err != nil {
					t.Fatal(err)
				}
				snap := enc.Bytes()
				if digest := r.AppendState(nil); !bytes.Equal(digest, snap[:len(snap)-rngTrailer]) {
					t.Fatalf("router %d: AppendState (%d bytes) is not WalkState (%d bytes) minus the RNG trailer",
						i, len(digest), len(snap))
				}
			}
		})
	}
}

// snapshotFixtureConfig is the pinned configuration for the committed
// format fixture. Changing it invalidates testdata/snapshot_v2.bin.
func snapshotFixtureConfig() Config {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.6, 2026)
	cfg.Router.VCs = 2
	cfg.Router.BufferDepth = 1
	cfg.Router.Timeout = 4
	return cfg
}

// TestSnapshotGoldenFixture decodes a snapshot file committed to testdata,
// pinning the on-disk format: if the encoding changes in any way, this test
// fails until the format version is bumped and the fixture regenerated.
func TestSnapshotGoldenFixture(t *testing.T) {
	cfg := snapshotFixtureConfig()
	if *updateSnapshot {
		_, data := takeSnapshot(t, cfg, 250)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapshotFixture, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", snapshotFixture, len(data))
		return
	}

	data, err := os.ReadFile(snapshotFixture)
	if err != nil {
		t.Fatalf("missing snapshot fixture (regenerate with -update-snapshot): %v", err)
	}
	restored := restoreFresh(t, cfg, data)

	// The fixture must decode to the exact state the encoder produces today.
	orig, fresh := takeSnapshot(t, cfg, 250)
	if !bytes.Equal(data, fresh) {
		t.Fatal("current encoder no longer reproduces the committed fixture; bump snapshotVersion and regenerate with -update-snapshot")
	}
	checkLockstep(t, orig, restored, 50)
}

// pbpFuzzConfig is a packet-by-packet network busy enough that crossbar
// connections are live in a mid-run snapshot.
func pbpFuzzConfig() Config {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 3)
	cfg.Router.Alloc = router.PacketByPacket
	cfg.Router.Timeout = 4
	return cfg
}

// lastRouterCrossbar returns the payload offset of the last router's crossbar
// record for output 0 (cxInPort, cxInVC, cxDB, cxSaved, cxSavedPort,
// cxSavedVC: 8+8+1+1+8+8 bytes). Router records end the payload, and what
// follows the crossbar section has a fixed size, so the offset is counted
// from the end and holds for any buffer occupancy.
func lastRouterCrossbar(cfg Config, payload []byte) int {
	deg := cfg.Topo.Degree()
	rc := cfg.Router
	blocked := max(rc.VCs, rc.InjectionVCs)
	// vcArbOff, swArbOff[deg+1], effTout, decayCount, 9 stats, blockedByVC,
	// lastBlocked, lastPresumed, RNG.
	trailer := 8 + 8*(deg+1) + 8 + 8 + 9*8 + 8*blocked + 8 + 8 + 32
	return len(payload) - trailer - deg*34
}

// TestSnapshotRejectsHostileCrossbarVC re-seals a packet-by-packet snapshot
// whose crossbar names an input VC that does not exist. Restore used to
// accept it (DecodeState bounds-checked the port but not the VC) and the
// next StageSwitch indexed far outside the input-VC arrays; now the walk
// rejects it next to the field, whether the value is one past the port's VC
// count, absurd, or only in range after wrapping to 32 bits.
func TestSnapshotRejectsHostileCrossbarVC(t *testing.T) {
	cfg := pbpFuzzConfig()
	_, data := takeSnapshot(t, cfg, 200)
	payload, err := snapshot.Open(data, snapshotMagic, snapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	cx := lastRouterCrossbar(cfg, payload)
	deg, rc := int64(cfg.Topo.Degree()), mustNet(t, cfg).cfg.Router
	put := func(b []byte, off int, v int64) { binary.LittleEndian.PutUint64(b[off:], uint64(v)) }

	for name, mutate := range map[string]func(b []byte){
		"network port, one past": func(b []byte) { put(b, cx, 0); put(b, cx+8, int64(rc.VCs)) },
		"network port, absurd":   func(b []byte) { put(b, cx, 0); put(b, cx+8, 1<<20) },
		"network port, negative": func(b []byte) { put(b, cx, 0); put(b, cx+8, -1) },
		"injection port":         func(b []byte) { put(b, cx, deg); put(b, cx+8, int64(rc.InjectionVCs)) },
		"wraps to zero":          func(b []byte) { put(b, cx, 0); put(b, cx+8, 1<<32) },
		"saved VC":               func(b []byte) { b[cx+17] = 1; put(b, cx+18, 0); put(b, cx+26, int64(rc.VCs)) },
		"saved port negative":    func(b []byte) { b[cx+17] = 1; put(b, cx+18, -1) },
	} {
		t.Run(name, func(t *testing.T) {
			mut := bytes.Clone(payload)
			mutate(mut)
			err := restoreAndStep(t, cfg, snapshot.Seal(snapshotMagic, snapshotVersion, mut))
			if err == nil {
				t.Fatal("hostile crossbar state restored without error")
			}
			if !strings.Contains(err.Error(), "crossbar") && !strings.Contains(err.Error(), "overflows") {
				t.Fatalf("rejected for an unrelated reason (is the offset stale?): %v", err)
			}
		})
	}
	// Control: the offsets above address real crossbar fields — an in-range
	// rewrite of the same bytes still restores.
	mut := bytes.Clone(payload)
	put(mut, cx, 0)
	put(mut, cx+8, int64(rc.VCs-1))
	if err := restoreAndStep(t, cfg, snapshot.Seal(snapshotMagic, snapshotVersion, mut)); err != nil {
		t.Fatalf("in-range crossbar rewrite rejected: %v", err)
	}
}

// restoreAndStep restores input into a fresh network and, when Restore
// accepts it and CheckInvariants finds the state sound, runs 8 cycles. It
// returns Restore's error; a panic anywhere fails the test. (A restored
// state the invariant checker rejects is reported by the checker, not
// stepped: Step's contract starts from a sound state.)
func restoreAndStep(t *testing.T, cfg Config, input []byte) error {
	t.Helper()
	n := mustNet(t, cfg)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic on a %d-byte input: %v\n%s", len(input), r, debug.Stack())
		}
	}()
	if err := n.Restore(bytes.NewReader(input)); err != nil {
		return err
	}
	if n.CheckInvariants() == nil {
		for i := 0; i < 8; i++ {
			n.Step()
		}
	}
	return nil
}

// TestSnapshotRejectsHostilePacketEndpoints rewrites, one packet at a time,
// the destination of every packet in a re-sealed snapshot. A node the
// topology does not have must be an error (it used to restore and index out
// of range in the routing function); another valid node must either be
// rejected or leave a network that steps — a packet already granted the
// ejection port of its old destination used to restore and then trip the
// delivery assertion.
func TestSnapshotRejectsHostilePacketEndpoints(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 3)
	n, data := takeSnapshot(t, cfg, 150)
	payload, err := snapshot.Open(data, snapshotMagic, snapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	// The table follows guard, log, clock, RNG, ID allocator and counters;
	// a record is 125 bytes with Dst at +16.
	var head snapshot.Codec
	n.walkConfigGuard(&head)
	if err := n.walkReconfigLog(&head); err != nil {
		t.Fatal(err)
	}
	table := len(head.Bytes()) + 8 + 32 + 8 + 19*8
	count := int(binary.LittleEndian.Uint64(payload[table:]))
	if count != len(n.collectPackets()) || count < 20 {
		t.Fatalf("packet table not where the layout says: count %d, live packets %d", count, len(n.collectPackets()))
	}
	nodes := uint64(cfg.Topo.Nodes())
	seal := func(p []byte) []byte { return snapshot.Seal(snapshotMagic, snapshotVersion, p) }
	rejected := 0
	for k := 0; k < count; k++ {
		dst := table + 8 + k*125 + 16
		old := binary.LittleEndian.Uint64(payload[dst:])
		mut := bytes.Clone(payload)
		binary.LittleEndian.PutUint64(mut[dst:], nodes)
		if restoreAndStep(t, cfg, seal(mut)) == nil {
			t.Fatalf("packet %d: destination %d of %d nodes restored without error", k, nodes, nodes)
		}
		binary.LittleEndian.PutUint64(mut[dst:], (old+1)%nodes)
		if restoreAndStep(t, cfg, seal(mut)) != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no snapshot held a packet with an eject grant: the redirect case went untested")
	}
}

// FuzzSnapshotRestore throws arbitrary bytes at Restore, for a flit-by-flit
// and a packet-by-packet network. Raw mutations are usually stopped by the
// checksum trailer, so the fuzz body also re-seals the input as a valid
// container to reach the payload decoder. The targets: Restore returns an
// error or nil, never a panic; and a network Restore accepted is one the
// simulator can run (restoreAndStep).
func FuzzSnapshotRestore(f *testing.F) {
	fbf := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 3)
	fbf.Router.Timeout = 4
	cfgs := []Config{fbf, pbpFuzzConfig()}
	for i, cfg := range cfgs {
		n, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		n.Run(150)
		var buf bytes.Buffer
		if err := n.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid, uint8(i))
		f.Add(valid[:len(valid)/2], uint8(i))
		payload, err := snapshot.Open(valid, snapshotMagic, snapshotVersion)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(snapshot.Seal(snapshotMagic, snapshotVersion, payload[:len(payload)/3]), uint8(i))
		f.Add([]byte{}, uint8(i))
		// The bare payload: re-sealed by the body, so mutations of it reach
		// every field of the walk.
		f.Add(payload, uint8(i))
	}

	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		cfg := cfgs[int(which)%len(cfgs)]
		// Error or nil are both fine; restoreAndStep fails the test on a panic.
		_ = restoreAndStep(t, cfg, data)
		_ = restoreAndStep(t, cfg, snapshot.Seal(snapshotMagic, snapshotVersion, data))
	})
}
