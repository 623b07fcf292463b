package network

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// Regenerate the committed snapshot-format fixture after an intentional
// format change (remember to bump snapshotVersion) with:
//
//	go test ./internal/network -run TestSnapshotGoldenFixture -update-snapshot
var updateSnapshot = flag.Bool("update-snapshot", false, "rewrite testdata/snapshot_v4.bin, the wedge-*.bin loads and the FuzzSnapshotRestore seed from the current encoder")

const snapshotFixture = "testdata/snapshot_v4.bin"

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
// The restored side must also pass CheckInvariants as decoded: what the
// decoder derives (the pending mask, the crossbar counts) must already hold.
func checkLockstep(t *testing.T, orig, restored *Network, cycles int) {
	t.Helper()
	if err := restored.CheckInvariants(); err != nil {
		t.Fatalf("restored network: %v", err)
	}
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

// TestSnapshotRestoredLiveSetMatchesReference restores a mid-run snapshot
// into a fresh network, whose input VC scans walk slot masks the snapshot
// does not carry (the decoder derives them), and steps it in lockstep with
// the uninterrupted original, whose masks were kept up to date cycle by
// cycle, for 600 cycles with CheckInvariants (every mask bit exact) on the
// restored side each cycle.
// Sequential recovery exercises the Token's MostStarved walk; abort-retry
// empties slots by purge outside the timer phase.
func TestSnapshotRestoredLiveSetMatchesReference(t *testing.T) {
	for _, mode := range []router.RecoveryMode{router.RecoverySequential, router.RecoveryAbortRetry} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.9, 12)
			cfg.Router.VCs = 2
			cfg.Router.BufferDepth = 1
			cfg.Router.Timeout = 4
			cfg.Router.Recovery = mode
			orig, data := takeSnapshot(t, cfg, 300)
			restored := restoreFresh(t, cfg, data)
			recovered := func() int64 {
				c := restored.Counters()
				return c.Recoveries + c.PacketsKilled
			}
			before := recovered()
			for c := 1; c <= 600; c++ {
				restored.Step()
				orig.Step()
				if err := restored.CheckInvariants(); err != nil {
					t.Fatalf("cycle %d after restore: %v", c, err)
				}
				if restored.Fingerprint() != orig.Fingerprint() {
					reportDivergence(t, c, restored, orig)
				}
			}
			if recovered() == before {
				t.Fatal("no recovery or kill after the restore; the recovery walks are not under test")
			}
		})
	}
}

// TestSnapshotFaultReplay verifies the fault-injection replay list: a
// snapshot of a degraded network restores the same failed links (and the
// rebuilt DB routing tables they imply) before applying state.
func TestSnapshotFaultReplay(t *testing.T) {
	cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.4, 9)
	n := mustNet(t, cfg)
	if err := n.KillLink(10, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.KillLink(35, 1); err != nil {
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
// silently succeed. Each hostile payload after those is a state the walk
// itself encodes — edited in a restored copy (poke, or a packet's own
// fields), with splice putting a value no state can hold in a field the
// edit located — so no case depends on where a field sits in the bytes.
// Every field that is decoded keeps one refusal: a reconfiguration log
// entry this build cannot replay, kind 2 or 3 (once a router kill and heal)
// or 4 (once a routing swap), by its index; flits with no owner and a run
// past its owner's length, by the slot; a listed slot at rest and a listing
// past the slot count, which would give one state two encodings; and a file
// of another format version, by its version.
func TestSnapshotCorruption(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 3)
	cfg.Router.Timeout = 4
	orig, data := takeSnapshot(t, cfg, 200)
	refused := func(t *testing.T, file []byte, want string) {
		t.Helper()
		if err := restoreAndStep(t, cfg, file); err == nil || err.Error() != want {
			t.Errorf("restore error %v, want %q", err, want)
		}
	}

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
	t.Run("retired log entry", func(t *testing.T) {
		n := mustNet(t, cfg)
		if err := n.KillLink(5, 0); err != nil {
			t.Fatal(err)
		}
		n.Run(50)
		for _, kind := range []ReconfigKind{2, 3, 4} {
			n.reconfigLog[0].Kind = kind
			refused(t, sealedOf(t, n), fmt.Sprintf("snapshot: reconfiguration log entry 0: network: unknown reconfiguration kind %d", kind))
		}
		n.reconfigLog[0].Kind = ReconfigKillLink
		if err := restoreAndStep(t, cfg, sealedOf(t, n)); err != nil {
			t.Fatalf("the unedited snapshot is refused: %v", err)
		}
	})
	t.Run("buffer not its owner's run", func(t *testing.T) {
		// A slot buffering two flits whose head is a body flit, of a packet
		// whose source has streamed it whole: its timer is not coded, so its
		// owner can go without a dereference, and its owner's length is
		// checked against its runs alone.
		node, port, vc := -1, 0, 0
		for i, r := range orig.routers {
			for p := 0; p < r.InputPorts() && node < 0; p++ {
				for v := 0; v < r.InputVCCount(p) && node < 0; v++ {
					if o := r.InputOwner(p, v); r.InputOccupancy(p, v) == 2 && !r.InputFlitAt(p, v, 0).IsHeader() && orig.nis[o.Src].cur != o {
						node, port, vc = i, p, v
					}
				}
			}
			if node >= 0 {
				break
			}
		}
		if node < 0 {
			t.Fatal("no input VC buffers two flits behind its header at cycle 200")
		}
		where := fmt.Sprintf("router %d: snapshot: input (%d,%d)", node, port, vc)
		n := restoreFresh(t, cfg, data)
		slot := node*(cfg.Topo.Degree()*cfg.Router.VCs+1) + port*cfg.Router.VCs + vc
		poke(n, slot, 0, "in", "owner")
		refused(t, sealedOf(t, n), where+" buffers flits with no owner")

		// Shorten the owner so its run ends past it; the first slot it owns
		// in walk order whose run no longer fits is the one refused.
		n = restoreFresh(t, cfg, data)
		owner := n.routers[node].InputOwner(port, vc)
		first := n.routers[node].InputFlitAt(port, vc, 0).Seq
		owner.Length = first + 1
		want := ""
		for i, r := range n.routers {
			for p := 0; p < r.InputPorts() && want == ""; p++ {
				for v := 0; v < r.InputVCCount(p) && want == ""; v++ {
					if k := r.InputOccupancy(p, v); r.InputOwner(p, v) == owner && k > 0 && r.InputFlitAt(p, v, 0).Seq+k > owner.Length {
						s := r.InputFlitAt(p, v, 0).Seq
						want = fmt.Sprintf("router %d: snapshot: input (%d,%d): flits %d..%d outside packet %d's length %d", i, p, v, s, s+k-1, owner.ID, owner.Length)
					}
				}
			}
		}
		refused(t, sealedOf(t, n), want)
	})
	t.Run("grant onto an owned slot", func(t *testing.T) {
		// Give the downstream slot of a granted header another packet: the
		// header's grant says that slot is empty, and Commit would take it
		// from its owner. The slot can be a later router's, so the refusal
		// waits for every router.
		n := restoreFresh(t, cfg, data)
		g, _ := grantedHeader(t, n)
		var other *packet.Packet // a packet that owns a slot, so holds a handle
		for _, o := range n.collectPackets() {
			if o.Handle > 0 && o != n.routers[g.node].InputOwner(g.port, g.vc) {
				other = o
				break
			}
		}
		r := n.routers[g.node]
		stride := cfg.Topo.Degree()*cfg.Router.VCs + 1
		down := int(r.Neighbor(g.route).Node())*stride + r.ReverseAt(g.route)*cfg.Router.VCs + g.outVC
		poke(n, down, int64(other.Handle), "in", "owner")
		refused(t, sealedOf(t, n), fmt.Sprintf("snapshot: router %d input (%d,%d): header holds output (%d,%d), whose downstream slot is packet %d's",
			g.node, g.port, g.vc, g.route, g.outVC, other.ID))
	})
	t.Run("two headers on one output VC", func(t *testing.T) {
		// Route a second header of the granted header's router to the same
		// output VC; the later of the two in slot order is named.
		n := restoreFresh(t, cfg, data)
		g, h := grantedHeader(t, n)
		stride := cfg.Topo.Degree()*cfg.Router.VCs + 1
		slot := h.node*stride + h.port*cfg.Router.VCs + h.vc
		poke(n, slot, int64(g.route), "inRoute")
		poke(n, slot, int64(g.outVC), "inOutVC")
		if h.port*cfg.Router.VCs+h.vc < g.port*cfg.Router.VCs+g.vc {
			h = g
		}
		refused(t, sealedOf(t, n), fmt.Sprintf("snapshot: router %d output (%d,%d): granted to two headers, the second at input (%d,%d)",
			g.node, g.route, g.outVC, h.port, h.vc))
	})
	t.Run("listed slot at rest", func(t *testing.T) {
		// List a resting slot by giving it a DB lane, then code that lane
		// back to 0: the slot decodes at rest although it is listed. The
		// edited file is also the FuzzSnapshotRestore seed
		// listed-slot-at-rest (its first configuration; rewrite it with
		// -update-snapshot).
		n := restoreFresh(t, cfg, data)
		r, l, p, v := n.routers[0], -1, 0, 0
		for q := 0; q < r.InputPorts() && l < 0; q++ {
			for w := 0; w < r.InputVCCount(q) && l < 0; w++ {
				route, outVC := r.InputRoute(q, w)
				waiting, presumed, sent := r.InputTimer(q, w)
				if r.InputOwner(q, w) == nil && route == router.PortUnrouted && outVC == router.VCUnrouted && waiting == 0 && !presumed && !sent {
					l, p, v = q*cfg.Router.VCs+w, q, w // router 0's slots come first
				}
			}
		}
		if l < 0 {
			t.Fatal("router 0 has no input slot at rest at cycle 200")
		}
		poke(n, l, 1, "inDBLane")
		one := payloadOf(t, n)
		poke(n, l, 2, "inDBLane")
		edited := snapshot.Seal(snapshotMagic, snapshotVersion, splice(t, one, payloadOf(t, n), 0))
		refused(t, edited, fmt.Sprintf("router 0: snapshot: input (%d,%d) is listed but at rest", p, v))
		if *updateSnapshot {
			seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nbyte('\\x00')\n", edited)
			if err := os.WriteFile(restingSeed, []byte(seed), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		seed, err := os.ReadFile(restingSeed)
		if err != nil || !bytes.Contains(seed, []byte(fmt.Sprintf("%q", edited))) {
			t.Fatalf("%s is not this edited snapshot (rewrite it with -update-snapshot): %v", restingSeed, err)
		}
	})
	t.Run("sent flag set", func(t *testing.T) {
		// No slot is marked sent between cycles, so every file codes the
		// flag 0. Set it on an owned slot: its byte follows the presumed
		// flag's, which follows the slot's DB lane, located by coding that
		// lane a second time as 1.
		n := restoreFresh(t, cfg, data)
		node, port, vc := -1, 0, 0
		for i, r := range n.routers {
			for p := 0; p < r.InputPorts() && node < 0; p++ {
				for v := 0; v < r.InputVCCount(p) && node < 0; v++ {
					if r.InputOwner(p, v) != nil {
						node, port, vc = i, p, v
					}
				}
			}
		}
		if node < 0 {
			t.Fatal("no input slot is owned at cycle 200")
		}
		payload := payloadOf(t, n)
		poke(n, node*(cfg.Topo.Degree()*cfg.Router.VCs+1)+port*cfg.Router.VCs+vc, 1, "inDBLane")
		other := payloadOf(t, n)
		k := 0
		for payload[k] == other[k] {
			k++
		}
		if payload[k+1] != 0 || payload[k+2] != 0 {
			t.Fatalf("presumed and sent bytes after the DB lane at %d read %d and %d, want 0 and 0", k, payload[k+1], payload[k+2])
		}
		payload[k+2] = 1
		refused(t, snapshot.Seal(snapshotMagic, snapshotVersion, payload),
			fmt.Sprintf("router %d: snapshot: input (%d,%d) is marked sent between cycles", node, port, vc))
	})
	t.Run("listing past the slot count", func(t *testing.T) {
		// A router record opens with its input listing; an index past the
		// stride is refused, whatever the record held.
		payload, err := snapshot.Open(data, snapshotMagic, snapshotVersion)
		if err != nil {
			t.Fatal(err)
		}
		stride := cfg.Topo.Degree()*cfg.Router.VCs + 1
		at := routerRecords(t, orig, len(payload))[3]
		_, k := binary.Uvarint(payload[at:])
		mut := append(binary.AppendUvarint(bytes.Clone(payload[:at]), uint64(stride+1)), payload[at+k:]...)
		refused(t, snapshot.Seal(snapshotMagic, snapshotVersion, mut),
			fmt.Sprintf("router 3: snapshot: listed input slot %d outside [0, %d)", stride+1, stride+1))
	})
	t.Run("version 3 file", func(t *testing.T) {
		payload, err := snapshot.Open(data, snapshotMagic, snapshotVersion)
		if err != nil {
			t.Fatal(err)
		}
		refused(t, snapshot.Seal(snapshotMagic, 3, payload),
			"snapshot: format version 3 not supported (this build reads version 4); regenerate the file from cycle 0 with the same flags")
	})
}

// inputAt is input slot (port, vc) of router node, with its route and
// output VC.
type inputAt struct{ node, port, vc, route, outVC int }

// grantedHeader steps n until a router holds two headers at buffer heads,
// one of them routed to an output VC whose grant it holds across the cycle
// boundary (it lost switch arbitration), and returns that one and the
// other.
func grantedHeader(t *testing.T, n *Network) (granted, other inputAt) {
	t.Helper()
	for k := 0; k < 200; k++ {
		n.Step()
		for i, r := range n.routers {
			var heads []inputAt
			for p := 0; p < r.InputPorts(); p++ {
				for v := 0; v < r.InputVCCount(p); v++ {
					if hd, ok := r.InputHead(p, v); ok && hd.IsHeader() {
						q, ov := r.InputRoute(p, v)
						heads = append(heads, inputAt{i, p, v, q, ov})
					}
				}
			}
			for j, h := range heads {
				if h.route >= 0 && h.outVC >= 0 && len(heads) > 1 {
					return h, heads[(j+1)%len(heads)]
				}
			}
		}
	}
	t.Fatalf("no router holds a granted header beside another header by cycle %d", n.Now())
	return
}

// restingSeed is the committed FuzzSnapshotRestore seed holding
// TestSnapshotCorruption's listed slot at rest.
const restingSeed = "testdata/fuzz/FuzzSnapshotRestore/listed-slot-at-rest"

// payloadOf returns n's snapshot payload, unsealed.
func payloadOf(t *testing.T, n *Network) []byte {
	t.Helper()
	var enc snapshot.Codec
	if err := n.walkState(&enc); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// sealedOf returns n's snapshot file.
func sealedOf(t *testing.T, n *Network) []byte {
	t.Helper()
	return snapshot.Seal(snapshotMagic, snapshotVersion, payloadOf(t, n))
}

// poke sets element i of the router.State slice at path (field names from
// router.State down, "in", "owner" for the input slots' owner handles) to v,
// across the package boundary: the corruption tests encode the hostile
// states it builds through the walk, as a live network's.
func poke(n *Network, i int, v int64, path ...string) {
	f := reflect.ValueOf(n.routerState).Elem()
	for _, name := range path {
		f = f.FieldByName(name)
	}
	e := f.Index(i)
	e = reflect.NewAt(e.Type(), unsafe.Pointer(e.UnsafeAddr())).Elem()
	if e.Kind() == reflect.Bool {
		e.SetBool(v != 0)
		return
	}
	e.SetInt(v)
}

// splice returns a copy of a with the varint that starts where a and b
// first differ replaced by the unsigned varint x. Encoding one state twice,
// with one field changed in its lowest bit, locates that field, so a test
// can put there a value no state can hold.
func splice(t *testing.T, a, b []byte, x uint64) []byte {
	t.Helper()
	k := 0
	for k < len(a) && k < len(b) && a[k] == b[k] {
		k++
	}
	_, m := binary.Uvarint(a[k:])
	if k == len(a) || m <= 0 {
		t.Fatalf("the two encodings do not differ at a varint (first difference at %d of %d bytes)", k, len(a))
	}
	return append(binary.AppendUvarint(bytes.Clone(a[:k]), x), a[k+m:]...)
}

// routerRecords returns where each router's record starts in n's snapshot
// payload of payloadLen bytes: the records end the payload, each its
// WalkState bytes.
func routerRecords(t *testing.T, n *Network, payloadLen int) []int {
	t.Helper()
	starts := make([]int, len(n.routers))
	at := payloadLen
	for i := len(n.routers) - 1; i >= 0; i-- {
		var enc snapshot.Codec
		if err := n.routers[i].WalkState(&enc, nil); err != nil {
			t.Fatal(err)
		}
		at -= len(enc.Bytes())
		starts[i] = at
	}
	return starts
}

// TestFingerprintHashesPacketFields edits one field of one live packet at a
// time — each steers routing or recovery, or is reported — and requires the
// fingerprint to change: a packet's fields are state, which Fingerprint
// hashes through the packet table.
func TestFingerprintHashesPacketFields(t *testing.T) {
	n := mustNet(t, testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 3))
	n.Run(150)
	p := n.collectPackets()[0]
	before, saved := n.Fingerprint(), *p
	for field, edit := range map[string]func(){
		"Misroutes":       func() { p.Misroutes++ },
		"DatelineCrossed": func() { p.DatelineCrossed ^= 1 },
		"OnDeterministic": func() { p.OnDeterministic = !p.OnDeterministic },
		"OnDB":            func() { p.OnDB = !p.OnDB },
		"LastDim":         func() { p.LastDim++ },
		"Hops":            func() { p.Hops++ },
	} {
		edit()
		if n.Fingerprint() == before {
			t.Errorf("packet %d's %s changed and the fingerprint did not", p.ID, field)
		}
		*p = saved
	}
	if n.Fingerprint() != before {
		t.Fatal("the fingerprint moved with every packet field restored")
	}
}

// TestSnapshotRestoresLongCounts restores a snapshot whose reconfiguration
// log holds 2000 entries, 8 to 10 bytes each, and whose last node queues
// 1000 packets, near the payload's end at one or two bytes a packet, behind
// a packet table of some 30 bytes a packet: each count is bounded by its
// entries' shortest encoding (v3's bounds, 64 bytes a log entry, 8 a
// queued packet and 102 a table entry, refuse this file).
func TestSnapshotRestoresLongCounts(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 3)
	n := mustNet(t, cfg)
	n.Run(50)
	for k := 0; k < 1000; k++ {
		if err := n.KillLink(5, 0); err != nil {
			t.Fatal(err)
		}
		if err := n.HealLink(5, 0); err != nil {
			t.Fatal(err)
		}
	}
	last := len(n.nis) - 1
	for k := 0; k < 1000; k++ {
		n.enqueue(last, packet.New(n.allocID(), topology.Node(last), 0, cfg.MsgLen, n.Now()))
	}
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	checkLockstep(t, n, restoreFresh(t, cfg, buf.Bytes()), 50)
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
// bytes (its walk over a digest, routerDigest) are exactly its snapshot
// bytes (WalkState over an encoder) minus the 32-byte RNG trailer, so no
// field a restore brings back can go unhashed.
func TestAppendStateIsSnapshotPrefix(t *testing.T) {
	const rngTrailer = 4 * 8
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			n := mustNet(t, gc.build())
			n.Run(gc.cycles)
			for i, r := range n.routers {
				var enc snapshot.Codec
				if err := r.WalkState(&enc, nil); err != nil {
					t.Fatal(err)
				}
				snap := enc.Bytes()
				if digest := routerDigest(r); !bytes.Equal(digest, snap[:len(snap)-rngTrailer]) {
					t.Fatalf("router %d: its digest (%d bytes) is not WalkState (%d bytes) minus the RNG trailer",
						i, len(digest), len(snap))
				}
			}
		})
	}
}

// snapshotFixtureConfig is the pinned configuration for the committed
// format fixture. Changing it invalidates testdata/snapshot_v4.bin.
func snapshotFixtureConfig() Config {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.6, 2026)
	cfg.Router.VCs = 2
	cfg.Router.BufferDepth = 1
	cfg.Router.Timeout = 4
	return cfg
}

// TestSnapshotGoldenFixture decodes a snapshot file committed to testdata,
// pinning the on-disk format: if the encoding changes in any way, this test
// fails until the format version is bumped and the fixture regenerated. The
// same payload sealed as version 3 is refused by its version: a reader
// decodes one format.
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
	payload, err := snapshot.Open(data, snapshotMagic, snapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	const refused = "format version 3 not supported (this build reads version 4)"
	v3 := snapshot.Seal(snapshotMagic, 3, payload)
	if err := mustNet(t, cfg).Restore(bytes.NewReader(v3)); err == nil || !strings.Contains(err.Error(), refused) {
		t.Fatalf("restore of the fixture sealed as version 3: %v, want %q", err, refused)
	}

	// The fixture must decode to the exact state the encoder produces today.
	orig, fresh := takeSnapshot(t, cfg, 250)
	if !bytes.Equal(data, fresh) {
		t.Fatal("current encoder no longer reproduces the committed fixture; bump snapshotVersion and regenerate with -update-snapshot")
	}
	checkLockstep(t, orig, restored, 50)
}

// TestSnapshotBytesWithoutRecoveryLaneSettings pins the fixture
// configuration's snapshot under recovery off and under abort-retry, the
// two recovery settings snapshot_v4.bin (sequential recovery) leaves
// unpinned. Neither the Deadlock Buffer depth nor the injection VC count is
// a setting, and the format codes neither.
func TestSnapshotBytesWithoutRecoveryLaneSettings(t *testing.T) {
	for _, tc := range []struct {
		name   string
		build  func(*Config)
		sha256 string
	}{
		{"recovery off", func(c *Config) { c.Router.Timeout = 0 }, "8af0e88cbfec60ee1c3160bc3112290e28a73cbd9f006b9d3954e5380fbdbaf8"},
		{"abort-retry", func(c *Config) { c.Router.Recovery = router.RecoveryAbortRetry }, "5ce37c6063a113f23a54da95e6a0ec3a665611c10453bb886851d094dc253b65"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := snapshotFixtureConfig()
			tc.build(&cfg)
			_, data := takeSnapshot(t, cfg, 250)
			if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != tc.sha256 {
				t.Fatalf("snapshot SHA-256 %x, pinned %s: this encoder's bytes differ from the pinned format's", sum, tc.sha256)
			}
		})
	}
}

// TestSnapshotRefusesValuesOffTheClock holds a restore to its clock. The VC
// arbitration offset, a function of the clock, was once coded, and a decoder
// refused an offset that disagreed with it. The format now codes the clock
// and nothing derived from it, so no file holds an offset off the clock: the
// case moves a network's clock (with its timer passes' stamps, so the gauges
// read as before) and finds the encoding changed at the clock's varint
// alone, then runs a restored network against the original through a full
// rotation of the offset.
func TestSnapshotRefusesValuesOffTheClock(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 3)
	cfg.Router.Timeout = 4
	stride := cfg.Topo.Degree()*mustNet(t, cfg).cfg.Router.VCs + 1
	t.Run("VC arbitration offset", func(t *testing.T) {
		const warm = 150
		if warm%stride == 0 {
			t.Fatalf("the offset at cycle %d is a fresh network's", warm)
		}
		orig, data := takeSnapshot(t, cfg, warm)
		n := restoreFresh(t, cfg, data)
		at := payloadOf(t, n)
		n.clock.Set(warm + 1)
		for i := range n.routers {
			poke(n, i, warm+1, "tickedAt")
		}
		moved := payloadOf(t, n)
		if got := splice(t, at, moved, 2*(warm+1)); !bytes.Equal(got, moved) { // zigzag varint
			t.Fatal("moving the clock changed the encoding past the clock's varint: a coded field follows the clock")
		}
		checkLockstep(t, orig, restoreFresh(t, cfg, data), stride)
	})
}

// pbpFuzzConfig is a packet-by-packet network busy enough that crossbar
// connections are live in a mid-run snapshot.
func pbpFuzzConfig() Config {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 3)
	cfg.Router.Alloc = router.PacketByPacket
	cfg.Router.Timeout = 4
	return cfg
}

// TestSnapshotRejectsHostileCrossbarVC re-seals a packet-by-packet snapshot
// whose crossbar names an input VC that does not exist. Restore used to
// accept it (DecodeState bounds-checked the port but not the VC) and the
// next StageSwitch indexed far outside the input-VC arrays; now the walk
// rejects it next to the field, whether the value is one past the port's VC
// count, absurd, or only in range after wrapping to 32 bits. Each file is
// the walk's encoding of a restored copy whose last router's crossbar port
// 0 is edited (poke); the values its int8 cannot hold are spliced in where
// the edit located the field.
func TestSnapshotRejectsHostileCrossbarVC(t *testing.T) {
	cfg := pbpFuzzConfig()
	_, data := takeSnapshot(t, cfg, 200)
	deg, vcs := cfg.Topo.Degree(), mustNet(t, cfg).cfg.Router.VCs
	cx := (cfg.Topo.Nodes() - 1) * deg // the last router's port 0
	edited := func(set map[string]int64) *Network {
		n := restoreFresh(t, cfg, data)
		for field, v := range set {
			poke(n, cx, v, field)
		}
		return n
	}
	file := func(set map[string]int64) []byte { return sealedOf(t, edited(set)) }
	// wide puts x in the field the two edits locate.
	wide := func(a, b map[string]int64, x uint64) []byte {
		return snapshot.Seal(snapshotMagic, snapshotVersion, splice(t, payloadOf(t, edited(a)), payloadOf(t, edited(b)), x))
	}
	for name, f := range map[string][]byte{
		"network port, one past": file(map[string]int64{"cxInPort": 0, "cxInVC": int64(vcs)}),
		"network port, absurd":   wide(map[string]int64{"cxInPort": 0, "cxInVC": 1}, map[string]int64{"cxInPort": 0, "cxInVC": 2}, 1<<20),
		"network port, negative": file(map[string]int64{"cxInPort": 0, "cxInVC": -1}),
		"injection port":         file(map[string]int64{"cxInPort": int64(deg), "cxInVC": 1}),
		"wraps to zero":          wide(map[string]int64{"cxInPort": 0, "cxInVC": 1}, map[string]int64{"cxInPort": 0, "cxInVC": 2}, 1<<32),
		"saved VC":               file(map[string]int64{"cxSaved": 1, "cxSavedPort": 0, "cxSavedVC": int64(vcs)}),
		"saved port negative":    file(map[string]int64{"cxSaved": 1, "cxSavedPort": -1}),
	} {
		t.Run(name, func(t *testing.T) {
			err := restoreAndStep(t, cfg, f)
			if err == nil {
				t.Fatal("hostile crossbar state restored without error")
			}
			if !strings.Contains(err.Error(), "crossbar") {
				t.Fatalf("rejected for an unrelated reason: %v", err)
			}
		})
	}
	// Control: the edits above reach real crossbar fields — an in-range
	// edit of the same port still restores.
	if err := restoreAndStep(t, cfg, file(map[string]int64{"cxInPort": 0, "cxInVC": int64(vcs - 1)})); err != nil {
		t.Fatalf("in-range crossbar edit rejected: %v", err)
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
// the destination of every packet in a restored copy and encodes it. A node
// the topology does not have must be an error (it used to restore and index
// out of range in the routing function); another valid node must either be
// rejected or leave a network that steps — a packet already granted the
// ejection port of its old destination used to restore and then trip the
// delivery assertion.
func TestSnapshotRejectsHostilePacketEndpoints(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 3)
	n, data := takeSnapshot(t, cfg, 150)
	count := len(n.collectPackets())
	if count < 20 {
		t.Fatalf("only %d live packets at cycle 150", count)
	}
	nodes := topology.Node(cfg.Topo.Nodes())
	redirect := func(k int, dst topology.Node) []byte {
		c := restoreFresh(t, cfg, data)
		c.collectPackets()[k].Dst = dst
		return sealedOf(t, c)
	}
	rejected := 0
	for k, p := range n.collectPackets() {
		if restoreAndStep(t, cfg, redirect(k, nodes)) == nil {
			t.Fatalf("packet %d: destination %d of %d nodes restored without error", k, nodes, nodes)
		}
		if restoreAndStep(t, cfg, redirect(k, (p.Dst+1)%nodes)) != nil {
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
