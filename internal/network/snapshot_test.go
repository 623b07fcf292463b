package network

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"testing"

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
var updateSnapshot = flag.Bool("update-snapshot", false, "rewrite testdata/snapshot_v3.bin and the wedge-*.bin loads from the current encoder")

const snapshotFixture = "testdata/snapshot_v3.bin"

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
// silently succeed. A reconfiguration log entry this build cannot replay —
// kind 2 or 3 (once a router kill and heal), kind 4 or a set reserved slot
// (both once a routing swap) — is refused by its index; so is a set counter
// slot whose count lives elsewhere, by its key, and a buffered flit that is
// not its slot owner's next, by the slot.
func TestSnapshotCorruption(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 3)
	cfg.Router.Timeout = 4
	orig, data := takeSnapshot(t, cfg, 200)

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
		var buf bytes.Buffer
		if err := n.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		payload, err := snapshot.Open(buf.Bytes(), snapshotMagic, snapshotVersion)
		if err != nil {
			t.Fatal(err)
		}
		// The log follows the guard: a count, then per entry the cycle,
		// kind, node and port, then the reserved string slot; the entry ends
		// with its reserved count, so that is the log's last 8 bytes.
		var head snapshot.Codec
		n.walkConfigGuard(&head)
		kind, slot := len(head.Bytes())+16, len(head.Bytes())+40
		if err := n.walkReconfigLog(&head); err != nil {
			t.Fatal(err)
		}
		count := len(head.Bytes()) - 8
		if binary.LittleEndian.Uint64(payload[kind:]) != uint64(ReconfigKillLink) ||
			binary.LittleEndian.Uint64(payload[slot:]) != 0 || binary.LittleEndian.Uint64(payload[count:]) != 0 {
			t.Fatal("log entry not where the layout says")
		}
		with := func(off int, v uint64) []byte {
			mut := bytes.Clone(payload)
			binary.LittleEndian.PutUint64(mut[off:], v)
			return mut
		}
		withKind := func(k uint64) []byte { return with(kind, k) }
		set := append(binary.LittleEndian.AppendUint64(bytes.Clone(payload[:slot]), 3), "dor"...)
		set = append(set, payload[slot+8:]...)
		for name, tc := range map[string]struct {
			payload []byte
			want    string
		}{
			"kind 2":         {withKind(2), "log entry 0: network: unknown reconfiguration kind 2"},
			"kind 3":         {withKind(3), "log entry 0: network: unknown reconfiguration kind 3"},
			"kind 4":         {withKind(4), "log entry 0: network: unknown reconfiguration kind 4"},
			"reserved slot":  {set, `log entry 0: reserved field holds "dor"`},
			"reserved count": {with(count, 3), "log entry 0: reserved count holds 3"},
		} {
			err := restoreAndStep(t, cfg, snapshot.Seal(snapshotMagic, snapshotVersion, tc.payload))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: restore error %v, want one containing %q", name, err, tc.want)
			}
		}
		if err := restoreAndStep(t, cfg, buf.Bytes()); err != nil {
			t.Fatalf("the unedited snapshot is refused: %v", err)
		}
	})
	t.Run("reserved counter slot", func(t *testing.T) {
		payload, err := snapshot.Open(data, snapshotMagic, snapshotVersion)
		if err != nil {
			t.Fatal(err)
		}
		// The counters follow the guard, the empty log's count, the clock,
		// the RNG and the ID allocator; the reserved slot follows their rows.
		var head snapshot.Codec
		mustNet(t, cfg).walkConfigGuard(&head)
		clock := len(head.Bytes()) + 8
		slot := clock + 8 + 32 + 8 + 8*len(counterTable)
		if binary.LittleEndian.Uint64(payload[clock:]) != 200 || binary.LittleEndian.Uint64(payload[slot:]) != 0 {
			t.Fatal("counters not where the layout says")
		}
		mut := bytes.Clone(payload)
		binary.LittleEndian.PutUint64(mut[slot:], 5)
		err = restoreAndStep(t, cfg, snapshot.Seal(snapshotMagic, snapshotVersion, mut))
		if want := "counters: reserved slot holds 5"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("restore error %v, want one containing %q", err, want)
		}
	})
	t.Run("derived counter slot", func(t *testing.T) {
		payload, err := snapshot.Open(data, snapshotMagic, snapshotVersion)
		if err != nil {
			t.Fatal(err)
		}
		// Counters adds these to the stored slot, so a set one would be
		// counted twice (timeout_events 1000 read back as 1002).
		var head snapshot.Codec
		mustNet(t, cfg).walkConfigGuard(&head)
		rows := len(head.Bytes()) + 8 + 8 + 32 + 8
		derived := 0
		for k, row := range counterTable {
			if !row.derived {
				continue
			}
			derived++
			slot := rows + 8*k
			if binary.LittleEndian.Uint64(payload[slot:]) != 0 {
				t.Fatalf("%s slot at %d is not the 0 a snapshot writes", row.key, slot)
			}
			mut := bytes.Clone(payload)
			binary.LittleEndian.PutUint64(mut[slot:], 1000)
			err := restoreAndStep(t, cfg, snapshot.Seal(snapshotMagic, snapshotVersion, mut))
			if want := "counters: " + row.key + " slot holds 1000"; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: restore error %v, want one containing %q", row.key, err, want)
			}
		}
		if derived != 11 {
			t.Fatalf("%d derived counter rows, want 11: the clock, the offered count, three Token counts and six router sums", derived)
		}
	})
	t.Run("buffer not its owner's run", func(t *testing.T) {
		payload, err := snapshot.Open(data, snapshotMagic, snapshotVersion)
		if err != nil {
			t.Fatal(err)
		}
		// Find the first input VC buffering two flits.
		records := routerRecords(t, orig, len(payload))
		slot, node, port, vc := -1, 0, 0, 0
		for i, r := range orig.routers {
			off := records[i] + 8
			for p := 0; p < r.InputPorts() && slot < 0; p++ {
				for v := 0; v < r.InputVCCount(p) && slot < 0; v++ {
					if occ := r.InputOccupancy(p, v); occ == 2 {
						slot, node, port, vc = off, i, p, v
					} else {
						off += inputSlotBytes(occ)
					}
				}
			}
			if slot >= 0 {
				break
			}
		}
		if slot < 0 {
			t.Fatal("no input VC buffers two flits at cycle 200")
		}
		r := orig.routers[node]
		owner, first := r.InputOwner(port, vc), r.InputFlitAt(port, vc, 0).Seq
		flits := slot + 5*8 + 2 + 8
		u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(payload[off:]) }
		if u64(slot) != uint64(owner.ID) || u64(flits-8) != 2 || u64(flits) != uint64(owner.ID) ||
			u64(flits+8) != uint64(first) || u64(flits+24) != uint64(first+1) {
			t.Fatal("input slot not where the layout says")
		}
		var other *packet.Packet
		for _, p := range orig.collectPackets() {
			if p != owner {
				other = p
				break
			}
		}
		with := func(off int, v uint64) []byte {
			mut := bytes.Clone(payload)
			binary.LittleEndian.PutUint64(mut[off:], v)
			return snapshot.Seal(snapshotMagic, snapshotVersion, mut)
		}
		where := fmt.Sprintf("router %d: snapshot: input (%d,%d)", node, port, vc)
		for name, tc := range map[string]struct {
			file []byte
			want string
		}{
			"no owner":              {with(slot, ^uint64(0)), where + " buffers flits with no owner"},
			"another packet's flit": {with(flits+16, uint64(other.ID)), fmt.Sprintf("%s buffers a flit that its owner, packet %d, does not own", where, owner.ID)},
			"gap in sequence":       {with(flits+24, uint64(first+2)), fmt.Sprintf("%s: flit seq %d is not its owner's next, %d", where, first+2, first+1)},
		} {
			if err := restoreAndStep(t, cfg, tc.file); err == nil || err.Error() != tc.want {
				t.Errorf("%s: restore error %v, want %q", name, err, tc.want)
			}
		}
	})
	t.Run("timer off its owner's header", func(t *testing.T) {
		payload, err := snapshot.Open(data, snapshotMagic, snapshotVersion)
		if err != nil {
			t.Fatal(err)
		}
		// T_elapsed is its owner's while a slot's head is the owner's
		// header; find a slot whose head is a body flit, and code a timer
		// there.
		records := routerRecords(t, orig, len(payload))
		slot, node, port, vc := -1, 0, 0, 0
		for i, r := range orig.routers {
			off := records[i] + 8
			for p := 0; p < r.InputPorts() && slot < 0; p++ {
				for v := 0; v < r.InputVCCount(p) && slot < 0; v++ {
					occ := r.InputOccupancy(p, v)
					if occ > 0 && !r.InputFlitAt(p, v, 0).IsHeader() {
						slot, node, port, vc = off, i, p, v
					} else {
						off += inputSlotBytes(occ)
					}
				}
			}
			if slot >= 0 {
				break
			}
		}
		if slot < 0 {
			t.Fatal("no input VC holds a body flit at its head at cycle 200")
		}
		waiting := slot + 4*8
		if binary.LittleEndian.Uint64(payload[slot:]) != uint64(orig.routers[node].InputOwner(port, vc).ID) ||
			binary.LittleEndian.Uint64(payload[waiting:]) != 0 {
			t.Fatal("input slot not where the layout says")
		}
		mut := bytes.Clone(payload)
		binary.LittleEndian.PutUint64(mut[waiting:], 3)
		err = restoreAndStep(t, cfg, snapshot.Seal(snapshotMagic, snapshotVersion, mut))
		want := fmt.Sprintf("router %d: snapshot: input (%d,%d): T_elapsed 3, but its head is not its owner's header", node, port, vc)
		if err == nil || err.Error() != want {
			t.Errorf("restore error %v, want %q", err, want)
		}
	})
	t.Run("crossbar connection under flit-by-flit", func(t *testing.T) {
		payload, err := snapshot.Open(data, snapshotMagic, snapshotVersion)
		if err != nil {
			t.Fatal(err)
		}
		// Router 3's crossbar follows its input slots, its output pairs (16
		// bytes each) and its DB lane (owner, route, then the buffer); each
		// port codes its input port, input VC, DB and saved flags and saved
		// port and VC, a resting port as (-1, 0, false, false, 0, 0).
		const node, q = 3, 2
		r := orig.routers[node]
		at := routerRecords(t, orig, len(payload))[node] + 8
		for p := 0; p < r.InputPorts(); p++ {
			for v := 0; v < r.InputVCCount(p); v++ {
				at += inputSlotBytes(r.InputOccupancy(p, v))
			}
		}
		at += 16 * orig.topo.Degree() * cfg.Router.VCs
		for lane := 0; lane < r.DBLanes(); lane++ {
			at += 3*8 + 16*r.DBLaneLen(lane)
		}
		at += q * (4*8 + 2)
		if binary.LittleEndian.Uint64(payload[at:]) != ^uint64(0) || binary.LittleEndian.Uint64(payload[at+8:]) != 0 {
			t.Fatal("crossbar port not where the layout says")
		}
		mut := bytes.Clone(payload)
		binary.LittleEndian.PutUint64(mut[at:], 1)
		err = restoreAndStep(t, cfg, snapshot.Seal(snapshotMagic, snapshotVersion, mut))
		want := fmt.Sprintf("router %d: snapshot: crossbar %d: a connection under flit-by-flit allocation", node, q)
		if err == nil || err.Error() != want {
			t.Errorf("restore error %v, want %q", err, want)
		}
	})
	t.Run("output pair not derived", func(t *testing.T) {
		payload, err := snapshot.Open(data, snapshotMagic, snapshotVersion)
		if err != nil {
			t.Fatal(err)
		}
		// Each output VC is coded as (owner, credits), 8 bytes each, after
		// the router's input slots. Find an idle output, one whose owner is
		// its downstream slot's, and a packet other than that owner.
		records := routerRecords(t, orig, len(payload))
		type output struct{ at, node, port, vc int }
		idle, held := output{at: -1}, output{at: -1}
		var owner *packet.Packet
		for i, r := range orig.routers {
			off := records[i] + 8
			for p := 0; p < r.InputPorts(); p++ {
				for v := 0; v < r.InputVCCount(p); v++ {
					off += inputSlotBytes(r.InputOccupancy(p, v))
				}
			}
			for q := 0; q < orig.topo.Degree(); q++ {
				for v := 0; v < cfg.Router.VCs; v++ {
					o, nb := r.OutputOwner(q, v), r.Neighbor(q)
					switch {
					case idle.at < 0 && o == nil && nb != nil && nb.InputOwner(r.ReverseAt(q), v) == nil:
						idle = output{off, i, q, v}
					case held.at < 0 && o != nil && nb != nil && nb.InputOwner(r.ReverseAt(q), v) == o:
						held, owner = output{off, i, q, v}, o
					}
					off += 16
				}
			}
		}
		if idle.at < 0 || held.at < 0 {
			t.Fatal("no idle output, or none held past its grant, at cycle 200")
		}
		var other *packet.Packet
		for _, p := range orig.collectPackets() {
			if p != owner {
				other = p
				break
			}
		}
		u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(payload[off:]) }
		depth := uint64(cfg.Router.BufferDepth)
		if u64(idle.at) != ^uint64(0) || u64(idle.at+8) != depth || u64(held.at) != uint64(owner.ID) {
			t.Fatal("output pairs not where the layout says")
		}
		with := func(off int, v uint64) []byte {
			mut := bytes.Clone(payload)
			binary.LittleEndian.PutUint64(mut[off:], v)
			return snapshot.Seal(snapshotMagic, snapshotVersion, mut)
		}
		name := func(o output) string {
			return fmt.Sprintf("router %d: snapshot: output (%d,%d)", o.node, o.port, o.vc)
		}
		for what, tc := range map[string]struct {
			file []byte
			want string
		}{
			"credits on an idle output": {with(idle.at+8, 1),
				name(idle) + ": credits 1, but the buffer it feeds has room for 2"},
			"owner on an idle output": {with(idle.at, uint64(other.ID)),
				fmt.Sprintf("%s: owner packet %d, but no header holds its grant and its downstream slot is idle", name(idle), other.ID)},
			"owner not the downstream slot's": {with(held.at, uint64(other.ID)),
				fmt.Sprintf("%s: owner packet %d, but its downstream slot is packet %d's", name(held), other.ID, owner.ID)},
		} {
			if err := restoreAndStep(t, cfg, tc.file); err == nil || err.Error() != tc.want {
				t.Errorf("%s: restore error %v, want %q", what, err, tc.want)
			}
		}
	})
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

// inputSlotBytes is the size of one input slot in a router record holding
// occ buffered flits: the owner, route, output VC, DB lane and waiting
// count (8 bytes each), presumed and sent (1 each), and the buffer: a
// count, then a packet and a position per flit (8 each).
func inputSlotBytes(occ int) int { return 5*8 + 2 + 8 + 16*occ }

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
// format fixture. Changing it invalidates testdata/snapshot_v3.bin.
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
// same payload sealed as version 2 is refused by its version: a reader
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
	const refused = "format version 2 not supported (this build reads version 3)"
	v2 := snapshot.Seal(snapshotMagic, 2, payload)
	if err := mustNet(t, cfg).Restore(bytes.NewReader(v2)); err == nil || !strings.Contains(err.Error(), refused) {
		t.Fatalf("restore of the fixture sealed as version 2: %v, want %q", err, refused)
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
// two recovery settings snapshot_v3.bin (sequential recovery) leaves
// unpinned. Neither the Deadlock Buffer depth nor the injection VC count is
// a setting, and the format codes neither.
func TestSnapshotBytesWithoutRecoveryLaneSettings(t *testing.T) {
	for _, tc := range []struct {
		name   string
		build  func(*Config)
		sha256 string
	}{
		{"recovery off", func(c *Config) { c.Router.Timeout = 0 }, "4ea8f3df45e0fcbb5aacaa6095c9501889e672d981f6ea5ba245928a4657b2b8"},
		{"abort-retry", func(c *Config) { c.Router.Recovery = router.RecoveryAbortRetry }, "49710b6ad24d9ccfab63e511f28994f55ed1bed8184af4b2e721dfd8bfe0bd3f"},
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
	return lastRouterArbOffset(cfg, payload) - cfg.Topo.Degree()*34
}

// lastRouterArbOffset returns the payload offset of the last router's VC
// arbitration offset, the field after its crossbar records.
func lastRouterArbOffset(cfg Config, payload []byte) int {
	deg := cfg.Topo.Degree()
	// VC arbitration offset, swArbOff[deg+1], 9 stats, blockedByVC[VCs],
	// blocked and presumed gauges, RNG.
	trailer := 8 + 8*(deg+1) + 9*8 + 8*cfg.Router.VCs + 8 + 8 + 32
	return len(payload) - trailer
}

// clockSeed is the committed FuzzSnapshotRestore seed holding
// TestSnapshotRefusesValuesOffTheClock's edited offset.
const clockSeed = "testdata/fuzz/FuzzSnapshotRestore/vc-arbitration-offset-off-the-clock"

// TestSnapshotRefusesValuesOffTheClock edits, in a real snapshot, the VC
// arbitration offset of a router — a function of the clock — to a value in
// its range that disagrees with it. Restore must refuse it, not resume a
// run no clock could have produced. The edited snapshot is also a
// FuzzSnapshotRestore seed (its first configuration; rewrite it with
// -update-snapshot).
func TestSnapshotRefusesValuesOffTheClock(t *testing.T) {
	fuzzCfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 3)
	fuzzCfg.Router.Timeout = 4
	rc := mustNet(t, fuzzCfg).cfg.Router
	stride := int64(fuzzCfg.Topo.Degree()*rc.VCs + 1)
	const field = "VC arbitration offset"
	t.Run(field, func(t *testing.T) {
		_, data := takeSnapshot(t, fuzzCfg, 150)
		payload, err := snapshot.Open(data, snapshotMagic, snapshotVersion)
		if err != nil {
			t.Fatal(err)
		}
		at := lastRouterArbOffset(fuzzCfg, payload)
		mut := bytes.Clone(payload)
		v := int64(binary.LittleEndian.Uint64(mut[at:]))
		binary.LittleEndian.PutUint64(mut[at:], uint64((v+1)%stride))
		edited := snapshot.Seal(snapshotMagic, snapshotVersion, mut)
		err = restoreAndStep(t, fuzzCfg, edited)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("restore of a %s off the clock: %v, want a %s error", field, err, field)
		}
		if *updateSnapshot {
			seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nbyte('\\x00')\n", edited)
			if err := os.WriteFile(clockSeed, []byte(seed), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		seed, err := os.ReadFile(clockSeed)
		if err != nil || !bytes.Contains(seed, []byte(fmt.Sprintf("%q", edited))) {
			t.Fatalf("%s is not this edited snapshot (rewrite it with -update-snapshot): %v", clockSeed, err)
		}
	})
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
		"injection port":         func(b []byte) { put(b, cx, deg); put(b, cx+8, 1) },
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
	var ctr Counters
	ctr.Walk(&head)
	table := len(head.Bytes()) + 8 + 32 + 8
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
