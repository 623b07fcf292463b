package network

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The lockstep layer. Tests that hold two networks to the same behavior —
// the active set against the full scan, a restored network against the
// uninterrupted original, fuzzed geometries on both schedulers — step them
// side by side and compare fingerprints; on a mismatch reportDivergence
// names the first cycle, then the first router and field that differ: the
// difference between "something drifted" and an actionable bug report.
//
// diffCases × diffTraffics are 36 deadlock-prone runs of 300 cycles. The
// scans were once checked against a second, reference copy of themselves on
// every cycle of these runs; the final states are now frozen in the golden
// file (computed while both copies still reproduced them), and
// TestDifferentialLockstep replays them.

// diffTraffic names one traffic shape applied on top of a base config.
type diffTraffic struct {
	name  string
	apply func(cfg *Config)
}

func diffTraffics(topo topology.Graph) []diffTraffic {
	return []diffTraffic{
		{"uniform", func(cfg *Config) {}},
		{"hotspot", func(cfg *Config) {
			p, err := traffic.NewHotSpot(traffic.Uniform(topo), topology.Node(topo.Nodes()/3), 0.25)
			if err != nil {
				panic(err)
			}
			cfg.Pattern = p
		}},
		{"bursty", func(cfg *Config) {
			cfg.Burst = traffic.BurstConfig{MeanBurst: 20, MeanIdle: 30}
		}},
	}
}

// diffCase is one algorithm pinned on a deadlock-capable configuration, so
// the run exercises timers, Token recovery and Deadlock-Buffer transit — the
// scans' hairiest state — not just benign routing.
type diffCase struct {
	name  string
	build func() Config
}

func diffCases() []diffCase {
	tight := func(alg routing.Algorithm, topo topology.Graph, load float64, vcs int) Config {
		cfg := testConfig(topo, alg, load, 7)
		cfg.Router.VCs = vcs
		cfg.Router.BufferDepth = 2
		cfg.Router.Timeout = 8
		return cfg
	}
	return []diffCase{
		{"disha", func() Config {
			cfg := tight(routing.Disha(0), topology.MustTorus(6, 6), 0.6, 2)
			cfg.Router.BufferDepth = 1
			cfg.Router.Timeout = 4
			return cfg
		}},
		{"dor", func() Config { return tight(routing.DOR(), topology.MustTorus(6, 6), 0.5, 2) }},
		{"negfirst", func() Config { return tight(routing.NegativeFirst(), topology.MustMesh(6, 6), 0.5, 2) }},
		{"dallyaoki", func() Config { return tight(routing.DallyAoki(), topology.MustTorus(6, 6), 0.5, 3) }},
		{"duato", func() Config { return tight(routing.Duato(), topology.MustTorus(6, 6), 0.5, 3) }},
		// Non-cube digraph topologies: Disha is the only algorithm family
		// that routes on them, with the BFS-table Deadlock Buffer lane and
		// Token recovery.
		{"fullmesh", func() Config {
			cfg := tight(routing.Disha(1), topology.MustFullMesh(16), 0.4, 2)
			cfg.Router.BufferDepth = 1
			cfg.Router.Timeout = 4
			return cfg
		}},
		{"dragonfly", func() Config { return tight(routing.Disha(2), topology.MustDragonfly(4, 2), 0.5, 2) }},
		{"fattree", func() Config { return tight(routing.Disha(1), topology.MustFatTree(4), 0.5, 2) }},
		// Exactly 64 input slots per router (radix 21, 3 VCs): one full
		// mask word, no padding bits.
		{"fullmesh-64", func() Config {
			cfg := tight(routing.Disha(1), topology.MustFullMesh(22), 0.3, 3)
			cfg.Router.BufferDepth = 1
			cfg.Router.Timeout = 4
			return cfg
		}},
		// Radix 11, 45 input slots per router: per-output candidate lists
		// are long and the round-robin offset often sits past the last
		// candidate, so arbitration takes the wrap.
		{"dragonfly-45", func() Config { return tight(routing.Disha(2), topology.MustDragonfly(8, 4), 0.5, 4) }},
		// 67 input slots per router (radix 11, 6 VCs): the masks span two
		// words and the rotating walks cross the boundary.
		{"dragonfly-67", func() Config {
			cfg := tight(routing.Disha(2), topology.MustDragonfly(8, 4), 0.5, 6)
			cfg.Router.BufferDepth = 1
			cfg.Router.Timeout = 4
			return cfg
		}},
		// Two Deadlock Buffer lanes, each with priority on its output, in
		// front of the input arbitration.
		{"concurrent", func() Config {
			cfg := tight(routing.Disha(0), topology.MustTorus(6, 6), 0.6, 1)
			cfg.Router.BufferDepth = 1
			cfg.Router.Timeout = 4
			cfg.Router.Recovery = router.RecoveryConcurrent
			return cfg
		}},
		// Packet-by-packet allocation behind the shared ejection scan.
		{"pbp", func() Config {
			cfg := tight(routing.Disha(1), topology.MustTorus(6, 6), 0.6, 2)
			cfg.Router.Alloc = router.PacketByPacket
			return cfg
		}},
	}
}

// pktID formats a packet for a divergence report.
func pktID(p *packet.Packet) int64 {
	if p == nil {
		return -1
	}
	return int64(p.ID)
}

// diffRouterField walks one router pair field-by-field through the public
// introspection surface and reports the first field whose values differ
// (got, want).
// Returns "" when every inspected field matches (the divergence then lives
// in state the getters do not cover, e.g. arbitration offsets or stats —
// the routerDigest byte diff still localizes it to this router).
func diffRouterField(got, want RouterView) string {
	for p := 0; p < got.InputPorts(); p++ {
		for v := 0; v < got.InputVCCount(p); v++ {
			if pktID(got.InputOwner(p, v)) != pktID(want.InputOwner(p, v)) {
				return sprintf("input (%d,%d) owner: %d vs %d", p, v, pktID(got.InputOwner(p, v)), pktID(want.InputOwner(p, v)))
			}
			sr, sv := got.InputRoute(p, v)
			rr, rv := want.InputRoute(p, v)
			if sr != rr || sv != rv {
				return sprintf("input (%d,%d) route: (%d,%d) vs (%d,%d)", p, v, sr, sv, rr, rv)
			}
			if got.InputOccupancy(p, v) != want.InputOccupancy(p, v) {
				return sprintf("input (%d,%d) occupancy: %d vs %d", p, v, got.InputOccupancy(p, v), want.InputOccupancy(p, v))
			}
			sw, sp, ss := got.InputTimer(p, v)
			rw, rp, rs := want.InputTimer(p, v)
			if sw != rw || sp != rp || ss != rs {
				return sprintf("input (%d,%d) timer: (%d,%v,%v) vs (%d,%v,%v)", p, v, sw, sp, ss, rw, rp, rs)
			}
		}
	}
	deg := got.InputPorts() - 1
	for q := 0; q < deg; q++ {
		for v := 0; v < got.InputVCCount(q); v++ {
			if pktID(got.OutputOwner(q, v)) != pktID(want.OutputOwner(q, v)) {
				return sprintf("output (%d,%d) owner: %d vs %d", q, v, pktID(got.OutputOwner(q, v)), pktID(want.OutputOwner(q, v)))
			}
			if got.Credits(q, v) != want.Credits(q, v) {
				return sprintf("output (%d,%d) credits: %d vs %d", q, v, got.Credits(q, v), want.Credits(q, v))
			}
		}
	}
	for lane := 0; lane < got.DBLanes(); lane++ {
		if pktID(got.DBLaneOwner(lane)) != pktID(want.DBLaneOwner(lane)) {
			return sprintf("DB lane %d owner: %d vs %d", lane, pktID(got.DBLaneOwner(lane)), pktID(want.DBLaneOwner(lane)))
		}
		if got.DBLaneLen(lane) != want.DBLaneLen(lane) {
			return sprintf("DB lane %d occupancy: %d vs %d", lane, got.DBLaneLen(lane), want.DBLaneLen(lane))
		}
	}
	for q := 0; q < deg; q++ {
		sip, siv, sdb, ssp, ssv, ssd := got.Connection(q)
		rip, riv, rdb, rsp, rsv, rsd := want.Connection(q)
		if sip != rip || siv != riv || sdb != rdb || ssp != rsp || ssv != rsv || ssd != rsd {
			return sprintf("crossbar output %d connection: (%d,%d,db=%v,saved=%v@%d,%d) vs (%d,%d,db=%v,saved=%v@%d,%d)",
				q, sip, siv, sdb, ssd, ssp, ssv, rip, riv, rdb, rsd, rsp, rsv)
		}
	}
	return ""
}

// RouterView is the introspection surface diffRouterField needs.
type RouterView interface {
	InputPorts() int
	InputVCCount(port int) int
	InputOwner(port, vc int) *packet.Packet
	InputRoute(port, vc int) (route, outVC int)
	InputOccupancy(port, vc int) int
	InputTimer(port, vc int) (waiting sim.Cycle, presumed, sent bool)
	OutputOwner(port, vc int) *packet.Packet
	Credits(port, vc int) int
	DBLanes() int
	DBLaneOwner(lane int) *packet.Packet
	DBLaneLen(lane int) int
	Connection(q int) (inPort, inVC int, db bool, savedPort, savedVC int, saved bool)
}

// routerDigest is r's part of the network fingerprint: its snapshot walk
// over a digest, which codes no RNG stream.
func routerDigest(r *router.Router) []byte {
	c := snapshot.NewDigest(nil)
	r.WalkState(c, nil)
	return c.Bytes()
}

func sprintf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// locateDivergence finds the first router whose serialized microstate
// differs between the two networks and names the first divergent field.
// found is false when every router matches byte-for-byte (the divergence
// then lives in network-level state: counters, source queues, or Token).
func locateDivergence(got, want *Network) (routerID int, field string, found bool) {
	for i := range got.routers {
		sb := routerDigest(got.routers[i])
		rb := routerDigest(want.routers[i])
		if bytes.Equal(sb, rb) {
			continue
		}
		field = diffRouterField(got.routers[i], want.routers[i])
		if field == "" {
			field = "internal state outside the introspection surface (arbitration offsets or stats)"
		}
		return i, field, true
	}
	return 0, "", false
}

// reportDivergence localizes a fingerprint mismatch between got and want
// at the given cycle to the first (router, field) coordinate and fails the
// test with it.
func reportDivergence(t *testing.T, cycle int, got, want *Network) {
	t.Helper()
	if r, field, ok := locateDivergence(got, want); ok {
		t.Fatalf("networks diverged: cycle %d, router %d, %s", cycle, r, field)
	}
	t.Fatalf("networks diverged: cycle %d, no router differs — divergence is in network-level state (counters, source queues, or Token)", cycle)
}

// TestDifferentialLockstep replays every diffCase under every diffTraffic
// for 300 cycles and holds each final state to the digest frozen in the
// golden file under "lockstep/case/traffic".
func TestDifferentialLockstep(t *testing.T) {
	checkGolden(t, "lockstep/", lockstepCases())
}

// TestDifferentialReportsField proves the divergence reporter itself works
// in both directions: identical networks produce no report, and a pair one
// cycle apart is pinned to a concrete (router, field) coordinate rather
// than just "digests differ".
func TestDifferentialReportsField(t *testing.T) {
	cfg := diffCases()[0].build()
	a := mustNet(t, cfg)
	b := mustNet(t, cfg)
	a.Run(50)
	b.Run(50)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical runs must agree")
	}
	if r, field, ok := locateDivergence(a, b); ok {
		t.Fatalf("identical runs, but diff reports router %d: %s", r, field)
	}
	// Step one side a single cycle: the reporter must localize the skew to a
	// named router field, proving a real divergence would be actionable.
	b.Step()
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("one extra cycle did not change the fingerprint; case is degenerate")
	}
	r, field, ok := locateDivergence(a, b)
	if !ok {
		t.Fatal("the extra cycle changed only network-level state, so the router-field report is not exercised: pin a case whose extra cycle moves a router field")
	}
	t.Logf("one-cycle skew localized to router %d: %s", r, field)
	if field == "" {
		t.Fatal("divergent router reported with empty field description")
	}
}
