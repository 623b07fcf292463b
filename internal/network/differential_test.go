package network

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The differential conformance layer: the optimized struct-of-arrays scan
// path and the retained reference scan path run side-by-side, cycle-locked,
// and every cycle's full-state fingerprint must match. Where the golden
// suite pins both paths against one committed digest at the end of a run,
// this harness localizes a divergence to the first cycle it appears and
// then to the first router and field that differ — the difference between
// "something drifted" and an actionable bug report.

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
// the lockstep run exercises timers, Token recovery and Deadlock-Buffer
// transit — the scan paths' hairiest shared state — not just benign routing.
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
		// that routes on them, and the BFS-table Deadlock Buffer lane plus
		// Token recovery is exactly the new state the scans must agree on.
		{"fullmesh", func() Config {
			cfg := tight(routing.Disha(1), topology.MustFullMesh(16), 0.4, 2)
			cfg.Router.BufferDepth = 1
			cfg.Router.Timeout = 4
			return cfg
		}},
		{"dragonfly", func() Config { return tight(routing.Disha(2), topology.MustDragonfly(4, 2), 0.5, 2) }},
		{"fattree", func() Config { return tight(routing.Disha(1), topology.MustFatTree(4), 0.5, 2) }},
		// Radix 11, 46 input slots per router: per-output candidate lists
		// are long and the round-robin offset often sits past the last
		// candidate, so arbitration takes the wrap.
		{"dragonfly-wide", func() Config {
			cfg := tight(routing.Disha(2), topology.MustDragonfly(8, 4), 0.5, 4)
			cfg.Router.InjectionVCs = 2
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
		// Packet-by-packet allocation is shared by both scan paths; the
		// lockstep still checks it against the reference ejection scan.
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
// introspection surface and reports the first field whose values differ.
// Returns "" when every inspected field matches (the divergence then lives
// in state the getters do not cover, e.g. arbitration offsets or stats —
// the AppendState byte diff still localizes it to this router).
func diffRouterField(soa, ref RouterView) string {
	for p := 0; p < soa.InputPorts(); p++ {
		for v := 0; v < soa.InputVCCount(p); v++ {
			if pktID(soa.InputOwner(p, v)) != pktID(ref.InputOwner(p, v)) {
				return sprintf("input (%d,%d) owner: %d vs %d", p, v, pktID(soa.InputOwner(p, v)), pktID(ref.InputOwner(p, v)))
			}
			sr, sv := soa.InputRoute(p, v)
			rr, rv := ref.InputRoute(p, v)
			if sr != rr || sv != rv {
				return sprintf("input (%d,%d) route: (%d,%d) vs (%d,%d)", p, v, sr, sv, rr, rv)
			}
			if soa.InputOccupancy(p, v) != ref.InputOccupancy(p, v) {
				return sprintf("input (%d,%d) occupancy: %d vs %d", p, v, soa.InputOccupancy(p, v), ref.InputOccupancy(p, v))
			}
			sw, sp, ss := soa.InputTimer(p, v)
			rw, rp, rs := ref.InputTimer(p, v)
			if sw != rw || sp != rp || ss != rs {
				return sprintf("input (%d,%d) timer: (%d,%v,%v) vs (%d,%v,%v)", p, v, sw, sp, ss, rw, rp, rs)
			}
		}
	}
	deg := soa.InputPorts() - 1
	for q := 0; q < deg; q++ {
		for v := 0; v < soa.InputVCCount(q); v++ {
			if pktID(soa.OutputOwner(q, v)) != pktID(ref.OutputOwner(q, v)) {
				return sprintf("output (%d,%d) owner: %d vs %d", q, v, pktID(soa.OutputOwner(q, v)), pktID(ref.OutputOwner(q, v)))
			}
			if soa.Credits(q, v) != ref.Credits(q, v) {
				return sprintf("output (%d,%d) credits: %d vs %d", q, v, soa.Credits(q, v), ref.Credits(q, v))
			}
		}
	}
	for lane := 0; lane < soa.DBLanes(); lane++ {
		if pktID(soa.DBLaneOwner(lane)) != pktID(ref.DBLaneOwner(lane)) {
			return sprintf("DB lane %d owner: %d vs %d", lane, pktID(soa.DBLaneOwner(lane)), pktID(ref.DBLaneOwner(lane)))
		}
		if soa.DBLaneLen(lane) != ref.DBLaneLen(lane) {
			return sprintf("DB lane %d occupancy: %d vs %d", lane, soa.DBLaneLen(lane), ref.DBLaneLen(lane))
		}
	}
	for q := 0; q < deg; q++ {
		sip, siv, sdb, ssp, ssv, ssd := soa.Connection(q)
		rip, riv, rdb, rsp, rsv, rsd := ref.Connection(q)
		if sip != rip || siv != riv || sdb != rdb || ssp != rsp || ssv != rsv || ssd != rsd {
			return sprintf("crossbar output %d connection: (%d,%d,db=%v,saved=%v@%d,%d) vs (%d,%d,db=%v,saved=%v@%d,%d)",
				q, sip, siv, sdb, ssd, ssp, ssv, rip, riv, rdb, rsd, rsp, rsv)
		}
	}
	return ""
}

// RouterView is the introspection surface diffRouterField needs; both
// concrete routers satisfy it.
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
	AppendState(b []byte) []byte
}

func sprintf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// locateDivergence finds the first router whose serialized microstate
// differs between the two networks and names the first divergent field.
// found is false when every router matches byte-for-byte (the divergence
// then lives in network-level state: counters, source queues, or Token).
func locateDivergence(soa, ref *Network) (routerID int, field string, found bool) {
	for i := range soa.routers {
		sb := soa.routers[i].AppendState(nil)
		rb := ref.routers[i].AppendState(nil)
		if bytes.Equal(sb, rb) {
			continue
		}
		field = diffRouterField(soa.routers[i], ref.routers[i])
		if field == "" {
			field = "internal state outside the introspection surface (arbitration offsets, adaptive timeout, or stats)"
		}
		return i, field, true
	}
	return 0, "", false
}

// reportDivergence localizes a fingerprint mismatch at the given cycle to
// the first (router, field) coordinate and fails the test with it.
func reportDivergence(t *testing.T, cycle int, soa, ref *Network) {
	t.Helper()
	if r, field, ok := locateDivergence(soa, ref); ok {
		t.Fatalf("scan paths diverged: cycle %d, router %d, %s", cycle, r, field)
	}
	t.Fatalf("scan paths diverged: cycle %d, no router differs — divergence is in network-level state (counters, source queues, or Token)", cycle)
}

// TestDifferentialLockstep steps an optimized-scan network and a
// reference-scan network built from identical configs side-by-side for
// every algorithm × traffic-shape combination, diffing full-state
// fingerprints every cycle.
func TestDifferentialLockstep(t *testing.T) {
	const cycles = 300
	for _, dc := range diffCases() {
		dc := dc
		for _, tr := range diffTraffics(dc.build().Topo) {
			tr := tr
			t.Run(dc.name+"/"+tr.name, func(t *testing.T) {
				t.Parallel()
				soaCfg := dc.build()
				tr.apply(&soaCfg)
				refCfg := dc.build()
				tr.apply(&refCfg)

				soa := mustNet(t, soaCfg)
				ref := mustNet(t, refCfg)
				useReferenceScan(t, ref)

				for c := 1; c <= cycles; c++ {
					soa.Step()
					ref.Step()
					if soa.Fingerprint() != ref.Fingerprint() {
						reportDivergence(t, c, soa, ref)
					}
				}
				if err := soa.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if err := ref.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
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
		t.Skip("extra cycle changed only network-level state; router-field report not exercised")
	}
	t.Logf("one-cycle skew localized to router %d: %s", r, field)
	if field == "" {
		t.Fatal("divergent router reported with empty field description")
	}
}
