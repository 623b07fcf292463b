package network

import (
	"math"
	"testing"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func testConfig(topo topology.Graph, alg routing.Algorithm, load float64, seed uint64) Config {
	return Config{
		Topo:      topo,
		Router:    router.Default(),
		Algorithm: alg,
		Pattern:   traffic.Uniform(topo),
		LoadRate:  load,
		MsgLen:    8,
		Seed:      seed,
	}
}

func mustNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// drain runs, stops injection and insists the network empties.
func drain(t *testing.T, n *Network, run, limit int) {
	t.Helper()
	n.Run(run)
	if !n.RunUntilDrained(limit) {
		c := n.Counters()
		t.Fatalf("network did not drain: injected=%d delivered=%d in-flight=%d seizures=%d timeouts=%d",
			c.PacketsInjected, c.PacketsDelivered, n.InFlight(), c.TokenSeizures, c.TimeoutEvents)
	}
}

func TestSmokeDishaUniform(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	n := mustNet(t, testConfig(topo, routing.Disha(0), 0.3, 1))
	drain(t, n, 2000, 5000)
	c := n.Counters()
	if c.PacketsDelivered == 0 {
		t.Fatal("no packets delivered")
	}
	if c.PacketsDelivered != c.PacketsInjected {
		t.Fatalf("delivered %d != injected %d", c.PacketsDelivered, c.PacketsInjected)
	}
	if c.FlitsDelivered != c.PacketsDelivered*8 {
		t.Fatalf("flit conservation violated: %d flits for %d packets", c.FlitsDelivered, c.PacketsDelivered)
	}
}

func TestAllAlgorithmsDeliverLowLoad(t *testing.T) {
	algs := []routing.Algorithm{
		routing.DOR(), routing.NegativeFirst(), routing.DallyAoki(),
		routing.Duato(), routing.Disha(0), routing.Disha(3),
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			topo := topology.MustTorus(4, 4)
			cfg := testConfig(topo, alg, 0.2, 7)
			if alg.Name() != "disha-m0" && alg.Name() != "disha-m3" {
				// Avoidance schemes run without detection/recovery.
				cfg.Router.Timeout = 0
			}
			n := mustNet(t, cfg)
			drain(t, n, 3000, 8000)
			c := n.Counters()
			if c.PacketsDelivered < 50 {
				t.Fatalf("only %d packets delivered", c.PacketsDelivered)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Counters {
		topo := topology.MustTorus(4, 4)
		n := mustNet(t, testConfig(topo, routing.Disha(3), 0.5, 99))
		n.Run(3000)
		return n.Counters()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestSeedsDiffer(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	a := mustNet(t, testConfig(topo, routing.Disha(0), 0.4, 1))
	b := mustNet(t, testConfig(topo, routing.Disha(0), 0.4, 2))
	a.Run(2000)
	b.Run(2000)
	if a.Counters() == b.Counters() {
		t.Fatal("different seeds produced identical counters (suspicious)")
	}
}

func TestLatencyLowerBound(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := testConfig(topo, routing.Disha(0), 0.1, 3)
	n := mustNet(t, cfg)
	violations := 0
	n.OnDeliver = func(p *packet.Packet) {
		dist := topo.Distance(p.Src, p.Dst)
		// A packet needs at least dist cycles for the header plus
		// MsgLen-1 cycles for the body, measured from injection.
		if int(p.NetworkLatency()) < dist+cfg.MsgLen-1 {
			violations++
		}
	}
	drain(t, n, 2000, 5000)
	if violations > 0 {
		t.Fatalf("%d packets beat the physical latency lower bound", violations)
	}
}

func TestDishaM0IsMinimal(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	n := mustNet(t, testConfig(topo, routing.Disha(0), 0.5, 4))
	n.OnDeliver = func(p *packet.Packet) {
		if p.OnDB {
			return // the DB lane restarts dimension-order from the recovery point
		}
		if p.Hops != topo.Distance(p.Src, p.Dst) {
			t.Fatalf("minimal packet %v took %d hops, distance %d", p, p.Hops, topo.Distance(p.Src, p.Dst))
		}
		if p.Misroutes != 0 {
			t.Fatalf("M=0 packet %v misrouted %d times", p, p.Misroutes)
		}
	}
	drain(t, n, 3000, 8000)
}

func TestDishaMisrouteBound(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	n := mustNet(t, testConfig(topo, routing.Disha(3), 0.8, 5))
	n.OnDeliver = func(p *packet.Packet) {
		if p.Misroutes > 3 {
			t.Fatalf("packet %v exceeded misroute bound: %d", p, p.Misroutes)
		}
	}
	drain(t, n, 3000, 20000)
}

// TestRecoveryUnderStress drives Disha with a single VC and shallow buffers
// at saturating load: true deadlocks form and every one must be recovered
// through the Deadlock Buffer lane.
func TestRecoveryUnderStress(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := testConfig(topo, routing.Disha(0), 0.9, 12)
	cfg.Router.VCs = 1
	cfg.Router.BufferDepth = 1
	cfg.Router.Timeout = 8
	n := mustNet(t, cfg)
	drain(t, n, 4000, 60000)
	c := n.Counters()
	if c.TokenSeizures == 0 {
		t.Fatal("expected token seizures under 1-VC saturating load")
	}
	if c.PacketsDelivered != c.PacketsInjected {
		t.Fatalf("lost packets: injected %d delivered %d", c.PacketsInjected, c.PacketsDelivered)
	}
	if n.Token().Held() {
		t.Fatal("token still held after drain")
	}
}

func TestAvoidanceSchemesNeverTimeout(t *testing.T) {
	// With detection enabled but avoidance routing, timeouts may fire only
	// as false positives; the schemes must still deliver everything.
	for _, alg := range []routing.Algorithm{routing.DOR(), routing.Duato()} {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			topo := topology.MustTorus(4, 4)
			cfg := testConfig(topo, alg, 0.3, 13)
			cfg.Router.Timeout = 0
			n := mustNet(t, cfg)
			drain(t, n, 5000, 10000)
		})
	}
}

func TestPacketByPacketMode(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := testConfig(topo, routing.Disha(0), 0.3, 17)
	cfg.Router.Alloc = router.PacketByPacket
	n := mustNet(t, cfg)
	drain(t, n, 3000, 20000)
	c := n.Counters()
	if c.PacketsDelivered != c.PacketsInjected {
		t.Fatalf("pbp lost packets: injected %d delivered %d", c.PacketsInjected, c.PacketsDelivered)
	}
}

func TestSingleFlitPackets(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := testConfig(topo, routing.Disha(0), 0.3, 19)
	cfg.MsgLen = 1
	n := mustNet(t, cfg)
	drain(t, n, 2000, 5000)
	c := n.Counters()
	if c.PacketsDelivered == 0 || c.FlitsDelivered != c.PacketsDelivered {
		t.Fatalf("single-flit accounting wrong: %+v", c)
	}
}

func TestMeshTopologyRuns(t *testing.T) {
	topo := topology.MustMesh(4, 4)
	n := mustNet(t, testConfig(topo, routing.Disha(0), 0.3, 23))
	drain(t, n, 2000, 6000)
}

func TestConfigValidation(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	bad := []Config{
		{},                                     // nothing set
		{Topo: topo},                           // no algorithm
		{Topo: topo, Algorithm: routing.DOR()}, // no pattern
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
	// Too few VCs for the algorithm.
	cfg := testConfig(topo, routing.Duato(), 0.1, 1)
	cfg.Router.VCs = 2
	if _, err := New(cfg); err == nil {
		t.Error("Duato with 2 VCs on a torus should fail")
	}
	// Negative load.
	cfg = testConfig(topo, routing.DOR(), -1, 1)
	cfg.LoadRate = -0.5
	if _, err := New(cfg); err == nil {
		t.Error("negative load should fail")
	}
}

// TestCapacityMatchesHarnessFormula: New measures the pattern once, and the
// capacity it keeps is, to the bit, the full-load capacity the harness
// computed from a measurement of its own before the two were one.
func TestCapacityMatchesHarnessFormula(t *testing.T) {
	built := map[string]bool{}
	for _, g := range []topology.Graph{topology.MustTorus(8, 8), topology.MustMesh(4, 4), topology.MustDragonfly(4, 2)} {
		for _, name := range traffic.Names() {
			pat, err := traffic.ByName(name, g, 0.05)
			if err != nil {
				continue // e.g. transpose on a dragonfly
			}
			built[name] = true
			ms := traffic.MeasureMean(g, pat, 64)
			want := float64(traffic.TotalChannels(g)) / (float64(g.Nodes()) * ms.MeanDistance)
			for _, load := range []float64{0, 0.3} {
				cfg := testConfig(g, routing.Disha(0), load, 1)
				cfg.Pattern = pat
				if got := mustNet(t, cfg).Capacity(); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s on %s at load %v: Capacity %v, harness formula %v", name, g.Name(), load, got, want)
				}
			}
		}
	}
	if len(built) != len(traffic.Names()) {
		t.Fatalf("only %d of the %d patterns built on any of the graphs", len(built), len(traffic.Names()))
	}
}

func TestHopsAtLeastDistance(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	mesh := topology.MustMesh(4, 4)
	for _, alg := range []routing.Algorithm{routing.DOR(), routing.NegativeFirst(), routing.DallyAoki(), routing.Duato()} {
		alg := alg
		cfg := testConfig(topo, alg, 0.3, 31)
		cfg.Router.Timeout = 0
		n := mustNet(t, cfg)
		n.OnDeliver = func(p *packet.Packet) {
			d := topo.Distance(p.Src, p.Dst)
			if alg.Name() == "turn-negative-first" {
				// Negative-first never uses wraparound links (see the
				// routing package), so it is minimal w.r.t. the mesh.
				d = mesh.Distance(p.Src, p.Dst)
			}
			if p.Hops != d {
				t.Fatalf("%s: minimal algorithm took %d hops for distance %d", alg.Name(), p.Hops, d)
			}
		}
		drain(t, n, 2000, 8000)
	}
}

func TestTokenReleaseState(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := testConfig(topo, routing.Disha(0), 0.9, 37)
	cfg.Router.VCs = 1
	cfg.Router.BufferDepth = 1
	n := mustNet(t, cfg)
	drain(t, n, 3000, 60000)
	tok := n.Token()
	if tok.Held() || tok.Holder() != nil {
		t.Fatal("token must be free after drain")
	}
	if tok.Seizures() == 0 {
		t.Fatal("no recovery occurred at this seed, so the check is vacuous: pin a seed whose run recovers a packet (try seeds 1-20)")
	}
}

func TestRecoveredPacketsSinkViaDB(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := testConfig(topo, routing.Disha(0), 0.9, 41)
	cfg.Router.VCs = 1
	cfg.Router.BufferDepth = 1
	n := mustNet(t, cfg)
	recovered := 0
	n.OnDeliver = func(p *packet.Packet) {
		if p.OnDB {
			recovered++
			if !p.SeizedToken || p.RecoveredAt < 0 {
				t.Fatalf("recovered packet %v has inconsistent state", p)
			}
		}
	}
	drain(t, n, 3000, 60000)
	if recovered == 0 {
		t.Fatal("no recovery occurred at this seed, so the check is vacuous: pin a seed whose run recovers a packet (try seeds 1-20)")
	}
	if int64(recovered) != n.Counters().TokenSeizures {
		t.Fatalf("recovered %d packets but %d seizures", recovered, n.Counters().TokenSeizures)
	}
}

// hotPattern builds a 30% hot-spot workload used by reception-channel tests.
func hotPattern(topo topology.Topology) traffic.Pattern {
	return traffic.HotSpot(traffic.Uniform(topo), topology.Node(5), 0.3)
}

// TestHigherDimensionTopologies drains Disha and DOR on a 3D torus and a
// hypercube, exercising n-dimensional routing end to end.
func TestHigherDimensionTopologies(t *testing.T) {
	topos := []topology.Topology{
		topology.MustTorus(3, 3, 3),
		topology.MustHypercube(5),
	}
	for _, topo := range topos {
		topo := topo
		t.Run(topo.Name(), func(t *testing.T) {
			cfg := testConfig(topo, routing.Disha(0), 0.25, 51)
			n := mustNet(t, cfg)
			drain(t, n, 2000, 20000)
			cfg2 := testConfig(topo, routing.DOR(), 0.25, 52)
			cfg2.Router.Timeout = 0
			n2 := mustNet(t, cfg2)
			drain(t, n2, 2000, 20000)
		})
	}
}

// TestTokenCirculatesWholeNetwork verifies the token visits every router:
// recoveries happen at many distinct nodes over a long stressed run.
func TestTokenCirculatesWholeNetwork(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := testConfig(topo, routing.Disha(0), 0.9, 10)
	cfg.Router.VCs = 1
	cfg.Router.BufferDepth = 1
	n := mustNet(t, cfg)
	nodes := map[topology.Node]bool{}
	n.OnDeliver = func(p *packet.Packet) {}
	for i := 0; i < 12000; i++ {
		n.Step()
	}
	for _, r := range n.Routers() {
		if r.Stats().Recoveries > 0 {
			nodes[r.Node()] = true
		}
	}
	if len(nodes) < 4 {
		t.Fatalf("recoveries at only %d nodes, so the check is weak: pin a seed with recoveries at 4 or more nodes (try seeds 1-20)", len(nodes))
	}
	if !n.RunUntilDrained(60000) {
		t.Fatal("did not drain")
	}
}

// TestBurstyTraffic runs Disha under on/off bursty injection (the paper's
// conclusions claim it "performs well under bursty traffic"): the network
// must absorb the bursts and drain completely.
func TestBurstyTraffic(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := testConfig(topo, routing.Disha(0), 0.5, 61)
	cfg.Burst = traffic.BurstConfig{MeanBurst: 50, MeanIdle: 150}
	n := mustNet(t, cfg)
	drain(t, n, 6000, 30000)
	c := n.Counters()
	if c.PacketsDelivered < 100 {
		t.Fatalf("bursty run delivered only %d packets", c.PacketsDelivered)
	}
	if c.PacketsDelivered != c.PacketsInjected {
		t.Fatal("bursty run lost packets")
	}
}
