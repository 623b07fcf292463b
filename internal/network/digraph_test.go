package network

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// badLaneGraph overrides a sound topology's declared recovery lane, so the
// constructor's lane validation can be exercised in isolation.
type badLaneGraph struct {
	topology.Graph
	lane []topology.Node
}

func (b badLaneGraph) RecoveryLane() []topology.Node {
	out := make([]topology.Node, len(b.lane))
	copy(out, b.lane)
	return out
}

// TestRejectsUnpairedLinks pins the graceful rejection of digraphs whose
// links have no antiparallel twin: wormhole credits and purges flow along
// the reverse channel, so wiring such a topology used to corrupt credit
// state (or panic) instead of failing construction.
func TestRejectsUnpairedLinks(t *testing.T) {
	uniring, err := topology.NewDigraph("uniring-4", [][]int{{1}, {2}, {3}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(testConfig(uniring, routing.Disha(0), 0.2, 1))
	if err == nil || !strings.Contains(err.Error(), "no reverse channel") {
		t.Fatalf("unpaired digraph: err = %v, want reverse-channel rejection", err)
	}
}

// TestRejectsOversizedDegree pins that a topology with more ports per router
// than the switch allocators' fixed arrays hold (e.g. `-topo fullmesh-256`)
// is a construction error; it used to build and then panic on the first Step.
func TestRejectsOversizedDegree(t *testing.T) {
	if _, err := New(testConfig(topology.MustFullMesh(64), routing.Disha(0), 0.01, 1)); err != nil {
		t.Fatalf("fullmesh-64 (degree 63): %v", err)
	}
	_, err := New(testConfig(topology.MustFullMesh(65), routing.Disha(0), 0.01, 1))
	if err == nil || !strings.Contains(err.Error(), "router degree 64") {
		t.Fatalf("fullmesh-65: err = %v, want a router-degree rejection", err)
	}
}

// TestRejectsPastNarrowStateBounds pins that a configuration past what the
// routers' narrow state types hold is a construction error, and that the
// bounds themselves build: buffer depth (uint8 ring cursors), VC count
// (int8 grants), T_out (an int32 timer that must pass it) and, on 64-bit,
// the message length (a flit's int32 position in its ring).
func TestRejectsPastNarrowStateBounds(t *testing.T) {
	type bound struct {
		name string
		edit func(*Config)
		want string
	}
	cases := []bound{
		{"depth", func(c *Config) { c.Router.BufferDepth = router.MaxBufferDepth + 1 }, "buffer depth 256 outside [1,255]"},
		{"vcs", func(c *Config) { c.Router.VCs = router.MaxVCs + 1 }, "VCs 128 outside [1,127]"},
		{"timeout", func(c *Config) { c.Router.Timeout = router.MaxTimeout + 1 }, "timeout 2147483647 > 2147483646"},
	}
	if strconv.IntSize == 64 { // a 32-bit int cannot hold the length
		big := int64(math.MaxInt32) + 1
		cases = append(cases, bound{"msglen", func(c *Config) { c.MsgLen = int(big) }, "message length 2147483648 > 2147483647"})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.1, 1)
			c.edit(&cfg)
			if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one containing %q", err, c.want)
			}
		})
	}
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.1, 1)
	cfg.Router.BufferDepth, cfg.Router.VCs, cfg.Router.Timeout = router.MaxBufferDepth, router.MaxVCs, router.MaxTimeout
	n := mustNet(t, cfg)
	n.Run(50)
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRejectsBadRecoveryLane pins the constructor-time validation of the
// declared recovery lane, which the Token tours. A lane that skips or
// repeats a node used to panic deep in wiring; both shapes must now surface
// as an error from New. A lane that steps between unlinked nodes is
// accepted in every mode: the Token does not walk the links, and
// concurrent recovery reads no recovery order.
func TestRejectsBadRecoveryLane(t *testing.T) {
	base := topology.MustHypercube(2)
	cases := []struct {
		name string
		lane []topology.Node
		mode router.RecoveryMode
		want string
	}{
		{"truncated", []topology.Node{0, 1}, router.RecoverySequential, "visits 2 of 4"},
		{"duplicate", []topology.Node{0, 1, 1, 2}, router.RecoverySequential, "not a permutation"},
		// 0,1,2,3 is a permutation, but 1->2 flips two bits: not a
		// hypercube link. Concurrent recovery, which once derived its lanes
		// from the order, accepts it (want "").
		{"unlinked step", []topology.Node{0, 1, 2, 3}, router.RecoveryConcurrent, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig(badLaneGraph{base, c.lane}, routing.Disha(0), 0.2, 1)
			cfg.Router.Recovery = c.mode
			_, err := New(cfg)
			if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
		})
	}
	// The identity lane 0,1,2,3 is fine for Token-serialized recovery,
	// which puts no adjacency requirement on the lane.
	cfg := testConfig(badLaneGraph{base, []topology.Node{0, 1, 2, 3}}, routing.Disha(0), 0.2, 1)
	cfg.Router.Recovery = router.RecoverySequential
	if _, err := New(cfg); err != nil {
		t.Fatalf("identity lane rejected for sequential recovery: %v", err)
	}
}

// TestAbortRetryNeedsNoRecoveryOrder builds abort-retry on
// TestRejectsBadRecoveryLane's truncated-lane graph: with no Token and no
// Deadlock Buffer hop it has no use for the recovery order, so New accepts
// the graph, and the network kills, retransmits and drains.
func TestAbortRetryNeedsNoRecoveryOrder(t *testing.T) {
	cfg := testConfig(badLaneGraph{topology.MustHypercube(2), []topology.Node{0, 1}}, routing.Disha(0), 0.9, 3)
	cfg.Router.VCs = 1
	cfg.Router.BufferDepth = 1
	cfg.Router.Recovery = router.RecoveryAbortRetry
	n := mustNet(t, cfg)
	drain(t, n, 2000, 60000)
	if c := n.Counters(); c.PacketsKilled == 0 || c.PacketsDelivered == 0 {
		t.Fatalf("%d packets killed, %d delivered; want both", c.PacketsKilled, c.PacketsDelivered)
	}
}

// TestRejectsDisconnectedGraph builds two disjoint 4-rings under Token
// recovery: no Deadlock Buffer lane can join them, so New returns the Lemma
// 1 refusal instead of a network that strands a presumed deadlock.
func TestRejectsDisconnectedGraph(t *testing.T) {
	rings := [][]int{{1, 3}, {2, 0}, {3, 1}, {0, 2}, {5, 7}, {6, 4}, {7, 5}, {4, 6}}
	g, err := topology.NewDigraph("two-rings", rings)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(testConfig(g, routing.Disha(0), 0.3, 1))
	if err == nil || !strings.Contains(err.Error(), "two-rings Deadlock Buffer lane fails Lemma 1: ") {
		t.Fatalf("err = %v, want a Lemma 1 refusal", err)
	}
}

// walkInstalledLane is core.VerifyLaneConnected's walk over every (src,
// dst) pair of the Deadlock Buffer lane New installs on g in mode:
// dimension order on a cube, BFS rows otherwise, and under concurrent
// recovery the two-lane rows of core.LaneRows, walked with their lane state
// from lane 0 (a hop to a lower label enters lane 1) and reported as stuck
// or looping past one visit to every (lane, node) state.
func walkInstalledLane(g topology.Graph, mode router.RecoveryMode) error {
	if mode != router.RecoveryConcurrent {
		if t, ok := topology.Coordinated(g); ok {
			return core.VerifyLaneConnected(g, core.DORLane(t))
		}
		return core.VerifyLaneConnected(g, core.TableLane(g, core.BFSLaneTable(g)))
	}
	nodes := g.Nodes()
	nbr, rev := core.LinkTable(nodes, g.Degree(), func(v topology.Node, p int) (topology.Node, int, bool) {
		nb, ok := g.Neighbor(v, p)
		rev, paired := g.ReversePortAt(v, p)
		return nb, rev, ok && paired
	})
	label, build := core.LaneRows(nodes, g.Degree(), 2, nbr, rev)
	row := make([]int16, 2*nodes)
	for d := range nodes {
		build(topology.Node(d), row)
		for s := range nodes {
			lane, cur := 0, topology.Node(s)
			for n := 0; cur != topology.Node(d); n++ {
				nb, ok := g.Neighbor(cur, int(row[lane*nodes+int(cur)]))
				if !ok || n > 2*nodes {
					return fmt.Errorf("lanes stuck or looping at %d (lane %d) en route %d->%d", cur, lane, s, d)
				}
				if label[nb] < label[cur] {
					lane = 1
				}
				cur = nb
			}
		}
	}
	return nil
}

// randomSymmetricGraph returns n nodes joined by m random paired links;
// with path set, also links i and i+1 for every i but skip (-1: none), so
// the identity recovery order steps along links except at skip.
func randomSymmetricGraph(rng *rand.Rand, n, m int, path bool, skip int) [][]int {
	adj := make([][]int, n)
	join := func(u, v int) {
		if u == v || slices.Contains(adj[u], v) {
			return
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for i := 0; path && i+1 < n; i++ {
		if i != skip {
			join(i, i+1)
		}
	}
	for range m {
		join(rng.IntN(n), rng.IntN(n))
	}
	return adj
}

// TestLemma1VerdictMatchesWalk holds New's O(links) Lemma 1 check to a walk
// over every (src, dst) pair of the lane it installs: on every built-in of
// core's TestLaneConnectedOnBuiltins, seeded random NewDigraph graphs
// (connected and not) and recovery orders that step off the links, in
// every recovery mode, New accepts exactly when the lane delivers every
// pair, and refuses with the Lemma 1 prefix otherwise. Every lane delivers
// on exactly the connected graphs.
func TestLemma1VerdictMatchesWalk(t *testing.T) {
	graphs := []topology.Graph{
		topology.MustTorus(4, 4),
		topology.MustTorus(3, 5),
		topology.MustMesh(4, 4),
		topology.MustMesh(2, 3, 4),
		topology.MustHypercube(4),
		topology.MustFullMesh(8),
		topology.MustDragonfly(4, 2),
		topology.MustFatTree(4),
		// Recovery orders no lane reads. 0,1,2,3 on the 4-ring
		// hypercube(2) steps 1->2 off the links.
		badLaneGraph{topology.MustHypercube(2), []topology.Node{0, 1, 2, 3}},
		// A 4x4 mesh snake from 1 whose only unlinked step is its last,
		// 12->0.
		badLaneGraph{topology.MustMesh(4, 4), []topology.Node{1, 2, 3, 7, 6, 5, 4, 8, 9, 10, 11, 15, 14, 13, 12, 0}},
	}
	rng := rand.New(rand.NewPCG(42, 7))
	for i := range 60 {
		n := 4 + rng.IntN(9)
		adj := randomSymmetricGraph(rng, n, rng.IntN(2*n), i%3 != 0, []int{-1, rng.IntN(n - 1), n - 2}[i%3])
		g, err := topology.NewDigraph(fmt.Sprintf("random-%d", i), adj)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	modes := []router.RecoveryMode{router.RecoverySequential, router.RecoveryConcurrent, router.RecoveryAbortRetry}
	accepted := map[router.RecoveryMode]int{}
	for _, g := range graphs {
		for _, mode := range modes {
			cfg := testConfig(g, routing.Disha(0), 0, 1)
			cfg.Router.Recovery = mode
			_, err := New(cfg)
			walk := walkInstalledLane(g, mode)
			switch {
			case walk == nil && err != nil:
				t.Errorf("%s, %s: New refuses (%v), the walk delivers every pair", g.Name(), mode, err)
			case walk != nil && (err == nil || !strings.Contains(err.Error(), g.Name()+" Deadlock Buffer lane fails Lemma 1: ")):
				t.Errorf("%s, %s: the walk fails (%v), New returns %v", g.Name(), mode, walk, err)
			case err == nil:
				accepted[mode]++
			}
		}
	}
	for _, mode := range modes {
		if accepted[mode] == 0 || accepted[mode] == len(graphs) {
			t.Errorf("%s: New accepts %d of %d graphs; the cases do not tell accept from refuse", mode, accepted[mode], len(graphs))
		}
	}
}

// TestDigraphTopologiesDrain runs DISHA with Token recovery end-to-end on
// each non-cube constructor: inject, deliver, drain, and keep every
// structural invariant intact.
func TestDigraphTopologiesDrain(t *testing.T) {
	for _, g := range []topology.Graph{
		topology.MustFullMesh(8),
		topology.MustDragonfly(2, 1),
		topology.MustFatTree(4),
	} {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			cfg := testConfig(g, routing.Disha(1), 0.2, 11)
			cfg.Router.VCs = 2
			cfg.Router.BufferDepth = 2
			cfg.Router.Timeout = 8
			n := mustNet(t, cfg)
			drain(t, n, 400, 20000)
			if n.Counters().PacketsDelivered == 0 {
				t.Fatal("no packets delivered")
			}
			if err := n.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDigraphRejectsCoordinateAlgorithms pins the MinVCs gate: the DOR
// family needs cube coordinates and must be refused on a digraph with a
// clear error instead of a type-assertion panic at routing time.
func TestDigraphRejectsCoordinateAlgorithms(t *testing.T) {
	g := topology.MustFullMesh(8)
	for _, alg := range []routing.Algorithm{
		routing.DOR(), routing.NegativeFirst(), routing.DallyAoki(), routing.Duato(),
	} {
		_, err := New(testConfig(g, alg, 0.2, 1))
		if err == nil || !strings.Contains(err.Error(), "not supported on") {
			t.Fatalf("%s on %s: err = %v, want coordinate rejection", alg.Name(), g.Name(), err)
		}
	}
}
