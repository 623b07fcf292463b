package core_test

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// laneFor returns the recovery-lane routing subfunction a topology would
// get at network construction: cube dimension-order routing when
// coordinates exist, the deterministic BFS next-hop table otherwise.
func laneFor(g topology.Graph) core.LaneRouting {
	if t, ok := topology.Coordinated(g); ok {
		return core.DORLane(t)
	}
	return core.TableLane(g, core.BFSLaneTable(g))
}

// TestLaneConnectedOnBuiltins runs the generalized Lemma 1 check — the
// construction-time gate for Token-serialized recovery — against every
// built-in topology constructor. All must pass: a sequential recovery lane
// only needs the subfunction to deliver every (src, dst) pair.
func TestLaneConnectedOnBuiltins(t *testing.T) {
	for _, g := range []topology.Graph{
		topology.MustTorus(4, 4),
		topology.MustTorus(3, 5),
		topology.MustMesh(4, 4),
		topology.MustMesh(2, 3, 4),
		topology.MustHypercube(4),
		topology.MustFullMesh(8),
		topology.MustDragonfly(4, 2),
		topology.MustFatTree(4),
	} {
		if err := core.VerifyLaneConnected(g, laneFor(g)); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
	}
}

// TestDeadlockFreeOnAcyclicLanes runs the full Mendlovic-Matias condition
// (connected + acyclic lane CDG) on the topologies whose natural lane is
// deadlock-free under unrestricted concurrent use of per-channel buffers:
// DOR on meshes and hypercubes, and single-hop full-mesh routing. (Not of
// Disha's one Deadlock Buffer per router: see
// TestAcyclicLaneCDGIsChannelGranular.)
func TestDeadlockFreeOnAcyclicLanes(t *testing.T) {
	for _, g := range []topology.Graph{
		topology.MustMesh(4, 4),
		topology.MustHypercube(4),
		topology.MustFullMesh(8),
	} {
		if err := core.VerifyDeadlockFree(g, laneFor(g)); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
	}
}

// TestAcyclicLaneCDGIsChannelGranular pins which buffer model the
// VerifyDeadlockFree verdict holds for. BuildLaneCDG keys a resource by
// Channel{From, Port}: one buffer per channel, the Mendlovic-Matias setting.
// Disha's Deadlock Buffer is not that: a router has one central DB per lane
// with a single owner, admitted from any input port, so the resource a flit
// on channel u->v holds is DB(v), whichever port it came in by. Collapsing
// every lane channel onto its receiving router gives the graph token-free use
// of one DB lane would have to be acyclic in, and on mesh-4x4 DOR — which
// passes the channel-granular check — it has a 2-cycle between any two
// routers with a neighbor on either side. The two-node counter-example, on
// row 0 (routers 0-1-2-3): packet P, 0 -> 3, sits in DB(1) and needs DB(2);
// packet Q, 3 -> 0, sits in DB(2) and needs DB(1). Channels 1->2 and 2->1 are
// distinct and DOR never turns back, so the channel CDG has no arc between
// them; the two DBs wait on each other forever.
//
// The same collapse rules out token-free use of one minimal lane on every
// shipped class but the full mesh, whose lane is a single hop and so never
// holds one DB while waiting for another.
func TestAcyclicLaneCDGIsChannelGranular(t *testing.T) {
	g := topology.MustMesh(4, 4)
	lane := laneFor(g)
	if err := core.VerifyDeadlockFree(g, lane); err != nil {
		t.Fatalf("channel-granular check: %v", err)
	}
	routers := dbGraph(t, g, oneLane(lane), nil)
	if !routers.HasDep(db(1), db(2)) || !routers.HasDep(db(2), db(1)) {
		t.Fatalf("router-granular lane graph lacks the DB(1) <-> DB(2) 2-cycle (%d DBs, %d deps)",
			routers.Channels(), routers.Deps())
	}
	if routers.Acyclic() {
		t.Fatal("router-granular lane graph reported acyclic")
	}

	for _, c := range []struct {
		g       topology.Graph
		acyclic bool
	}{
		{topology.MustTorus(4, 4), false},
		{topology.MustMesh(4, 4), false},
		{topology.MustHypercube(4), false},
		{topology.MustDragonfly(4, 2), false},
		{topology.MustFatTree(4), false},
		{topology.MustFullMesh(8), true},
	} {
		if got := dbGraph(t, c.g, oneLane(laneFor(c.g)), nil).Acyclic(); got != c.acyclic {
			t.Errorf("%s: single-lane router-granular graph acyclic = %v, want %v", c.g.Name(), got, c.acyclic)
		}
	}
}

// db is the resource a lane-0 Deadlock Buffer flit holds at router v.
func db(v topology.Node) core.Channel { return core.Channel{From: v} }

// laneStep is one Deadlock Buffer hop with its lane state: the port a flit
// in lane at cur takes toward dst and the lane it enters at the far end, or
// ok=false where the lane supplies no hop.
type laneStep func(lane int, cur, dst topology.Node) (port, next int, ok bool)

// oneLane is a single lane's laneStep: every hop stays in lane 0.
func oneLane(lane core.LaneRouting) laneStep {
	return func(_ int, cur, dst topology.Node) (int, int, bool) {
		port, ok := lane(cur, dst)
		return port, 0, ok
	}
}

// lanes is every row of core.LaneRows, by destination, and its labels.
type lanes struct {
	label []int32
	rows  [][]int16
}

// buildLanes gathers the rows core.LaneRows builds for n lanes over link.
func buildLanes(nodes, deg, n int, link func(v topology.Node, p int) (topology.Node, int, bool)) lanes {
	nbr, rev := core.LinkTable(nodes, deg, link)
	label, row := core.LaneRows(nodes, deg, n, nbr, rev)
	ls := lanes{label, make([][]int16, nodes)}
	for d := range ls.rows {
		ls.rows[d] = make([]int16, n*nodes)
		row(topology.Node(d), ls.rows[d])
	}
	return ls
}

// twoLanes is the laneStep of two-lane rows over g's links, as the router
// routes by them: a hop to a lower label enters lane 1, any other lane 0.
func twoLanes(g topology.Graph, ls lanes) laneStep {
	nodes := g.Nodes()
	return func(lane int, cur, dst topology.Node) (int, int, bool) {
		port := int(ls.rows[dst][lane*nodes+int(cur)])
		nb, ok := g.Neighbor(cur, port)
		if port < 0 || !ok {
			return 0, 0, false
		}
		if ls.label[nb] < ls.label[cur] {
			return port, 1, true
		}
		return port, 0, true
	}
}

// walkLanes walks step from src to dst carrying the lane state, starting in
// lane 0 as a recovery does, and calls hop on every hop. A walk longer than
// one visit to every (lane, node) state loops, and is reported.
func walkLanes(g topology.Graph, step laneStep, src, dst topology.Node, hop func(lane int, cur topology.Node, next int, nb topology.Node)) error {
	lane, cur := 0, src
	for n := 0; cur != dst; n++ {
		port, next, ok := step(lane, cur, dst)
		if !ok || n > 2*g.Nodes() {
			return fmt.Errorf("lanes stuck or looping at %d (lane %d) en route %d->%d", cur, lane, src, dst)
		}
		nb, _ := g.Neighbor(cur, port)
		hop(lane, cur, next, nb)
		lane, cur = next, nb
	}
	return nil
}

// dbGraph collapses every lane channel onto its receiving router's
// Deadlock Buffer lane: the dependency graph over Deadlock Buffers that
// token-free use of the lanes needs acyclic. It walks step for every (src,
// dst) pair; the packet leaves src from an input VC, and every later hop
// holds the DB lane it is in and waits for the next one's. keep (nil keeps
// all) selects the dependencies to add by the lanes they join.
func dbGraph(t *testing.T, g topology.Graph, step laneStep, keep func(from, to int) bool) *core.Graph {
	t.Helper()
	routers := core.NewGraph()
	for s := 0; s < g.Nodes(); s++ {
		for d := 0; d < g.Nodes(); d++ {
			held := false
			err := walkLanes(g, step, topology.Node(s), topology.Node(d), func(lane int, cur topology.Node, next int, nb topology.Node) {
				if held && (keep == nil || keep(lane, next)) {
					routers.AddDep(core.Channel{From: cur, Port: lane}, core.Channel{From: nb, Port: next})
				}
				held = true
			})
			if err != nil {
				t.Fatalf("%s: %v", g.Name(), err)
			}
		}
	}
	return routers
}

// pairedLinks is g's paired links in core.LaneRows' shape, less the link
// on port cutPort of cut in both directions when cutPort >= 0.
func pairedLinks(g topology.Graph, cut topology.Node, cutPort int) func(v topology.Node, p int) (topology.Node, int, bool) {
	return func(v topology.Node, p int) (topology.Node, int, bool) {
		nb, ok := g.Neighbor(v, p)
		rev, paired := g.ReversePortAt(v, p)
		if cutPort >= 0 && (v == cut && p == cutPort || nb == cut && rev == cutPort) {
			return 0, 0, false
		}
		return nb, rev, ok && paired
	}
}

// cutGraph is a graph with one link removed in both directions.
type cutGraph struct {
	topology.Graph
	cut  topology.Node
	port int
}

func (c cutGraph) Neighbor(v topology.Node, p int) (topology.Node, bool) {
	if _, _, ok := pairedLinks(c.Graph, c.cut, c.port)(v, p); !ok {
		return 0, false
	}
	return c.Graph.Neighbor(v, p)
}

// randomConnected returns a seeded random connected digraph of n nodes: a
// random spanning tree plus m random extra paired links.
func randomConnected(t *testing.T, rng *rand.Rand, name string, n, m int) topology.Graph {
	t.Helper()
	adj := make([][]int, n)
	join := func(u, v int) {
		if u != v && !slices.Contains(adj[u], v) {
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
	}
	for v := 1; v < n; v++ {
		join(v, rng.IntN(v))
	}
	for range m {
		join(rng.IntN(n), rng.IntN(n))
	}
	g, err := topology.NewDigraph(name, adj)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestConcurrentLanesAscendThenDescend guards the rows concurrent recovery
// routes its two Deadlock Buffer lanes by, on every shipped class, on
// seeded random connected digraphs and on a torus with a link cut: every
// hop obeys the lane rule (lane 1 only descends, so nothing goes back), a
// walk carrying the lane state delivers every pair, and the router-granular
// DB graph is acyclic for each lane and for the two together — the
// property the lane pair exists for, since one lane's is not (above).
func TestConcurrentLanesAscendThenDescend(t *testing.T) {
	graphs := []topology.Graph{
		topology.MustTorus(4, 4),
		topology.MustTorus(3, 5),
		topology.MustTorus(8, 8),
		topology.MustMesh(4, 4),
		topology.MustMesh(2, 3, 4),
		topology.MustHypercube(4),
		topology.MustFullMesh(8),
		topology.MustDragonfly(4, 2),
		topology.MustFatTree(4),
		cutGraph{topology.MustTorus(4, 4), 5, topology.PortFor(0, 1)},
	}
	rng := rand.New(rand.NewPCG(47, 2))
	for i := range 30 {
		n := 4 + rng.IntN(13)
		graphs = append(graphs, randomConnected(t, rng, fmt.Sprintf("random-%d", i), n, rng.IntN(2*n)))
	}
	for _, g := range graphs {
		link := pairedLinks(g, 0, -1)
		if c, ok := g.(cutGraph); ok {
			link = pairedLinks(c.Graph, c.cut, c.port)
		}
		ls := buildLanes(g.Nodes(), g.Degree(), 2, link)
		step := twoLanes(g, ls)
		for s := range g.Nodes() {
			for d := range g.Nodes() {
				err := walkLanes(g, step, topology.Node(s), topology.Node(d), func(lane int, cur topology.Node, next int, nb topology.Node) {
					if lane == 1 && ls.label[nb] >= ls.label[cur] {
						t.Fatalf("%s: lane-1 hop %d->%d climbs (labels %d -> %d) en route %d->%d",
							g.Name(), cur, nb, ls.label[cur], ls.label[nb], s, d)
					}
				})
				if err != nil {
					t.Fatalf("%s: %v", g.Name(), err)
				}
			}
		}
		for _, c := range []struct {
			what string
			keep func(from, to int) bool
		}{
			{"lane 0", func(from, to int) bool { return from == 0 && to == 0 }},
			{"lane 1", func(from, to int) bool { return from == 1 && to == 1 }},
			{"both lanes", nil},
		} {
			if cycle := dbGraph(t, g, step, c.keep).FindCycle(); cycle != nil {
				t.Errorf("%s: %s has a router-granular DB cycle %v", g.Name(), c.what, cycle)
			}
		}
	}
}

// TestLanesConnectedButNotConcurrentSafe documents why the recovery lane
// needs the Token on these topologies: the lane is connected (so the
// construction-time gate accepts it) but its CDG has a cycle, so only
// serialized use is safe. On the torus it is DOR's wraparound rings; on
// the fat tree the BFS table's minimal paths between same-pod switches go
// down-then-up, which is not up-down routing.
func TestLanesConnectedButNotConcurrentSafe(t *testing.T) {
	for _, g := range []topology.Graph{
		topology.MustTorus(4, 4),
		topology.MustFatTree(4),
	} {
		lane := laneFor(g)
		if err := core.VerifyLaneConnected(g, lane); err != nil {
			t.Fatalf("%s lane not connected: %v", g.Name(), err)
		}
		if err := core.VerifyDeadlockFree(g, lane); err == nil {
			t.Fatalf("%s lane passed the acyclicity check; expected a CDG cycle", g.Name())
		}
	}
}

// digraphFixture is the committed adjacency-list format under testdata.
type digraphFixture struct {
	Name string  `json:"name"`
	Adj  [][]int `json:"adj"`
}

func loadFixture(t *testing.T, path string) topology.Graph {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fx digraphFixture
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	g, err := topology.NewDigraph(fx.Name, fx.Adj)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCheckerRejectsDeadlockyFixture pins the reject half of the checker
// against a committed known-deadlocky digraph: a unidirectional 4-ring
// whose follow-the-ring lane is connected (Lemma 1 alone would accept it)
// but whose channel dependency graph is the full ring cycle. The
// Mendlovic-Matias condition must reject it, proving the acyclicity half
// does real work beyond connectivity.
func TestCheckerRejectsDeadlockyFixture(t *testing.T) {
	g := loadFixture(t, "testdata/uniring4.json")
	ring := func(cur, dst topology.Node) (int, bool) { return 0, true }
	if err := core.VerifyLaneConnected(g, ring); err != nil {
		t.Fatalf("ring lane should be connected: %v", err)
	}
	if err := core.VerifyDeadlockFree(g, ring); err == nil {
		t.Fatal("unidirectional ring lane accepted as deadlock-free")
	}
	// The fixture's links are unpaired, so the BFS lane table (which only
	// walks paired links) cannot route at all — the construction-time
	// connectivity gate also rejects the topology's own lane.
	if err := core.VerifyLaneConnected(g, laneFor(g)); err == nil {
		t.Fatal("BFS lane on unpaired ring accepted")
	}
}

// TestLaneStuckAndLoopWitnesses covers the checker's two failure shapes on
// hand-built lanes: a subfunction with no next hop, and one that orbits
// without reaching the destination.
func TestLaneStuckAndLoopWitnesses(t *testing.T) {
	g, err := topology.NewDigraph("pair", [][]int{{1}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	stuck := func(cur, dst topology.Node) (int, bool) { return 0, false }
	if err := core.VerifyLaneConnected(g, stuck); err == nil {
		t.Fatal("stuck lane accepted")
	}
	// A lane that always takes port 0 on this graph orbits the 1<->2 cycle
	// and never reaches node 3; the bounded walk must report the loop
	// instead of hanging.
	loopy, err := topology.NewDigraph("loopy", [][]int{
		{1, 3},
		{2, -1},
		{1, -1},
		{0, -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	follow := func(cur, dst topology.Node) (int, bool) { return 0, true }
	if err := core.VerifyLaneConnected(loopy, follow); err == nil {
		t.Fatal("looping lane accepted")
	}
}

// TestBFSLaneTableOverWholeGraph pins the one lane-table builder on all six
// topology classes: fed every paired link of g it is BFSLaneTable(g), and
// every hop it tabulates is a shortest-path hop (one closer to dst).
// fullmesh-200's 199 ports run past an 8-bit table entry.
func TestBFSLaneTableOverWholeGraph(t *testing.T) {
	for _, g := range []topology.Graph{
		topology.MustTorus(4, 4),
		topology.MustMesh(3, 4),
		topology.MustHypercube(4),
		topology.MustFullMesh(8),
		topology.MustFullMesh(200),
		topology.MustDragonfly(4, 2),
		topology.MustFatTree(4),
	} {
		nodes := g.Nodes()
		over := core.BFSLaneTableOver(nodes, g.Degree(), func(v topology.Node, p int) (topology.Node, int, bool) {
			nb, ok := g.Neighbor(v, p)
			rev, paired := g.ReversePortAt(v, p)
			return nb, rev, ok && paired
		})
		whole := core.BFSLaneTable(g)
		for i := range whole {
			if over[i] != whole[i] {
				t.Fatalf("%s: entry %d is %d over all links, %d from BFSLaneTable", g.Name(), i, over[i], whole[i])
			}
		}
		for d := 0; d < nodes; d++ {
			for c := 0; c < nodes; c++ {
				cur, dst := topology.Node(c), topology.Node(d)
				port := int(over[d*nodes+c])
				if c == d {
					if port != -1 {
						t.Fatalf("%s: diagonal entry %d is %d", g.Name(), d, port)
					}
					continue
				}
				nb, ok := g.Neighbor(cur, port)
				if !ok || g.Distance(nb, dst) != g.Distance(cur, dst)-1 {
					t.Fatalf("%s: hop %d->%d via port %d is not a shortest-path hop", g.Name(), c, d, port)
				}
			}
		}
	}
}
