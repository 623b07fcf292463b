package core_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/router"
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
	routers := dbGraph(t, g, lane, nil)
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
		if got := dbGraph(t, c.g, laneFor(c.g), nil).Acyclic(); got != c.acyclic {
			t.Errorf("%s: single-lane router-granular graph acyclic = %v, want %v", c.g.Name(), got, c.acyclic)
		}
	}
}

// db is the resource a Deadlock Buffer lane flit holds at router v.
func db(v topology.Node) core.Channel { return core.Channel{From: v} }

// dbGraph collapses every lane channel onto its receiving router: the
// dependency graph over Deadlock Buffers that token-free use of one DB lane
// needs acyclic. It walks lane for every (src, dst) pair onLane accepts (nil
// accepts all); the packet leaves src from an input VC, and every later hop
// holds the DB of the router it is in and waits for the next one's.
func dbGraph(t *testing.T, g topology.Graph, lane core.LaneRouting, onLane func(src, dst topology.Node) bool) *core.Graph {
	t.Helper()
	routers := core.NewGraph()
	for s := 0; s < g.Nodes(); s++ {
		for d := 0; d < g.Nodes(); d++ {
			cur, dst := topology.Node(s), topology.Node(d)
			if onLane != nil && !onLane(cur, dst) {
				continue
			}
			for held := false; cur != dst; held = true {
				port, ok := lane(cur, dst)
				if !ok {
					t.Fatalf("%s: lane stuck at %d for %d -> %d", g.Name(), cur, s, d)
				}
				nb, _ := g.Neighbor(cur, port)
				if held {
					routers.AddDep(db(cur), db(nb))
				}
				cur = nb
			}
		}
	}
	return routers
}

// TestConcurrentLanesMonotoneConnectedAcyclic guards the table concurrent
// recovery routes both of its Deadlock Buffer lanes by: every hop moves
// strictly toward dst in recovery order without passing it, the table passes
// the Lemma 1 gate, and each lane's router-granular DB graph is acyclic — the
// property the lane pair exists for, since one lane's is not (above). A table
// that may overshoot dst passes every end-to-end test yet loses packets.
func TestConcurrentLanesMonotoneConnectedAcyclic(t *testing.T) {
	for _, g := range []topology.Graph{
		topology.MustTorus(4, 4),
		topology.MustTorus(3, 5),
		topology.MustTorus(8, 8),
		topology.MustMesh(4, 4),
		topology.MustMesh(2, 3, 4),
		topology.MustHypercube(4),
		topology.MustFullMesh(8),
	} {
		pos, table := router.MonotoneLaneTable(g, g.RecoveryLane())
		nodes := g.Nodes()
		for d := 0; d < nodes; d++ {
			for c := 0; c < nodes; c++ {
				if c == d {
					continue
				}
				port := int(table[d*nodes+c])
				nb, ok := g.Neighbor(topology.Node(c), port)
				up := pos[c] < pos[nb] && pos[nb] <= pos[d]
				down := pos[d] <= pos[nb] && pos[nb] < pos[c]
				if !ok || !up && !down {
					t.Fatalf("%s: hop %d->%d via port %d (positions %d -> %d, dst %d) is not monotone toward dst",
						g.Name(), c, d, port, pos[c], pos[nb], pos[d])
				}
			}
		}
		lane := core.TableLane(g, table)
		if err := core.VerifyLaneConnected(g, lane); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
		for _, up := range []bool{true, false} {
			onLane := func(src, dst topology.Node) bool { return pos[dst] > pos[src] == up }
			if cycle := dbGraph(t, g, lane, onLane).FindCycle(); cycle != nil {
				t.Errorf("%s: lane (up=%v) has a router-granular DB cycle %v", g.Name(), up, cycle)
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
func TestBFSLaneTableOverWholeGraph(t *testing.T) {
	for _, g := range []topology.Graph{
		topology.MustTorus(4, 4),
		topology.MustMesh(3, 4),
		topology.MustHypercube(4),
		topology.MustFullMesh(8),
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
