package topology

import (
	"strings"
	"testing"
)

// checkGraph asserts the structural invariants every Graph must satisfy:
// in-range neighbors, correctly paired reverse ports, BFS distances that
// agree with adjacency, IsMinimal exactly at the ports one hop closer to
// the destination, and a recovery lane that is a permutation of the nodes.
func checkGraph(t *testing.T, g Graph) {
	t.Helper()
	nodes := g.Nodes()
	for n := 0; n < nodes; n++ {
		for p := 0; p < g.Degree(); p++ {
			nb, ok := g.Neighbor(Node(n), p)
			if !ok {
				if _, rok := g.ReversePortAt(Node(n), p); rok {
					t.Fatalf("%s: unconnected port %d/%d has a reverse port", g.Name(), n, p)
				}
				continue
			}
			if int(nb) < 0 || int(nb) >= nodes || nb == Node(n) {
				t.Fatalf("%s: port %d/%d targets %d", g.Name(), n, p, nb)
			}
			if g.Distance(Node(n), nb) != 1 {
				t.Fatalf("%s: neighbor %d->%d at distance %d", g.Name(), n, nb, g.Distance(Node(n), nb))
			}
			if rp, ok := g.ReversePortAt(Node(n), p); ok {
				back, bok := g.Neighbor(nb, rp)
				if !bok || back != Node(n) {
					t.Fatalf("%s: reverse port %d of link %d--%d-->%d points at %d", g.Name(), rp, n, p, nb, back)
				}
				rrp, rok := g.ReversePortAt(nb, rp)
				if !rok || rrp != p {
					t.Fatalf("%s: reverse pairing of %d--%d-->%d not symmetric (got %d,%v)", g.Name(), n, p, nb, rrp, rok)
				}
			}
		}
		checkMinimal(t, g, Node(n), Node((n*31+7)%nodes))
	}
	lane := g.RecoveryLane()
	if len(lane) != nodes {
		t.Fatalf("%s: recovery lane covers %d of %d nodes", g.Name(), len(lane), nodes)
	}
	visited := make([]bool, nodes)
	for _, n := range lane {
		if int(n) < 0 || int(n) >= nodes || visited[n] {
			t.Fatalf("%s: recovery lane is not a permutation: %v", g.Name(), lane)
		}
		visited[n] = true
	}
}

// checkMinimal asserts IsMinimal(from, to, p) holds exactly where port p
// leads one hop closer to to, and somewhere whenever to is reachable.
func checkMinimal(t *testing.T, g Graph, from, to Node) {
	t.Helper()
	found := false
	for p := 0; p < g.Degree(); p++ {
		nb, ok := g.Neighbor(from, p)
		want := ok && from != to && g.Distance(from, to) > 0 && g.Distance(nb, to) == g.Distance(from, to)-1
		if g.IsMinimal(from, to, p) != want {
			t.Fatalf("%s: IsMinimal(%d,%d,%d) = %v, distances say %v", g.Name(), from, to, p, !want, want)
		}
		found = found || want
	}
	if found != (from != to && g.Distance(from, to) > 0) {
		t.Fatalf("%s: %d->%d at distance %d has minimal ports: %v", g.Name(), from, to, g.Distance(from, to), found)
	}
}

func TestFullMesh(t *testing.T) {
	g, err := NewFullMesh(7)
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 7 || g.Degree() != 6 {
		t.Fatalf("fullmesh-7: %d nodes degree %d", g.Nodes(), g.Degree())
	}
	for a := 0; a < 7; a++ {
		for b := 0; b < 7; b++ {
			want := 1
			if a == b {
				want = 0
			}
			if d := g.Distance(Node(a), Node(b)); d != want {
				t.Fatalf("distance %d->%d = %d, want %d", a, b, d, want)
			}
		}
	}
	checkGraph(t, g)
}

func TestFullMeshRejects(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 1<<10 + 1} {
		if _, err := NewFullMesh(n); err == nil {
			t.Fatalf("NewFullMesh(%d) accepted", n)
		}
	}
}

func TestDragonfly(t *testing.T) {
	a, h := 4, 2
	g, err := NewDragonfly(a, h)
	if err != nil {
		t.Fatal(err)
	}
	groups := a*h + 1
	if g.Nodes() != groups*a {
		t.Fatalf("dragonfly-%dx%d: %d nodes, want %d", a, h, g.Nodes(), groups*a)
	}
	if g.Degree() != a-1+h {
		t.Fatalf("dragonfly-%dx%d: degree %d, want %d", a, h, g.Degree(), a-1+h)
	}
	// Canonical dragonfly: minimal paths take at most three hops (local-
	// global-local, or two global hops through a third group).
	for from := 0; from < g.Nodes(); from++ {
		for to := 0; to < g.Nodes(); to++ {
			if d := g.Distance(Node(from), Node(to)); d < 0 || d > 3 {
				t.Fatalf("distance %d->%d = %d, want 0..3", from, to, d)
			}
		}
	}
	// Exactly one global channel between every pair of groups.
	global := map[[2]int]int{}
	for n := 0; n < g.Nodes(); n++ {
		for p := a - 1; p < g.Degree(); p++ {
			nb, ok := g.Neighbor(Node(n), p)
			if !ok {
				t.Fatalf("global port %d/%d unconnected", n, p)
			}
			gu, gv := n/a, int(nb)/a
			if gu == gv {
				t.Fatalf("global port %d/%d stays inside group %d", n, p, gu)
			}
			global[[2]int{gu, gv}]++
		}
	}
	for u := 0; u < groups; u++ {
		for v := 0; v < groups; v++ {
			if u == v {
				continue
			}
			if global[[2]int{u, v}] != 1 {
				t.Fatalf("groups %d->%d linked by %d global channels, want 1", u, v, global[[2]int{u, v}])
			}
		}
	}
	checkGraph(t, g)
}

func TestDragonflyRejects(t *testing.T) {
	for _, ah := range [][2]int{{0, 1}, {1, 0}, {-2, 3}, {1 << 9, 1 << 9}, {64, 8}} {
		if _, err := NewDragonfly(ah[0], ah[1]); err == nil {
			t.Fatalf("NewDragonfly(%d,%d) accepted", ah[0], ah[1])
		}
	}
}

// TestDragonflyPastDigraphCap pins the dragonfly's own node cap: past
// NewDigraph's 4 096 nodes, dragonfly-32x16 (16 416 routers) and
// dragonfly-32x31 (31 776) build, dragonfly-64x8 (32 832) does not.
func TestDragonflyPastDigraphCap(t *testing.T) {
	for _, c := range []struct{ a, h, nodes, degree int }{{32, 16, 16416, 47}, {32, 31, 31776, 62}} {
		g, err := NewDragonfly(c.a, c.h)
		if err != nil {
			t.Fatalf("NewDragonfly(%d,%d): %v", c.a, c.h, err)
		}
		if g.Nodes() != c.nodes || g.Degree() != c.degree || g.Nodes() <= maxDigraphNodes {
			t.Fatalf("%s: %d nodes of degree %d, want %d of degree %d", g.Name(), g.Nodes(), g.Degree(), c.nodes, c.degree)
		}
		if last := Node(c.nodes - 1); g.Distance(0, last) < 1 || g.Distance(0, last) > 3 {
			t.Fatalf("%s: distance 0->%d is %d", g.Name(), last, g.Distance(0, last))
		}
	}
}

func TestFatTree(t *testing.T) {
	k := 4
	g, err := NewFatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	half := k / 2
	if g.Nodes() != k*k+half*half {
		t.Fatalf("fattree-%d: %d nodes, want %d", k, g.Nodes(), k*k+half*half)
	}
	// Edge switches leave their upper half of ports unconnected.
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			n := Node(p*k + e)
			for q := half; q < g.Degree(); q++ {
				if _, ok := g.Neighbor(n, q); ok {
					t.Fatalf("edge switch %d has a connected upper port %d", n, q)
				}
			}
		}
	}
	// Every switch pair is reachable within the up-down diameter of 4.
	for from := 0; from < g.Nodes(); from++ {
		for to := 0; to < g.Nodes(); to++ {
			if d := g.Distance(Node(from), Node(to)); d < 0 || d > 4 {
				t.Fatalf("distance %d->%d = %d, want 0..4", from, to, d)
			}
		}
	}
	checkGraph(t, g)
}

func TestFatTreeRejects(t *testing.T) {
	for _, k := range []int{-2, 0, 3, 5, 1<<5 + 2} {
		if _, err := NewFatTree(k); err == nil {
			t.Fatalf("NewFatTree(%d) accepted", k)
		}
	}
}

func TestNewDigraphValidation(t *testing.T) {
	cases := []struct {
		name string
		adj  [][]int
	}{
		{"empty", nil},
		{"out of range", [][]int{{1}, {2}}},
		{"self loop", [][]int{{0}}},
	}
	for _, c := range cases {
		if _, err := NewDigraph(c.name, c.adj); err == nil {
			t.Fatalf("NewDigraph(%s) accepted", c.name)
		}
	}
}

func TestDigraphUnpairedReversePorts(t *testing.T) {
	// A unidirectional 3-ring: every link lacks an antiparallel twin.
	g, err := NewDigraph("uniring", [][]int{{1}, {2}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		if _, ok := g.ReversePortAt(Node(n), 0); ok {
			t.Fatalf("unidirectional link at node %d reports a reverse port", n)
		}
	}
	if d := g.Distance(0, 2); d != 2 {
		t.Fatalf("uniring distance 0->2 = %d, want 2", d)
	}
	if d := g.Distance(2, 0); d != 1 {
		t.Fatalf("uniring distance 2->0 = %d, want 1", d)
	}
}

func TestDigraphUnreachable(t *testing.T) {
	// A one-way path 0 -> 1 -> ... through the most nodes a digraph may
	// have, with no way back: distance must report -1, not panic, and the
	// distance table must still hold the longest hop count there is.
	adj := make([][]int, maxDigraphNodes)
	for v := range adj[:maxDigraphNodes-1] {
		adj[v] = []int{v + 1}
	}
	g, err := NewDigraph("oneway", adj)
	if err != nil {
		t.Fatal(err)
	}
	last := Node(maxDigraphNodes - 1)
	if d := g.Distance(last, 0); d != -1 {
		t.Fatalf("unreachable distance = %d, want -1", d)
	}
	checkMinimal(t, g, last, 0)
	if d := g.Distance(0, last); d != maxDigraphNodes-1 {
		t.Fatalf("distance 0->%d = %d, want %d", last, d, maxDigraphNodes-1)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, name := range []string{
		"torus-8x8", "mesh-4x4x2", "hypercube-3",
		"fullmesh-16", "dragonfly-4x2", "fattree-4",
	} {
		g, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if g.Name() != name {
			t.Fatalf("Parse(%q).Name() = %q", name, g.Name())
		}
		// Round trip: the emitted name parses back to the same shape.
		g2, err := Parse(g.Name())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", g.Name(), err)
		}
		if g2.Nodes() != g.Nodes() || g2.Degree() != g.Degree() {
			t.Fatalf("%q round-trips to %d nodes deg %d, want %d/%d",
				name, g2.Nodes(), g2.Degree(), g.Nodes(), g.Degree())
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, name := range []string{
		"", "torus", "torus-", "torus-8y8", "hypercube-3x3",
		"fullmesh-abc", "dragonfly-4", "fattree-4x4", "ring-8",
		"torus-99999999999999999999", "fullmesh--4",
	} {
		if _, err := Parse(name); err == nil {
			t.Fatalf("Parse(%q) accepted", name)
		}
	}
}

func TestCoordinated(t *testing.T) {
	cube := MustTorus(4, 4)
	if _, ok := Coordinated(cube); !ok {
		t.Fatal("torus not Coordinated")
	}
	for _, g := range []Graph{MustFullMesh(4), MustDragonfly(2, 1), MustFatTree(2)} {
		if _, ok := Coordinated(g); ok {
			t.Fatalf("%s unexpectedly Coordinated", g.Name())
		}
	}
}

func TestNodeAtChecked(t *testing.T) {
	topo := MustMesh(4, 3)
	if n, err := NodeAtChecked(topo, Coord{2, 1}); err != nil || n != topo.NodeAt(Coord{2, 1}) {
		t.Fatalf("NodeAtChecked valid coord: %v %v", n, err)
	}
	for _, co := range []Coord{nil, {1}, {1, 2, 3}, {-1, 0}, {4, 0}, {0, 3}} {
		if _, err := NodeAtChecked(topo, co); err == nil {
			t.Fatalf("NodeAtChecked(%v) accepted", co)
		}
	}
}

func TestRecoveryLaneIsCopied(t *testing.T) {
	g := MustFullMesh(4)
	lane := g.RecoveryLane()
	lane[0], lane[1] = lane[1], lane[0]
	if fresh := g.RecoveryLane(); fresh[0] != 0 || fresh[1] != 1 {
		t.Fatal("RecoveryLane aliases internal state")
	}
}

func TestParseErrorMentionsFormat(t *testing.T) {
	_, err := Parse("nonsense")
	if err == nil || !strings.Contains(err.Error(), "kind-size") {
		t.Fatalf("Parse error unhelpful: %v", err)
	}
}
