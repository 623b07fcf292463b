//go:build exhaustive

package topology

import "testing"

// TestNamedClassesMatchOracleEverySize covers every constructible size of
// the named classes up to 4 096 nodes: 1 023 full meshes, 16 fat trees and
// 1 836 dragonflies, and dragonfly-32x16 (16 416 routers) past that bound.
// Every dragonfly size up to NewDragonfly's own cap of 2¹⁵ routers would
// take about four times as long.
// Checking every pair of each against the BFS oracle would take about 10¹²
// steps, so each size is checked at every node and port, and toward a fixed
// set of destinations from every node:
//   - Neighbor is the adjacency list's entry, and the reverse port leads
//     back. No node lists a neighbor twice, so that pairing is the only one
//     and NewDigraph's antiparallel pairing finds it.
//   - For each destination t, BFS from t over the adjacency gives every
//     node's distance to t (the classes are undirected). Distance(v, t),
//     Distance(t, v) and IsMinimal(v, t, p) match it at every node v and
//     port p.
//
// The destinations are the first and last node, the last router of the
// first group or pod, the middle node, and three spread pseudo-randomly.
// The benchmark's dragonfly-16x8 and the largest fat tree are also checked
// at every pair against NewDigraph itself. It takes a few minutes on two
// cores; CI's kernel job runs it.
func TestNamedClassesMatchOracleEverySize(t *testing.T) {
	for _, c := range namedCases(1 << 62) {
		checkAdjacency(t, c.g, c.adj())
	}
	checkAdjacency(t, MustDragonfly(32, 16), dragonflyAdj(32, 16))
	checkOracle(t, MustDragonfly(16, 8), dragonflyAdj(16, 8))
	checkOracle(t, MustFatTree(32), fatTreeAdj(32))
}

// checkAdjacency is TestNamedClassesMatchOracleEverySize's check of one
// size.
func checkAdjacency(t *testing.T, g Graph, adj [][]int) {
	t.Helper()
	nodes, deg := g.Nodes(), g.Degree()
	if len(adj) != nodes {
		t.Fatalf("%s: %d nodes, adjacency has %d", g.Name(), nodes, len(adj))
	}
	seen := make([]int, nodes) // seen[nb] = v+1 once v lists nb
	for v := 0; v < nodes; v++ {
		for p := 0; p < deg; p++ {
			want := -1
			if p < len(adj[v]) {
				want = adj[v][p]
			}
			nb, ok := g.Neighbor(Node(v), p)
			rev, rok := g.ReversePortAt(Node(v), p)
			if want < 0 {
				if ok || rok {
					t.Fatalf("%s: unconnected port %d/%d has a link", g.Name(), v, p)
				}
				continue
			}
			if !ok || int(nb) != want || seen[want] == v+1 {
				t.Fatalf("%s: port %d/%d leads to %d,%v, adjacency %d (or listed twice)", g.Name(), v, p, nb, ok, want)
			}
			seen[want] = v + 1
			if !rok || rev >= len(adj[want]) || adj[want][rev] != v {
				t.Fatalf("%s: reverse of %d/%d is port %d,%v at %d, which does not lead back", g.Name(), v, p, rev, rok, want)
			}
		}
	}
	dist := make([]int, nodes)
	queue := make([]int, 0, nodes)
	for _, dst := range []int{0, nodes - 1, len(adj[0]), nodes / 2, nodes * 3 / 7, nodes * 5 / 11, nodes * 8 / 9} {
		dst %= nodes
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], dst)
		for head := 0; head < len(queue); head++ {
			for _, nb := range adj[queue[head]] {
				if nb >= 0 && dist[nb] < 0 {
					dist[nb] = dist[queue[head]] + 1
					queue = append(queue, nb)
				}
			}
		}
		to := Node(dst)
		for v := 0; v < nodes; v++ {
			if g.Distance(Node(v), to) != dist[v] || g.Distance(to, Node(v)) != dist[v] {
				t.Fatalf("%s: distance %d<->%d is %d/%d, oracle %d", g.Name(), v, dst, g.Distance(Node(v), to), g.Distance(to, Node(v)), dist[v])
			}
			for p := 0; p < deg; p++ {
				want := p < len(adj[v]) && adj[v][p] >= 0 && v != dst && dist[adj[v][p]] == dist[v]-1
				if g.IsMinimal(Node(v), to, p) != want {
					t.Fatalf("%s: IsMinimal(%d, %d, %d) is %v, oracle %v", g.Name(), v, dst, p, !want, want)
				}
			}
		}
	}
}

// TestDragonflyTwoGlobalHopsEverySize enumerates the paths of two global
// hops, router r of group u to middle router t of group v to router s of
// group w, and asserts that throughThird reports each: its gate (r and s
// within one, u and w within h) keeps every one of them. The gate holds by
// construction, as t's channels to u and w lie within h-1 of each other and
// u's and w's channels to v are v-1 or v, but the test checks the code.
// Every middle group is enumerated on the 1 180 sizes up to 4 096 routers
// with at most 10⁷ such paths, and on dragonfly-32x16; the larger ones, up
// to 2.6·10⁸ paths, at seven middle groups. The links come from Neighbor,
// which TestNamedClassesMatchOracleEverySize holds to the adjacency list.
func TestDragonflyTwoGlobalHopsEverySize(t *testing.T) {
	for a := 1; a <= 1<<8; a++ {
		for h := 2; h <= 1<<8 && (a*h+1)*a <= maxDigraphNodes; h++ {
			if g, err := NewDragonfly(a, h); err == nil {
				checkTwoGlobalHops(t, g.(*dragonfly))
			}
		}
	}
	checkTwoGlobalHops(t, MustDragonfly(32, 16).(*dragonfly))
}

// checkTwoGlobalHops is TestDragonflyTwoGlobalHopsEverySize's check of one
// size.
func checkTwoGlobalHops(t *testing.T, d *dragonfly) {
	t.Helper()
	a, h, groups := d.a, d.h, d.groups
	middles := make([]int, groups)
	for v := range middles {
		middles[v] = v
	}
	if d.Nodes()*h*(h-1) > 1e7 {
		middles = []int{0, groups - 1, groups / 2, groups * 3 / 7, groups * 5 / 11, groups * 8 / 9, h}
	}
	far := make([]Node, h) // where the middle router's global ports lead
	for _, v := range middles {
		for mid := v * a; mid < v*a+a; mid++ {
			for k := range far {
				far[k], _ = d.Neighbor(Node(mid), a-1+k)
			}
			for _, x := range far {
				for _, y := range far {
					if x != y && !d.throughThird(int(x)/a, int(x)%a, int(y)/a, int(y)%a) {
						t.Fatalf("%s: %d reaches %d through %d by two global hops; throughThird misses it", d.Name(), x, y, mid)
					}
				}
			}
		}
	}
}
