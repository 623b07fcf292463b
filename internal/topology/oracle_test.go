package topology

import (
	"fmt"
	"testing"
)

// The named classes' adjacency lists, written out node by node.
// NewDigraph over them (BFS distances, antiparallel pairing) is the oracle
// every closed form in named.go is held against.

func fullMeshAdj(n int) [][]int {
	adj := make([][]int, n)
	for i := range adj {
		row := make([]int, n-1)
		for p := range row {
			if p < i {
				row[p] = p
			} else {
				row[p] = p + 1
			}
		}
		adj[i] = row
	}
	return adj
}

func dragonflyAdj(a, h int) [][]int {
	groups := a*h + 1
	adj := make([][]int, groups*a)
	for u := 0; u < groups; u++ {
		for r := 0; r < a; r++ {
			row := make([]int, (a-1)+h)
			// Local all-to-all: port p skips self.
			for p := 0; p < a-1; p++ {
				other := p
				if p >= r {
					other = p + 1
				}
				row[p] = u*a + other
			}
			// Global channels: this router owns group channels r*h..r*h+h-1.
			for k := 0; k < h; k++ {
				ch := r*h + k
				v := ch
				if ch >= u {
					v = ch + 1
				}
				// The reverse channel index at group v points back at u.
				chBack := u
				if u > v {
					chBack = u - 1
				}
				row[a-1+k] = v*a + chBack/h
			}
			adj[u*a+r] = row
		}
	}
	return adj
}

func fatTreeAdj(k int) [][]int {
	half := k / 2
	adj := make([][]int, k*k+half*half)
	edge := func(p, e int) int { return p*k + e }
	agg := func(p, a int) int { return p*k + half + a }
	core := func(i, j int) int { return k*k + i*half + j }
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			row := make([]int, half)
			for a := 0; a < half; a++ {
				row[a] = agg(p, a)
			}
			adj[edge(p, e)] = row
		}
		for a := 0; a < half; a++ {
			row := make([]int, k)
			for e := 0; e < half; e++ {
				row[e] = edge(p, e)
			}
			for j := 0; j < half; j++ {
				row[half+j] = core(a, j)
			}
			adj[agg(p, a)] = row
		}
	}
	for i := 0; i < half; i++ {
		for j := 0; j < half; j++ {
			row := make([]int, k)
			for p := 0; p < k; p++ {
				row[p] = agg(p, i)
			}
			adj[core(i, j)] = row
		}
	}
	return adj
}

// namedCase is one size of a named class with its oracle adjacency.
type namedCase struct {
	g   Graph
	adj func() [][]int
}

// namedCases returns every constructible size of each class whose
// every-pair check, nodes² × degree, is at most maxWork (counted in int64:
// it passes 2³¹ on a 32-bit int).
func namedCases(maxWork int64) []namedCase {
	var cases []namedCase
	add := func(g Graph, err error, adj func() [][]int) {
		if err != nil {
			return
		}
		if n := int64(g.Nodes()); n*n*int64(g.Degree()) <= maxWork {
			cases = append(cases, namedCase{g, adj})
		}
	}
	for n := 2; n <= 1<<10; n++ {
		g, err := NewFullMesh(n)
		add(g, err, func() [][]int { return fullMeshAdj(n) })
	}
	for k := 2; k <= 1<<5; k += 2 {
		g, err := NewFatTree(k)
		add(g, err, func() [][]int { return fatTreeAdj(k) })
	}
	for a := 1; a <= 1<<8; a++ {
		for h := 1; h <= 1<<8 && (a*h+1)*a <= maxDigraphNodes; h++ {
			g, err := NewDragonfly(a, h)
			add(g, err, func() [][]int { return dragonflyAdj(a, h) })
		}
	}
	return cases
}

// checkOracle holds g against NewDigraph on its adjacency list at every
// node and port (Neighbor, ReversePortAt) and every pair (Distance, and
// IsMinimal at every port).
func checkOracle(t *testing.T, g Graph, adj [][]int) {
	t.Helper()
	o, err := NewDigraph(g.Name(), adj)
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != o.Nodes() || g.Degree() != o.Degree() {
		t.Fatalf("%s: %d nodes of degree %d, oracle %d of degree %d", g.Name(), g.Nodes(), g.Degree(), o.Nodes(), o.Degree())
	}
	nodes, deg := g.Nodes(), g.Degree()
	for v := Node(-1); int(v) <= nodes; v++ {
		for p := -1; p <= deg; p++ {
			nb, ok := g.Neighbor(v, p)
			wnb, wok := o.Neighbor(v, p)
			rev, rok := g.ReversePortAt(v, p)
			wrev, wrok := o.ReversePortAt(v, p)
			if nb != wnb || ok != wok || rev != wrev || rok != wrok {
				t.Fatalf("%s: node %d port %d: neighbor %d,%v reverse %d,%v; oracle %d,%v reverse %d,%v",
					g.Name(), v, p, nb, ok, rev, rok, wnb, wok, wrev, wrok)
			}
		}
	}
	for from := Node(-1); int(from) <= nodes; from++ {
		for to := Node(-1); int(to) <= nodes; to++ {
			if d, want := g.Distance(from, to), o.Distance(from, to); d != want {
				t.Fatalf("%s: distance %d->%d is %d, oracle %d", g.Name(), from, to, d, want)
			}
			for p := -1; p <= deg; p++ {
				if m, want := g.IsMinimal(from, to, p), o.IsMinimal(from, to, p); m != want {
					t.Fatalf("%s: IsMinimal(%d, %d, %d) is %v, oracle %v", g.Name(), from, to, p, m, want)
				}
			}
		}
	}
	checkGraph(t, g)
}

// TestNamedClassesMatchOracle checks, against the oracle at every node,
// port and pair, every size of each named class whose check fits tier-1's
// time: 250 sizes, full meshes up to 80 nodes, fat trees up to k = 12 and
// dragonflies up to a few hundred routers of low degree.
// Every constructible size runs under the exhaustive build tag
// (TestNamedClassesMatchOracleEverySize).
func TestNamedClassesMatchOracle(t *testing.T) {
	for _, c := range namedCases(1 << 19) {
		checkOracle(t, c.g, c.adj())
	}
}

// TestDragonflyThroughThirdGroup pins the minimal path that is not
// local-global-local: on dragonfly-2x2, router 1 of group 0 reaches router 1
// of group 1 (node 3) in two global hops through group 2, where the direct
// path takes three (a local hop to router 0, which owns group 0's channel
// to group 1, the global hop, and a local hop at the landing router 0 of
// group 1).
func TestDragonflyThroughThirdGroup(t *testing.T) {
	g := MustDragonfly(2, 2)
	if d := g.Distance(1, 3); d != 2 {
		t.Fatalf("dragonfly-2x2 distance 1->3 is %d, want 2", d)
	}
	hops := 0
	for v := Node(1); v != 3; hops++ {
		next := -1
		for p := 0; p < g.Degree() && next < 0; p++ {
			if g.IsMinimal(v, 3, p) {
				next = p
			}
		}
		nb, _ := g.Neighbor(v, next)
		if next < 1 || nb/2 == v/2 {
			t.Fatalf("minimal hop from %d toward 3 is port %d to %d, want a global port", v, next, nb)
		}
		v = nb
	}
	if hops != 2 {
		t.Fatalf("%d minimal hops from 1 to 3", hops)
	}
	// Of the 80 inter-group pairs, 4 are closer than local-global-local.
	shorter := 0
	for from := Node(0); from < 10; from++ {
		for to := Node(0); to < 10; to++ {
			if from/2 == to/2 {
				continue
			}
			direct := 1
			for _, off := range []bool{int(from)%2 != channel(int(from/2), int(to/2))/2, int(to)%2 != channel(int(to/2), int(from/2))/2} {
				if off {
					direct++
				}
			}
			if g.Distance(from, to) < direct {
				shorter++
			}
		}
	}
	if shorter != 4 {
		t.Fatalf("%d inter-group pairs shorter than local-global-local, want 4", shorter)
	}
}

// BenchmarkIsMinimal is the route-compute scan on dragonfly-16x8: IsMinimal
// at all 23 ports of one router toward one destination, pairs spread over
// the graph, in closed form and on the oracle's distance table.
func BenchmarkIsMinimal(b *testing.B) {
	g := MustDragonfly(16, 8)
	o, err := NewDigraph(g.Name(), dragonflyAdj(16, 8))
	if err != nil {
		b.Fatal(err)
	}
	nodes, deg := g.Nodes(), g.Degree()
	for _, c := range []struct {
		name string
		g    Graph
	}{{"closed-form", g}, {"table", o}} {
		b.Run(fmt.Sprintf("dragonfly16x8/%s", c.name), func(b *testing.B) {
			minimal := 0
			for i := 0; i < b.N; i++ {
				from, to := Node(i%nodes), Node((i*7919+1031)%nodes)
				for p := 0; p < deg; p++ {
					if c.g.IsMinimal(from, to, p) {
						minimal++
					}
				}
			}
			if b.N >= nodes && minimal == 0 {
				b.Fatal("no minimal port found")
			}
		})
	}
}
