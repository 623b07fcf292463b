package topology

import (
	"math"
	"testing"
)

// fuzzRadix decodes up to four dimensions from raw fuzz bytes; zero bytes
// terminate the list so the fuzzer can explore 1..4-dimensional shapes,
// including degenerate (radix 0/1), odd, and large radices.
func fuzzRadix(r0, r1, r2, r3 int16) []int {
	radix := []int{int(r0)}
	for _, r := range []int16{r1, r2, r3} {
		if r == 0 {
			break
		}
		radix = append(radix, int(r))
	}
	return radix
}

// checkTopology asserts structural soundness of a successfully constructed
// cube: reciprocal links, minimal ports exactly where distance drops, and a
// Hamiltonian order that is a permutation stepping one link at a time.
func checkTopology(t *testing.T, topo Topology) {
	t.Helper()
	nodes := topo.Nodes()
	probe := nodes
	if probe > 256 {
		probe = 256 // bound per-input work; the properties are node-symmetric
	}
	for n := 0; n < probe; n++ {
		for p := 0; p < topo.Degree(); p++ {
			nb, ok := topo.Neighbor(Node(n), p)
			if !ok {
				continue
			}
			back, ok := topo.Neighbor(nb, ReversePort(p))
			if !ok || back != Node(n) {
				t.Fatalf("%s: link %d --%d--> %d not reciprocal", topo.Name(), n, p, nb)
			}
			if d, dn := topo.Distance(Node(n), nb), topo.Distance(nb, Node(n)); d != 1 || dn != 1 {
				t.Fatalf("%s: neighbor distance %d/%d, want 1", topo.Name(), d, dn)
			}
		}
		checkMinimal(t, topo, Node(n), Node((n*31)%nodes))
	}
	order := topo.RecoveryLane()
	if len(order) != nodes {
		t.Fatalf("%s: Hamiltonian order covers %d of %d nodes", topo.Name(), len(order), nodes)
	}
	visited := make([]bool, nodes)
	for i, n := range order {
		if visited[n] {
			t.Fatalf("%s: Hamiltonian order visits node %d twice", topo.Name(), n)
		}
		visited[n] = true
		if i > 0 && topo.Distance(order[i-1], n) != 1 {
			t.Fatalf("%s: Hamiltonian step %d->%d is not a link", topo.Name(), order[i-1], n)
		}
	}
}

// FuzzNewCube drives the mesh/torus constructors with arbitrary dimension
// lists: construction must either return an error or yield a structurally
// sound topology — never panic, never attempt a gigantic allocation.
func FuzzNewCube(f *testing.F) {
	f.Add(int16(4), int16(4), int16(0), int16(0), true)
	f.Add(int16(8), int16(8), int16(0), int16(0), false)
	f.Add(int16(3), int16(5), int16(7), int16(0), true) // odd radices
	f.Add(int16(2), int16(0), int16(0), int16(0), true) // 1-dim, minimum radix
	f.Add(int16(1), int16(0), int16(0), int16(0), false)
	f.Add(int16(-3), int16(9), int16(0), int16(0), true)
	f.Add(int16(32767), int16(32767), int16(32767), int16(32767), true) // size guard
	f.Fuzz(func(t *testing.T, r0, r1, r2, r3 int16, wrap bool) {
		radix := fuzzRadix(r0, r1, r2, r3)
		var (
			topo Topology
			err  error
		)
		if wrap {
			topo, err = NewTorus(radix...)
		} else {
			topo, err = NewMesh(radix...)
		}
		if err != nil {
			return
		}
		want := 1
		for _, k := range radix {
			want *= k
		}
		if topo.Nodes() != want {
			t.Fatalf("radix %v: %d nodes, want %d", radix, topo.Nodes(), want)
		}
		checkTopology(t, topo)
	})
}

// FuzzNewHypercube covers the dedicated hypercube constructor, including
// dimension counts large enough to trip the size guard.
func FuzzNewHypercube(f *testing.F) {
	for _, dims := range []int16{0, 1, 4, 20, 21, 64, -1} {
		f.Add(dims)
	}
	f.Fuzz(func(t *testing.T, dims int16) {
		topo, err := NewHypercube(int(dims))
		if err != nil {
			return
		}
		if dims < 1 || topo.Nodes() != 1<<uint(dims) {
			t.Fatalf("hypercube dims=%d accepted with %d nodes", dims, topo.Nodes())
		}
		checkTopology(t, topo)
	})
}

// TestNewCubeRejectsHugeSingleRadix pins the size-guard fix: a single
// enormous radix used to pass the pre-multiplication check and OOM inside
// the Hamiltonian builder. The radix is 2⁴⁰ where an int holds it and the
// largest int on 32-bit targets.
func TestNewCubeRejectsHugeSingleRadix(t *testing.T) {
	if _, err := NewTorus(min(1<<40, math.MaxInt)); err == nil {
		t.Fatal("gigantic 1-dim torus accepted")
	}
	if _, err := NewMesh(1<<10, 1<<10, 1<<10); err == nil {
		t.Fatal("gigantic 3-dim mesh accepted")
	}
	if _, err := NewTorus(1 << 19); err != nil {
		t.Fatalf("large-but-bounded ring rejected: %v", err)
	}
}

// FuzzParse drives the name parser with arbitrary strings: it must either
// return an error or a structurally sound graph — never panic, even on
// hostile sizes, since this is the CLI -topo entry point.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"torus-8x8", "mesh-4x4x2", "hypercube-3", "fullmesh-16",
		"dragonfly-4x2", "fattree-4", "torus-", "-8", "fullmesh-99999999",
		"dragonfly-4x2x1", "torus-8x-8", "x", "torus-0x0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		g, err := Parse(name)
		if err != nil {
			return
		}
		if g.Nodes() < 1 || g.Degree() < 0 {
			t.Fatalf("Parse(%q): %d nodes degree %d", name, g.Nodes(), g.Degree())
		}
		// The emitted name is canonical: it must re-parse to the same shape.
		g2, err := Parse(g.Name())
		if err != nil {
			t.Fatalf("Parse(%q) emitted unparseable name %q: %v", name, g.Name(), err)
		}
		if g2.Nodes() != g.Nodes() || g2.Degree() != g.Degree() {
			t.Fatalf("canonical re-parse of %q changed shape", g.Name())
		}
	})
}

// FuzzNewDigraph feeds the adjacency-list constructor arbitrary edges
// decoded from raw bytes: out-of-range targets, self-loops and oversized
// shapes must error; every accepted graph must be structurally sound.
func FuzzNewDigraph(f *testing.F) {
	f.Add(3, 2, []byte{0, 1, 1, 2, 2, 0})
	f.Add(2, 1, []byte{0, 1, 1, 0})
	f.Add(1, 1, []byte{0, 0})     // self-loop
	f.Add(2, 1, []byte{0, 5})     // out of range
	f.Add(1<<20, 4, []byte{0, 1}) // size guard
	f.Fuzz(func(t *testing.T, nodes, degree int, edges []byte) {
		if nodes < 0 || nodes > 1<<10 || degree < 0 || degree > 8 {
			return // cap the fuzz shape, not the constructor's own guards
		}
		adj := make([][]int, nodes)
		for i := 0; i+1 < len(edges); i += 2 {
			v := int(edges[i]) % max(nodes, 1)
			if len(adj) == 0 {
				break
			}
			if len(adj[v]) < degree {
				adj[v] = append(adj[v], int(edges[i+1]))
			}
		}
		g, err := NewDigraph("fuzz", adj)
		if err != nil {
			return
		}
		for n := 0; n < g.Nodes(); n++ {
			for p := 0; p < g.Degree(); p++ {
				nb, ok := g.Neighbor(Node(n), p)
				if !ok {
					continue
				}
				if rp, rok := g.ReversePortAt(Node(n), p); rok {
					back, bok := g.Neighbor(nb, rp)
					if !bok || back != Node(n) {
						t.Fatalf("reverse port of %d--%d-->%d broken", n, p, nb)
					}
				}
				if g.Distance(Node(n), nb) != 1 {
					t.Fatalf("neighbor %d->%d distance %d", n, nb, g.Distance(Node(n), nb))
				}
			}
		}
	})
}

// FuzzDigraphConstructors covers the named non-cube constructors with
// arbitrary parameters, including negatives and values past the size
// guards: error or sound graph, never a panic or runaway allocation.
func FuzzDigraphConstructors(f *testing.F) {
	f.Add(16, 4, 2, 4)
	f.Add(0, 0, 0, 0)
	f.Add(-1, -1, -1, -1)
	f.Add(1<<30, 1<<30, 1<<30, 1<<30)
	f.Fuzz(func(t *testing.T, n, a, h, k int) {
		if g, err := NewFullMesh(n); err == nil {
			if g.Nodes() != n {
				t.Fatalf("NewFullMesh(%d): %d nodes", n, g.Nodes())
			}
		}
		if g, err := NewDragonfly(a, h); err == nil {
			if g.Nodes() != (a*h+1)*a {
				t.Fatalf("NewDragonfly(%d,%d): %d nodes", a, h, g.Nodes())
			}
		}
		if g, err := NewFatTree(k); err == nil {
			if g.Nodes() != k*k+(k/2)*(k/2) {
				t.Fatalf("NewFatTree(%d): %d nodes", k, g.Nodes())
			}
		}
	})
}
