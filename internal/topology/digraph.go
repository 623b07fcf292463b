package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// maxDigraphNodes bounds digraph construction the same way newCube bounds
// cubes: hostile sizes error instead of exploding the allocations below.
// The bound is tighter than the cube one because a NewDigraph graph carries
// an all-pairs distance table of nodes² int16s, 32 MiB at the bound, and it
// keeps every distance, port and lane-row entry inside an int16.
const maxDigraphNodes = 1 << 12

// maxNamedNodes bounds the dragonfly, the one named class whose parameters
// reach past maxDigraphNodes (full meshes stop at 1 024 nodes, fat trees at
// 1 280). A named graph holds no table, and a network checks Lemma 1 on it
// in O(links) and keeps only ports in its int16 lane rows, so a build is
// linear in the node count: topology and network of dragonfly-32x16 (16 416
// routers of radix 47) build in 0.3 s on a 2-vCPU Xeon.
const maxNamedNodes = 1 << 15

// digraph is the generic directed-graph topology: an explicit adjacency
// list with inferred reverse ports, all-pairs BFS distances, and an
// identity recovery lane. It serves arbitrary adjacency lists (test
// fixtures, fuzzing); the named classes compute the same answers in closed
// form (named.go). It implements Graph but not Topology: there is no
// coordinate geometry, so coordinate-based routing algorithms and traffic
// patterns reject it via MinVCs/constructor errors.
type digraph struct {
	name   string
	degree int
	adj    []int32 // adj[n*degree+p] = neighbor, or -1 when unconnected
	rev    []int32 // rev[n*degree+p] = paired reverse port at adj, or -1
	nodes  int
	dist   []int16 // dist[from*nodes+to] minimal hops, or -1 unreachable
}

// NewDigraph constructs a topology from an explicit adjacency list:
// adj[n] lists the neighbor reached via each port of node n (-1 for an
// unconnected port; shorter lists are padded). Reverse ports are inferred
// by pairing antiparallel edges deterministically in port order; an edge
// with no antiparallel twin simply has no reverse port. The recovery lane
// defaults to the identity order 0..n-1; construct a custom lane by
// wrapping the result. Errors on empty graphs, out-of-range targets,
// self-loops, and sizes past the same safety bound the cube constructors
// enforce. Every call builds a new graph.
func NewDigraph(name string, adj [][]int) (Graph, error) {
	n := len(adj)
	if n == 0 {
		return nil, fmt.Errorf("topology: digraph %q has no nodes", name)
	}
	if n > maxDigraphNodes {
		return nil, fmt.Errorf("topology: network too large")
	}
	degree := 0
	for _, ports := range adj {
		if len(ports) > degree {
			degree = len(ports)
		}
	}
	if degree > maxDigraphNodes {
		return nil, fmt.Errorf("topology: network too large")
	}
	g := &digraph{
		name:   name,
		degree: degree,
		nodes:  n,
		adj:    make([]int32, n*degree),
		rev:    make([]int32, n*degree),
	}
	for i := range g.adj {
		g.adj[i] = -1
		g.rev[i] = -1
	}
	for v, ports := range adj {
		for p, nb := range ports {
			if nb < 0 {
				continue
			}
			if nb >= n {
				return nil, fmt.Errorf("topology: digraph %q node %d port %d targets %d; have %d nodes", name, v, p, nb, n)
			}
			if nb == v {
				return nil, fmt.Errorf("topology: digraph %q node %d port %d is a self-loop", name, v, p)
			}
			g.adj[v*degree+p] = int32(nb)
		}
	}
	g.pairReversePorts()
	g.buildDistances()
	return g, nil
}

// pairReversePorts matches each directed edge u->v with the first not yet
// paired edge v->u, scanning nodes and ports in increasing order so the
// pairing is deterministic. Unmatched edges keep rev -1.
func (g *digraph) pairReversePorts() {
	for u := 0; u < g.nodes; u++ {
		for p := 0; p < g.degree; p++ {
			i := u*g.degree + p
			v := g.adj[i]
			if v < 0 || g.rev[i] >= 0 {
				continue
			}
			for q := 0; q < g.degree; q++ {
				j := int(v)*g.degree + q
				if g.adj[j] == int32(u) && g.rev[j] < 0 {
					g.rev[i] = int32(q)
					g.rev[j] = int32(p)
					break
				}
			}
		}
	}
}

// buildDistances runs a BFS from every source over the directed adjacency.
func (g *digraph) buildDistances() {
	g.dist = make([]int16, g.nodes*g.nodes)
	for i := range g.dist {
		g.dist[i] = -1
	}
	queue := make([]int32, 0, g.nodes)
	for src := 0; src < g.nodes; src++ {
		row := g.dist[src*g.nodes : (src+1)*g.nodes]
		row[src] = 0
		queue = append(queue[:0], int32(src))
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			d := row[cur]
			base := int(cur) * g.degree
			for p := 0; p < g.degree; p++ {
				nb := g.adj[base+p]
				if nb >= 0 && row[nb] < 0 {
					row[nb] = d + 1
					queue = append(queue, nb)
				}
			}
		}
	}
}

func (g *digraph) Name() string { return g.name }
func (g *digraph) Nodes() int   { return g.nodes }
func (g *digraph) Degree() int  { return g.degree }

func (g *digraph) Neighbor(n Node, port int) (Node, bool) {
	if port < 0 || port >= g.degree || int(n) < 0 || int(n) >= g.nodes {
		return 0, false
	}
	nb := g.adj[int(n)*g.degree+port]
	if nb < 0 {
		return 0, false
	}
	return Node(nb), true
}

func (g *digraph) ReversePortAt(n Node, port int) (int, bool) {
	if port < 0 || port >= g.degree || int(n) < 0 || int(n) >= g.nodes {
		return 0, false
	}
	r := g.rev[int(n)*g.degree+port]
	if r < 0 {
		return 0, false
	}
	return int(r), true
}

func (g *digraph) Distance(from, to Node) int {
	if int(from) < 0 || int(from) >= g.nodes || int(to) < 0 || int(to) >= g.nodes {
		return -1
	}
	return int(g.dist[int(from)*g.nodes+int(to)])
}

func (g *digraph) IsMinimal(from, to Node, port int) bool {
	nb, ok := g.Neighbor(from, port)
	if !ok || from == to {
		return false
	}
	dt := g.Distance(from, to)
	if dt < 0 {
		return false
	}
	return g.Distance(nb, to) == dt-1
}

func (g *digraph) RecoveryLane() []Node { return identityLane(g.nodes) }

// --- Name parsing -----------------------------------------------------------

// Parse resolves a topology spelled as a name string — the format the CLIs
// accept and Graph.Name emits: "torus-8x8", "mesh-4x4x2", "hypercube-3",
// "fullmesh-16", "dragonfly-4x2", "fattree-4". It returns an error, never
// panics, on malformed input.
func Parse(name string) (Graph, error) {
	kind, rest, ok := strings.Cut(name, "-")
	if !ok {
		return nil, fmt.Errorf("topology: %q is not of the form kind-size (e.g. torus-8x8, fullmesh-16)", name)
	}
	dims, err := parseDims(rest)
	if err != nil {
		return nil, fmt.Errorf("topology: %q: %v", name, err)
	}
	one := func() (int, error) {
		if len(dims) != 1 {
			return 0, fmt.Errorf("topology: %q wants a single size, have %d", name, len(dims))
		}
		return dims[0], nil
	}
	switch kind {
	case "torus":
		return NewTorus(dims...)
	case "mesh":
		return NewMesh(dims...)
	case "hypercube":
		n, err := one()
		if err != nil {
			return nil, err
		}
		return NewHypercube(n)
	case "fullmesh":
		n, err := one()
		if err != nil {
			return nil, err
		}
		return NewFullMesh(n)
	case "dragonfly":
		if len(dims) != 2 {
			return nil, fmt.Errorf("topology: %q wants dragonfly-AxH", name)
		}
		return NewDragonfly(dims[0], dims[1])
	case "fattree":
		n, err := one()
		if err != nil {
			return nil, err
		}
		return NewFatTree(n)
	default:
		return nil, fmt.Errorf("topology: unknown kind %q (want torus, mesh, hypercube, fullmesh, dragonfly or fattree)", kind)
	}
}

func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad size %q", p)
		}
		dims = append(dims, v)
	}
	return dims, nil
}
