package topology

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// maxDigraphNodes bounds digraph construction the same way newCube bounds
// cubes: hostile sizes error instead of exploding the allocations below.
// The bound is tighter than the cube one because a digraph carries two
// all-pairs tables of nodes^2 int32s (distances, and the lane table
// core.BFSLane builds), 128 MiB together at the bound: exactly tableBudget,
// so the process cache can still hold the largest graph.
const maxDigraphNodes = 1 << 12

// tableBudget bounds the table bytes the process keeps for the named
// digraph families (three dragonfly-16x8); past it the oldest graphs
// leave the cache. Graphs already handed out stay valid.
const tableBudget = 128 << 20

// shared is the process cache behind NewFullMesh, NewDragonfly and
// NewFatTree: one immutable graph per canonical name, so every simulator,
// harness normalization and point key on that name shares its tables.
var shared = struct {
	sync.Mutex
	budget, bytes, builds int
	byName                map[string]*sharedGraph
	order                 []*sharedGraph // oldest first
}{budget: tableBudget, byName: map[string]*sharedGraph{}}

var laneBuilds atomic.Int64 // LaneTable builds, for tests

// sharedGraph is one cache entry, charged the bytes of both its tables
// (distances and lane) from the start; once makes concurrent first callers
// wait for a single build.
type sharedGraph struct {
	name  string
	bytes int
	once  sync.Once
	g     Graph
	err   error
}

// sharedDigraph returns the process's digraph called name, of nodes nodes,
// built from the adjacency list adj returns on first use. name must
// determine adj.
func sharedDigraph(name string, nodes int, adj func() [][]int) (Graph, error) {
	shared.Lock()
	e := shared.byName[name]
	if e == nil {
		e = &sharedGraph{name: name, bytes: 8 * nodes * nodes}
		shared.byName[name] = e
		shared.order = append(shared.order, e)
		shared.builds++
		shared.bytes += e.bytes
		for shared.bytes > shared.budget {
			old := shared.order[0]
			shared.order = shared.order[1:]
			delete(shared.byName, old.name)
			shared.bytes -= old.bytes
		}
	}
	shared.Unlock()
	e.once.Do(func() { e.g, e.err = NewDigraph(name, adj()) })
	return e.g, e.err
}

// FlushSharedTables empties the process's digraph table cache, so the next
// constructor call on any name builds afresh.
func FlushSharedTables() {
	shared.Lock()
	defer shared.Unlock()
	shared.bytes, shared.byName, shared.order = 0, map[string]*sharedGraph{}, nil
}

// digraph is the generic directed-graph topology base: an explicit
// adjacency list with inferred reverse ports, all-pairs BFS distances, and
// an identity recovery lane. Full-mesh, dragonfly, and fat-tree are built
// on it. It implements Graph but not Topology: there is no coordinate
// geometry, so coordinate-based routing algorithms and traffic patterns
// reject it via MinVCs/constructor errors.
type digraph struct {
	name   string
	degree int
	adj    []int32 // adj[n*degree+p] = neighbor, or -1 when unconnected
	rev    []int32 // rev[n*degree+p] = paired reverse port at adj, or -1
	nodes  int
	dist   []int32 // dist[from*nodes+to] minimal hops, or -1 unreachable
	lane   []Node
	dbLane struct { // LaneTable's memo
		once  sync.Once
		table []int32
		err   error
	}
}

// NewDigraph constructs a topology from an explicit adjacency list:
// adj[n] lists the neighbor reached via each port of node n (-1 for an
// unconnected port; shorter lists are padded). Reverse ports are inferred
// by pairing antiparallel edges deterministically in port order; an edge
// with no antiparallel twin simply has no reverse port. The recovery lane
// defaults to the identity order 0..n-1; construct a custom lane by
// wrapping the result. Errors on empty graphs, out-of-range targets,
// self-loops, and sizes past the same safety bound the cube constructors
// enforce. Every call builds a new graph: only the named families are
// cached, by name, because there the name determines the adjacency.
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
	g.lane = make([]Node, n)
	for i := range g.lane {
		g.lane[i] = Node(i)
	}
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
	g.dist = make([]int32, g.nodes*g.nodes)
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

// LaneTable returns the Deadlock Buffer lane table and Lemma 1 verdict that
// build, run on the first call only, gives for g (core.BFSLane, which
// topology cannot import). g is immutable, so every caller shares them.
func (g *digraph) LaneTable(build func() ([]int32, error)) ([]int32, error) {
	g.dbLane.once.Do(func() {
		laneBuilds.Add(1)
		g.dbLane.table, g.dbLane.err = build()
	})
	return g.dbLane.table, g.dbLane.err
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

func (g *digraph) MinimalPorts(from, to Node) []int {
	if from == to {
		return nil
	}
	ports := make([]int, 0, g.degree)
	for p := 0; p < g.degree; p++ {
		if g.IsMinimal(from, to, p) {
			ports = append(ports, p)
		}
	}
	return ports
}

func (g *digraph) RecoveryLane() []Node {
	out := make([]Node, len(g.lane))
	copy(out, g.lane)
	return out
}

// --- Full mesh --------------------------------------------------------------

// NewFullMesh constructs the complete graph on n nodes: node i reaches
// node j (j != i) via port j-(j>i ? 1 : 0), so every node has degree n-1
// and every route is a single hop. Minimal routing on it is trivially
// deadlock-free with zero extra virtual channels — the VC-free baseline
// the HOTI'25 full-mesh paper sweeps against. The identity recovery lane
// is a chain of physical links (everything is adjacent), so both recovery
// modes work.
func NewFullMesh(n int) (Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: full mesh needs at least 2 nodes, have %d", n)
	}
	if n > 1<<10 {
		return nil, fmt.Errorf("topology: network too large")
	}
	return sharedDigraph("fullmesh-"+strconv.Itoa(n), n, func() [][]int {
		adj := make([][]int, n)
		for i := 0; i < n; i++ {
			row := make([]int, n-1)
			for p := 0; p < n-1; p++ {
				if p < i {
					row[p] = p
				} else {
					row[p] = p + 1
				}
			}
			adj[i] = row
		}
		return adj
	})
}

// MustFullMesh is NewFullMesh that panics on error.
func MustFullMesh(n int) Graph { return must(NewFullMesh(n)) }

// --- Dragonfly --------------------------------------------------------------

// NewDragonfly constructs the canonical maximally-sized dragonfly(a, h):
// g = a*h+1 groups of a routers each, every router with a-1 local ports
// (in-group all-to-all) and h global ports, exactly one global link
// between every pair of groups. Ports 0..a-2 are local; port a-1+k is the
// router's k-th global channel. Minimal paths are at most local-global-
// local; adaptive minimal routing on it generally needs VCs to avoid
// deadlock, so DISHA pairs it with Token-serialized recovery, which only
// needs the lane to be connected.
func NewDragonfly(a, h int) (Graph, error) {
	if a < 1 || h < 1 {
		return nil, fmt.Errorf("topology: dragonfly needs a >= 1 routers/group and h >= 1 global ports, have a=%d h=%d", a, h)
	}
	groups := a*h + 1
	if a > 1<<8 || h > 1<<8 || groups > 1<<10 || groups*a > maxDigraphNodes {
		return nil, fmt.Errorf("topology: network too large")
	}
	nodes := groups * a
	return sharedDigraph(fmt.Sprintf("dragonfly-%dx%d", a, h), nodes, func() [][]int {
		degree := (a - 1) + h
		adj := make([][]int, nodes)
		for u := 0; u < groups; u++ {
			for r := 0; r < a; r++ {
				row := make([]int, degree)
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
	})
}

// MustDragonfly is NewDragonfly that panics on error.
func MustDragonfly(a, h int) Graph { return must(NewDragonfly(a, h)) }

// --- Fat tree ---------------------------------------------------------------

// NewFatTree constructs the k-ary fat tree's switch fabric (hosts are not
// modeled; the switches are the simulator's nodes): k pods of k/2 edge and
// k/2 aggregation switches plus (k/2)^2 core switches. Edge switch e of
// pod p is node p*k+e with ports 0..k/2-1 up to the pod's aggregations;
// aggregation a of pod p is node p*k+k/2+a with ports 0..k/2-1 down to the
// pod's edges and k/2..k-1 up to core group a; core switch j of group i is
// node k*k+i*(k/2)+j with port p down to pod p. Edge switches leave ports
// k/2..k-1 unconnected, like mesh boundary ports. All minimal routes are
// up-down, whose channel-dependency graph is acyclic.
func NewFatTree(k int) (Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat tree needs an even k >= 2, have %d", k)
	}
	if k > 1<<5 {
		return nil, fmt.Errorf("topology: network too large")
	}
	half := k / 2
	nodes := k*k + half*half
	return sharedDigraph("fattree-"+strconv.Itoa(k), nodes, func() [][]int {
		adj := make([][]int, nodes)
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
	})
}

// MustFatTree is NewFatTree that panics on error.
func MustFatTree(k int) Graph { return must(NewFatTree(k)) }

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
