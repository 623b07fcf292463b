// Package topology models the direct interconnection networks used by the
// DISHA reproduction. Two layers of interface exist: Graph is the minimal
// directed-graph contract every topology satisfies (nodes, directed ports,
// per-link reverse ports, distances, a declared recovery lane), and
// Topology extends it with the coordinate geometry of k-ary n-cubes (tori,
// meshes, hypercubes) that coordinate-based routing algorithms and traffic
// patterns require. Beyond the cubes, the package provides full-mesh,
// dragonfly, and fat-tree constructors built on a generic digraph base.
//
// Cube port numbering convention: a node with n dimensions has 2n network
// ports; port 2*d is the positive direction of dimension d and port 2*d+1
// the negative direction. Non-cube topologies number ports densely per
// node with no global direction meaning; use Graph.ReversePortAt to find
// the paired port of a link. Injection and reception channels are modeled
// by internal/router and are not ports of the topology.
package topology

import (
	"fmt"
	"strings"
)

// Node identifies a router/processing node; valid values are [0, Nodes()).
type Node int

// Coord is a per-dimension coordinate vector for a node.
type Coord []int

// Clone returns a copy of the coordinate vector.
func (c Coord) Clone() Coord {
	out := make(Coord, len(c))
	copy(out, c)
	return out
}

// Equal reports whether two coordinate vectors are identical.
func (c Coord) Equal(o Coord) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the coordinate as "(x,y,...)".
func (c Coord) String() string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// PortDim returns the dimension a network port travels in.
func PortDim(port int) int { return port / 2 }

// PortSign returns +1 for a positive-direction port and -1 for negative.
func PortSign(port int) int {
	if port%2 == 0 {
		return 1
	}
	return -1
}

// PortFor returns the port moving in the given sign (+1/-1) of dimension d.
func PortFor(d, sign int) int {
	if sign > 0 {
		return 2 * d
	}
	return 2*d + 1
}

// ReversePort returns the port on the neighboring node that points back
// along the same physical link, for the cube port-numbering convention
// only (port 2d = +dim d, port 2d+1 = -dim d, so the pair is port^1).
// General graphs have no such global rule; use Graph.ReversePortAt.
func ReversePort(port int) int { return port ^ 1 }

// Graph is the minimal read-only directed-graph interface the simulator
// needs from a network. Implementations must be immutable after
// construction. Coordinate-based consumers (DOR-family routing, geometric
// traffic patterns) additionally require the Topology extension; assert
// with Coordinated.
type Graph interface {
	// Name returns a short human-readable description, e.g. "torus-16x16".
	Name() string
	// Nodes returns the number of nodes.
	Nodes() int
	// Degree returns the number of network ports per node. Some ports may
	// be unconnected (mesh boundaries, fat-tree edge switches); see
	// Neighbor.
	Degree() int
	// Neighbor returns the node reached from n via port, and whether the
	// link exists.
	Neighbor(n Node, port int) (Node, bool)
	// ReversePortAt returns the port on Neighbor(n, port) whose link points
	// back at n — the input port a flit sent from n via port arrives on —
	// and whether such a paired reverse port exists. A directed link with
	// no antiparallel twin reports false.
	ReversePortAt(n Node, port int) (int, bool)
	// MinimalPorts returns the set of output ports at from that lie on some
	// minimal path to to. Empty iff from == to (or to is unreachable).
	MinimalPorts(from, to Node) []int
	// IsMinimal reports whether taking port at from lies on some minimal
	// path to to — the allocation-free membership test for MinimalPorts,
	// which routing hot paths use: iterating ports in numeric order and
	// filtering with IsMinimal yields exactly MinimalPorts' sequence.
	IsMinimal(from, to Node, port int) bool
	// Distance returns the minimal hop count between two nodes, or -1 when
	// to is unreachable from from.
	Distance(from, to Node) int
	// RecoveryLane returns the topology's declared deadlock-recovery
	// visiting order: every node exactly once. Sequential (Token) recovery
	// circulates it over a dedicated hardwired control path, so any
	// permutation works; concurrent recovery routes Deadlock Buffer flits
	// monotonically along it, so consecutive lane nodes must then be
	// physically linked. internal/network validates the declared lane
	// against the recovery mode at construction time.
	RecoveryLane() []Node
}

// Topology extends Graph with the coordinate geometry of k-ary n-cubes.
// Coordinate-based routing algorithms (DOR, negative-first, Dally-Aoki,
// Duato) and geometric traffic patterns (transpose, complement, tornado)
// require this interface; everything else in the simulator runs on Graph.
type Topology interface {
	Graph
	// Dims returns the number of dimensions n.
	Dims() int
	// Radix returns the radix (number of nodes) of dimension d.
	Radix(d int) int
	// Coord returns the coordinate vector of a node.
	Coord(Node) Coord
	// NodeAt returns the node with the given coordinates. It panics on a
	// malformed coordinate; NodeAtChecked is the error-returning form.
	NodeAt(Coord) Node
	// CrossesDateline reports whether taking port at node n traverses the
	// torus dateline of the port's dimension (always false on a mesh).
	// Deadlock-avoidance baselines use this to switch VC classes.
	CrossesDateline(n Node, port int) bool
	// Wrap reports whether the topology has wraparound links (torus).
	Wrap() bool
}

// Coordinated reports whether g carries cube coordinate geometry,
// returning the Topology view when it does. Callers that need Coord/
// NodeAt/dateline information gate on this instead of type-asserting
// inline.
func Coordinated(g Graph) (Topology, bool) {
	t, ok := g.(Topology)
	return t, ok
}

// NodeAtChecked is the error-returning form of Topology.NodeAt: it
// validates the coordinate's dimensionality and per-dimension range and
// returns an error instead of panicking on malformed input. Use it on
// paths fed by external input (CLI flags, network requests, fuzzers).
func NodeAtChecked(t Topology, co Coord) (Node, error) {
	if len(co) != t.Dims() {
		return 0, fmt.Errorf("topology: coordinate %v has %d dimensions; %s has %d", co, len(co), t.Name(), t.Dims())
	}
	for d, x := range co {
		if x < 0 || x >= t.Radix(d) {
			return 0, fmt.Errorf("topology: coordinate %v out of range in dimension %d (radix %d)", co, d, t.Radix(d))
		}
	}
	return t.NodeAt(co), nil
}

// cube implements both torus and mesh k-ary n-cube topologies.
type cube struct {
	radix  []int
	stride []int // mixed-radix strides: stride[d] = product of radix[0..d-1]
	nodes  int
	wrap   bool
	name   string
}

// NewTorus constructs a k-ary n-cube with wraparound links. radix gives the
// number of nodes per dimension (len(radix) = n). Every radix must be >= 2.
func NewTorus(radix ...int) (Topology, error) { return newCube(true, radix) }

// NewMesh constructs a k-ary n-cube without wraparound links.
func NewMesh(radix ...int) (Topology, error) { return newCube(false, radix) }

// must returns g, or panics with err: the Must constructors' shared body.
func must[G any](g G, err error) G {
	if err != nil {
		panic(err)
	}
	return g
}

// MustTorus is NewTorus that panics on error; convenient in tests/examples.
func MustTorus(radix ...int) Topology { return must(NewTorus(radix...)) }

// MustMesh is NewMesh that panics on error.
func MustMesh(radix ...int) Topology { return must(NewMesh(radix...)) }

// NewHypercube constructs the n-dimensional binary hypercube: a 2-ary
// n-cube without wraparounds (each dimension has exactly two nodes joined
// by one full-duplex link, so only one port per dimension is wired). The
// paper's adaptive-routing lineage (Gaughan & Yalamanchili) targets
// hypercubes; Disha applies unchanged.
func NewHypercube(dims int) (Topology, error) {
	if dims < 1 {
		return nil, fmt.Errorf("topology: hypercube needs at least one dimension")
	}
	radix := make([]int, dims)
	for i := range radix {
		radix[i] = 2
	}
	t, err := newCube(false, radix)
	if err != nil {
		return nil, err
	}
	t.(*cube).name = "hypercube-" + fmt.Sprint(dims)
	return t, nil
}

// MustHypercube is NewHypercube that panics on error.
func MustHypercube(dims int) Topology { return must(NewHypercube(dims)) }

func newCube(wrap bool, radix []int) (Topology, error) {
	if len(radix) == 0 {
		return nil, fmt.Errorf("topology: need at least one dimension")
	}
	nodes := 1
	for d, k := range radix {
		if k < 2 {
			return nil, fmt.Errorf("topology: dimension %d has radix %d; need >= 2", d, k)
		}
		// Bound the product before multiplying: a single huge radix must be
		// rejected here, not explode the allocation below (or overflow int).
		if k > 1<<20 || nodes > (1<<20)/k {
			return nil, fmt.Errorf("topology: network too large")
		}
		nodes *= k
	}
	stride := make([]int, len(radix))
	s := 1
	for d := range radix {
		stride[d] = s
		s *= radix[d]
	}
	kind := "mesh"
	if wrap {
		kind = "torus"
	}
	parts := make([]string, len(radix))
	for i, k := range radix {
		parts[i] = fmt.Sprint(k)
	}
	c := &cube{
		radix:  append([]int(nil), radix...),
		stride: stride,
		nodes:  nodes,
		wrap:   wrap,
		name:   kind + "-" + strings.Join(parts, "x"),
	}
	return c, nil
}

func (c *cube) Name() string    { return c.name }
func (c *cube) Nodes() int      { return c.nodes }
func (c *cube) Dims() int       { return len(c.radix) }
func (c *cube) Radix(d int) int { return c.radix[d] }
func (c *cube) Degree() int     { return 2 * len(c.radix) }
func (c *cube) Wrap() bool      { return c.wrap }

func (c *cube) Coord(n Node) Coord {
	co := make(Coord, len(c.radix))
	v := int(n)
	for d, k := range c.radix {
		co[d] = v % k
		v /= k
	}
	return co
}

// NodeAt panics on a malformed coordinate, as documented on Topology;
// NodeAtChecked is the error-returning form for external-input paths.
func (c *cube) NodeAt(co Coord) Node {
	if len(co) != len(c.radix) {
		panic(fmt.Sprintf("topology: coordinate %v has wrong dimensionality", co))
	}
	v := 0
	for d, x := range co {
		if x < 0 || x >= c.radix[d] {
			panic(fmt.Sprintf("topology: coordinate %v out of range", co))
		}
		v += x * c.stride[d]
	}
	return Node(v)
}

// ReversePortAt follows the cube convention: the paired port of 2d is
// 2d+1 and vice versa, whenever the link exists.
func (c *cube) ReversePortAt(n Node, port int) (int, bool) {
	if _, ok := c.Neighbor(n, port); !ok {
		return 0, false
	}
	return ReversePort(port), true
}

func (c *cube) Neighbor(n Node, port int) (Node, bool) {
	if port < 0 {
		return 0, false
	}
	d := PortDim(port)
	if d >= len(c.radix) {
		return 0, false
	}
	k := c.radix[d]
	x := (int(n) / c.stride[d]) % k
	var nx int
	if PortSign(port) > 0 {
		nx = x + 1
		if nx == k {
			if !c.wrap {
				return 0, false
			}
			nx = 0
		}
	} else {
		nx = x - 1
		if nx < 0 {
			if !c.wrap {
				return 0, false
			}
			nx = k - 1
		}
	}
	return Node(int(n) + (nx-x)*c.stride[d]), true
}

// dimOffset returns, for dimension d, the signed minimal offsets available.
// On a torus it can return two entries when both directions are equally
// minimal (offset exactly half the radix on an even ring).
func (c *cube) dimSigns(from, to Node, d int) (signs [2]int, count, dist int) {
	k := c.radix[d]
	fx := (int(from) / c.stride[d]) % k
	tx := (int(to) / c.stride[d]) % k
	if fx == tx {
		return signs, 0, 0
	}
	if !c.wrap {
		if tx > fx {
			signs[0] = 1
			return signs, 1, tx - fx
		}
		signs[0] = -1
		return signs, 1, fx - tx
	}
	fwd := tx - fx
	if fwd < 0 {
		fwd += k
	}
	bwd := k - fwd
	switch {
	case fwd < bwd:
		signs[0] = 1
		return signs, 1, fwd
	case bwd < fwd:
		signs[0] = -1
		return signs, 1, bwd
	default: // equidistant on an even ring: both directions minimal
		signs[0], signs[1] = 1, -1
		return signs, 2, fwd
	}
}

func (c *cube) MinimalPorts(from, to Node) []int {
	if from == to {
		return nil
	}
	ports := make([]int, 0, c.Degree())
	for d := range c.radix {
		signs, count, _ := c.dimSigns(from, to, d)
		for i := 0; i < count; i++ {
			ports = append(ports, PortFor(d, signs[i]))
		}
	}
	return ports
}

func (c *cube) IsMinimal(from, to Node, port int) bool {
	d := PortDim(port)
	if d >= len(c.radix) {
		return false
	}
	signs, count, _ := c.dimSigns(from, to, d)
	s := PortSign(port)
	for i := 0; i < count; i++ {
		if signs[i] == s {
			return true
		}
	}
	return false
}

func (c *cube) Distance(from, to Node) int {
	total := 0
	for d := range c.radix {
		_, _, dist := c.dimSigns(from, to, d)
		total += dist
	}
	return total
}

func (c *cube) CrossesDateline(n Node, port int) bool {
	if !c.wrap {
		return false
	}
	d := PortDim(port)
	k := c.radix[d]
	x := (int(n) / c.stride[d]) % k
	if PortSign(port) > 0 {
		return x == k-1
	}
	return x == 0
}

// RecoveryLane for cubes is a boustrophedon (snake) order: consecutive nodes
// differ in exactly one coordinate by one, so it is a Hamiltonian path of the
// mesh (and of the torus, which has the mesh's links plus wraparounds) and
// serves sequential and concurrent recovery alike. The golden digests pin it.
func (c *cube) RecoveryLane() []Node {
	order := make([]Node, 0, c.nodes)
	for i := 0; i < c.nodes; i++ {
		order = append(order, c.NodeAt(snakeCoord(i, c.radix)))
	}
	return order
}

// snakeCoord maps a linear index to a boustrophedon coordinate via a
// reflected mixed-radix code: digit d scans forward when the quotient of
// more-significant digits is even and backward when odd.
func snakeCoord(i int, radix []int) Coord {
	co := make(Coord, len(radix))
	for d := 0; d < len(radix); d++ {
		k := radix[d]
		digit := i % k
		i /= k
		if i%2 == 1 { // odd progress of higher digits: reflect this digit
			digit = k - 1 - digit
		}
		co[d] = digit
	}
	return co
}
