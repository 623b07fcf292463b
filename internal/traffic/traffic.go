// Package traffic implements the workload generators used in the paper's
// evaluation — uniform, bit-reversal, matrix-transpose and hot-spot traffic —
// plus several standard patterns (complement, tornado, bit-shuffle, nearest
// neighbor) used by the extension benchmarks.
//
// It also provides the load normalization the paper uses: "Load-Rate is a
// fraction of full load, defined as the load at which all channels in the
// network are used simultaneously (maximum network capacity)." Full load for
// a pattern is derived from the exact expected minimal hop count of that
// pattern on the given topology.
package traffic

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Pattern maps a source node to a destination node. Deterministic patterns
// ignore the RNG. A pattern may return dst == src (e.g. transpose diagonal
// nodes); callers skip such packets, matching the paper's simulators.
type Pattern interface {
	Name() string
	Dest(src topology.Node, r *sim.RNG) topology.Node
}

// --- Uniform ---------------------------------------------------------------

type uniform struct {
	topo topology.Graph
}

// NewUniform returns a pattern that sends each packet to a destination
// chosen uniformly among all other nodes. It errors on a topology with
// fewer than two nodes, where no such destination exists (Dest would
// otherwise panic in Intn(0)).
func NewUniform(topo topology.Graph) (Pattern, error) {
	if topo.Nodes() < 2 {
		return nil, fmt.Errorf("traffic: uniform needs at least 2 nodes, have %d", topo.Nodes())
	}
	return uniform{topo}, nil
}

// Uniform is NewUniform for topologies known to have at least two nodes; it
// panics otherwise.
func Uniform(topo topology.Graph) Pattern {
	p, err := NewUniform(topo)
	if err != nil {
		panic(err)
	}
	return p
}

func (uniform) Name() string { return "uniform" }

func (u uniform) Dest(src topology.Node, r *sim.RNG) topology.Node {
	n := u.topo.Nodes()
	d := topology.Node(r.Intn(n - 1))
	if d >= src {
		d++
	}
	return d
}

// --- Bit reversal ----------------------------------------------------------

type bitReversal struct {
	topo topology.Graph
	bits int
}

// BitReversal sends from the node with binary address a_{b-1}..a_0 to the
// node with address a_0..a_{b-1}. The node count must be a power of two.
func BitReversal(topo topology.Graph) (Pattern, error) {
	bits, ok := log2(topo.Nodes())
	if !ok {
		return nil, fmt.Errorf("traffic: bit-reversal needs a power-of-two node count, have %d", topo.Nodes())
	}
	return bitReversal{topo, bits}, nil
}

func (bitReversal) Name() string { return "bit-reversal" }

func (p bitReversal) Dest(src topology.Node, _ *sim.RNG) topology.Node {
	v := uint(src)
	var out uint
	for i := 0; i < p.bits; i++ {
		out = out<<1 | v&1
		v >>= 1
	}
	return topology.Node(out)
}

// --- Matrix transpose ------------------------------------------------------

type transpose struct {
	topo topology.Topology
}

// Transpose sends from (x, y) to (y, x). The topology must be 2-dimensional
// and square.
func Transpose(topo topology.Topology) (Pattern, error) {
	if topo.Dims() != 2 || topo.Radix(0) != topo.Radix(1) {
		return nil, fmt.Errorf("traffic: transpose needs a square 2D network, have %s", topo.Name())
	}
	return transpose{topo}, nil
}

func (transpose) Name() string { return "transpose" }

// Dest swaps the two digits of src's mixed-radix id (see
// topology.Topology.CoordAt), which allocates nothing.
func (p transpose) Dest(src topology.Node, _ *sim.RNG) topology.Node {
	x, y := p.topo.CoordAt(src, 0), p.topo.CoordAt(src, 1)
	return topology.Node(y + x*p.topo.Radix(0))
}

// --- Hot spot ---------------------------------------------------------------

type hotSpot struct {
	base     Pattern
	spot     topology.Node
	fraction float64
	name     string
}

// NewHotSpot returns a pattern directing fraction of all traffic (e.g. 0.05
// for the paper's 5%) to a single fixed hot node; the remainder follows
// base. The paper selects the hot node at random; pass any node here and
// let the harness randomize. It errors when base is nil or fraction lies
// outside [0, 1] (Bernoulli would silently clamp, misreporting the offered
// hot-spot load).
func NewHotSpot(base Pattern, spot topology.Node, fraction float64) (Pattern, error) {
	if base == nil {
		return nil, fmt.Errorf("traffic: hot-spot needs a base pattern")
	}
	if fraction < 0 || fraction > 1 || fraction != fraction {
		return nil, fmt.Errorf("traffic: hot-spot fraction %g outside [0, 1]", fraction)
	}
	return hotSpot{
		base:     base,
		spot:     spot,
		fraction: fraction,
		name:     fmt.Sprintf("hotspot-%g%%-%s", fraction*100, base.Name()),
	}, nil
}

// HotSpot is NewHotSpot for arguments known to be valid; it panics
// otherwise.
func HotSpot(base Pattern, spot topology.Node, fraction float64) Pattern {
	p, err := NewHotSpot(base, spot, fraction)
	if err != nil {
		panic(err)
	}
	return p
}

func (p hotSpot) Name() string { return p.name }

func (p hotSpot) Dest(src topology.Node, r *sim.RNG) topology.Node {
	if r.Bernoulli(p.fraction) {
		return p.spot
	}
	return p.base.Dest(src, r)
}

// --- Complement ------------------------------------------------------------

type complement struct {
	topo topology.Topology
}

// Complement sends from coordinates (a_0, ..) to (k_0-1-a_0, ..): the node
// diagonally opposite in every dimension.
func Complement(topo topology.Topology) Pattern { return complement{topo} }

func (complement) Name() string { return "complement" }

// Dest complements every digit of src's mixed-radix id (see
// topology.Topology.CoordAt), which is the largest id minus src.
func (p complement) Dest(src topology.Node, _ *sim.RNG) topology.Node {
	return topology.Node(p.topo.Nodes()-1) - src
}

// --- Tornado ----------------------------------------------------------------

type tornado struct {
	topo topology.Topology
}

// Tornado sends from (x, ...) to ((x + ceil(k/2) - 1) mod k, ...) in
// dimension 0 only — the classic adversarial torus pattern that stresses
// one-direction links.
func Tornado(topo topology.Topology) Pattern { return tornado{topo} }

func (tornado) Name() string { return "tornado" }

// Dest moves the least significant digit of src's mixed-radix id (see
// topology.Topology.CoordAt), which allocates nothing.
func (p tornado) Dest(src topology.Node, _ *sim.RNG) topology.Node {
	x, k := p.topo.CoordAt(src, 0), p.topo.Radix(0)
	return src - topology.Node(x) + topology.Node((x+(k+1)/2-1)%k)
}

// --- Bit shuffle -------------------------------------------------------------

type shuffle struct {
	topo topology.Graph
	bits int
}

// BitShuffle sends node a_{b-1}..a_0 to a_{b-2}..a_0,a_{b-1} (rotate left).
// The node count must be a power of two.
func BitShuffle(topo topology.Graph) (Pattern, error) {
	bits, ok := log2(topo.Nodes())
	if !ok {
		return nil, fmt.Errorf("traffic: bit-shuffle needs a power-of-two node count, have %d", topo.Nodes())
	}
	return shuffle{topo, bits}, nil
}

func (shuffle) Name() string { return "bit-shuffle" }

func (p shuffle) Dest(src topology.Node, _ *sim.RNG) topology.Node {
	v := uint(src)
	top := v >> (p.bits - 1) & 1
	return topology.Node((v<<1 | top) & (1<<p.bits - 1))
}

// --- Nearest neighbor --------------------------------------------------------

type neighbor struct {
	topo topology.Topology
}

// Neighbor sends each packet one hop in the positive direction of dimension
// 0 (wrapping on a torus, reflecting at a mesh edge).
func Neighbor(topo topology.Topology) Pattern { return neighbor{topo} }

func (neighbor) Name() string { return "neighbor" }

func (p neighbor) Dest(src topology.Node, _ *sim.RNG) topology.Node {
	if nb, ok := p.topo.Neighbor(src, topology.PortFor(0, 1)); ok {
		return nb
	}
	nb, _ := p.topo.Neighbor(src, topology.PortFor(0, -1))
	return nb
}

// --- Names --------------------------------------------------------------------

// patterns is the one table of traffic pattern names: what -traffic accepts
// and what Name() prints (hotspot's Name() also carries its fraction and
// base). cube marks the patterns defined on k-ary n-cube coordinates.
var patterns = []struct {
	name  string
	cube  bool
	build func(g topology.Graph, t topology.Topology, hot float64) (Pattern, error)
}{
	{"uniform", false, func(g topology.Graph, _ topology.Topology, _ float64) (Pattern, error) { return NewUniform(g) }},
	{"bit-reversal", false, func(g topology.Graph, _ topology.Topology, _ float64) (Pattern, error) { return BitReversal(g) }},
	{"transpose", true, func(_ topology.Graph, t topology.Topology, _ float64) (Pattern, error) { return Transpose(t) }},
	{"hotspot", false, func(g topology.Graph, _ topology.Topology, hot float64) (Pattern, error) {
		base, err := NewUniform(g)
		if err != nil {
			return nil, err
		}
		return NewHotSpot(base, topology.Node(g.Nodes()/3), hot)
	}},
	{"complement", true, func(_ topology.Graph, t topology.Topology, _ float64) (Pattern, error) { return Complement(t), nil }},
	{"tornado", true, func(_ topology.Graph, t topology.Topology, _ float64) (Pattern, error) { return Tornado(t), nil }},
	{"bit-shuffle", false, func(g topology.Graph, _ topology.Topology, _ float64) (Pattern, error) { return BitShuffle(g) }},
	{"neighbor", true, func(_ topology.Graph, t topology.Topology, _ float64) (Pattern, error) { return Neighbor(t), nil }},
}

// ByName builds the named pattern on g. hotspotFraction applies to "hotspot"
// only: that share of all traffic goes to node Nodes()/3 over a uniform
// background. An unknown name, a pattern g cannot carry or an out-of-range
// fraction is an error.
func ByName(name string, g topology.Graph, hotspotFraction float64) (Pattern, error) {
	for _, row := range patterns {
		if row.name != name {
			continue
		}
		var t topology.Topology
		if row.cube {
			var err error
			if t, err = Cube(g, name+" traffic"); err != nil {
				return nil, fmt.Errorf("%w (try uniform or bit-reversal)", err)
			}
		}
		return row.build(g, t, hotspotFraction)
	}
	return nil, fmt.Errorf("traffic: unknown pattern %q (want %s)", name, strings.Join(Names(), ", "))
}

// Names lists the patterns ByName accepts.
func Names() []string {
	out := make([]string, len(patterns))
	for i, row := range patterns {
		out[i] = row.name
	}
	return out
}

// Cube returns g's coordinate view, or the one "needs cube coordinates"
// error, naming who asked, when g is a coordinate-free graph.
func Cube(g topology.Graph, who string) (topology.Topology, error) {
	t, ok := topology.Coordinated(g)
	if !ok {
		return nil, fmt.Errorf("traffic: %s needs cube coordinates, which %s does not have", who, g.Name())
	}
	return t, nil
}

func log2(n int) (int, bool) {
	if n <= 0 || n&(n-1) != 0 {
		return 0, false
	}
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b, true
}
