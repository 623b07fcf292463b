package topology

import (
	"fmt"
	"strconv"
)

// identityLane is the recovery lane of the named classes and NewDigraph.
func identityLane(nodes int) []Node {
	lane := make([]Node, nodes)
	for i := range lane {
		lane[i] = Node(i)
	}
	return lane
}

// --- Full mesh and dragonfly -------------------------------------------------

// dragonfly is the canonical dragonfly(a, h); node u*a+r is router r of
// group u. A full mesh is its one group (h = 0).
type dragonfly struct {
	a, h, groups int
	name         string
}

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
	return &dragonfly{a: n, groups: 1, name: "fullmesh-" + strconv.Itoa(n)}, nil
}

// MustFullMesh is NewFullMesh that panics on error.
func MustFullMesh(n int) Graph { return must(NewFullMesh(n)) }

// NewDragonfly constructs the canonical maximally-sized dragonfly(a, h):
// g = a*h+1 groups of a routers each, every router with a-1 local ports
// (in-group all-to-all) and h global ports, exactly one global link
// between every pair of groups. Ports 0..a-2 are local; port a-1+k is the
// router's k-th global channel: router r of group u owns the group's
// channels r*h..r*h+h-1, and group channel c leads to group c, or c+1 when
// c >= u. A minimal path takes at most three hops, local-global-local unless
// two global hops through a third group are shorter: on dragonfly-2x2,
// router 1 reaches router 3 in two hops through group 2, where
// local-global-local takes three. Adaptive minimal routing on it generally
// needs VCs to avoid deadlock, so DISHA pairs it with Token-serialized
// recovery, which only needs the lane to be connected.
func NewDragonfly(a, h int) (Graph, error) {
	if a < 1 || h < 1 {
		return nil, fmt.Errorf("topology: dragonfly needs a >= 1 routers/group and h >= 1 global ports, have a=%d h=%d", a, h)
	}
	groups := a*h + 1
	if a > 1<<8 || h > 1<<8 || groups > 1<<10 || groups*a > maxNamedNodes {
		return nil, fmt.Errorf("topology: network too large")
	}
	return &dragonfly{a: a, h: h, groups: groups, name: fmt.Sprintf("dragonfly-%dx%d", a, h)}, nil
}

// MustDragonfly is NewDragonfly that panics on error.
func MustDragonfly(a, h int) Graph { return must(NewDragonfly(a, h)) }

func (d *dragonfly) Name() string         { return d.name }
func (d *dragonfly) Nodes() int           { return d.groups * d.a }
func (d *dragonfly) Degree() int          { return d.a - 1 + d.h }
func (d *dragonfly) RecoveryLane() []Node { return identityLane(d.Nodes()) }

// channel is group u's global channel toward group v (u != v).
func channel(u, v int) int {
	if v > u {
		return v - 1
	}
	return v
}

// across is the group that group u's channel c leads to.
func across(u, c int) int {
	if c >= u {
		return c + 1
	}
	return c
}

// link is Neighbor and ReversePortAt in one.
func (d *dragonfly) link(v Node, port int) (nb Node, rev int, ok bool) {
	if v < 0 || int(v) >= d.Nodes() || port < 0 || port >= d.Degree() {
		return 0, 0, false
	}
	u, r := int(v)/d.a, int(v)%d.a
	switch {
	case port < r: // local all-to-all: port p skips r, and so does the way back
		return Node(u*d.a + port), r - 1, true
	case port < d.a-1:
		return Node(u*d.a + port + 1), r, true
	}
	w := across(u, r*d.h+port-(d.a-1))
	c := channel(w, u)
	return Node(w*d.a + c/d.h), d.a - 1 + c%d.h, true
}

func (d *dragonfly) Neighbor(v Node, port int) (Node, bool) {
	nb, _, ok := d.link(v, port)
	return nb, ok
}

func (d *dragonfly) ReversePortAt(v Node, port int) (int, bool) {
	_, rev, ok := d.link(v, port)
	return rev, ok
}

// Distance is one hop inside a group; between groups the direct path's one
// to three hops (local to the gateway, global, local from the landing
// router), or two through a third group (throughThird).
func (d *dragonfly) Distance(from, to Node) int {
	if from < 0 || int(from) >= d.Nodes() || to < 0 || int(to) >= d.Nodes() {
		return -1
	}
	u, r := int(from)/d.a, int(from)%d.a
	w, s := int(to)/d.a, int(to)%d.a
	switch {
	case from == to:
		return 0
	case u == w:
		return 1
	}
	hops := 1
	if r != channel(u, w)/d.h {
		hops++
	}
	if s != channel(w, u)/d.h {
		hops++
	}
	if hops == 3 && d.throughThird(u, r, w, s) {
		return 2
	}
	return hops
}

// throughThird reports whether router r of group u reaches router s of
// group w by two global hops, through a group v. Router r's channels reach
// one range of groups and the channels landing on s come from another, so
// v lies in both and is neither u nor w: the ranges meet only for r and s
// within one of each other. The middle router, channel(v, u)/h, must also
// own channel(v, w), so u and w lie within h. Whether u and w lie below v
// decides whether each channel index is the group's or one less, so that
// condition is constant on each of the three stretches u and w cut the
// range into.
func (d *dragonfly) throughThird(u, r, w, s int) bool {
	h := d.h
	if r-s > 1 || s-r > 1 || u-w > h || w-u > h {
		return false
	}
	lo := max(across(u, r*h), across(w, s*h))
	hi := min(across(u, r*h+h-1), across(w, s*h+h-1))
	m1, m2 := min(u, w), max(u, w)
	same := func(x, y int) bool { return x/h == y/h }
	return lo <= min(hi, m1-1) && same(m1-1, m2-1) || // v below both
		max(lo, m1+1) <= min(hi, m2-1) && same(m1, m2-1) || // v between
		max(lo, m2+1) <= hi && same(m1, m2) // v above both
}

func (d *dragonfly) IsMinimal(from, to Node, port int) bool { return minimalHop(d, from, to, port) }

// minimalHop is IsMinimal from Distance: the port's neighbor is one hop
// closer to to.
func minimalHop(g Graph, from, to Node, port int) bool {
	nb, ok := g.Neighbor(from, port)
	return ok && from != to && g.Distance(nb, to) == g.Distance(from, to)-1
}

// --- Fat tree ---------------------------------------------------------------

// fatTree is the k-ary fat tree's switch fabric.
type fatTree struct {
	k, half int
	name    string
}

// Fat-tree switch levels, as place reports them.
const (
	edgeLevel = iota
	aggLevel
	coreLevel
)

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
	return &fatTree{k: k, half: k / 2, name: "fattree-" + strconv.Itoa(k)}, nil
}

// MustFatTree is NewFatTree that panics on error.
func MustFatTree(k int) Graph { return must(NewFatTree(k)) }

func (f *fatTree) Name() string         { return f.name }
func (f *fatTree) Nodes() int           { return f.k*f.k + f.half*f.half }
func (f *fatTree) Degree() int          { return f.k }
func (f *fatTree) RecoveryLane() []Node { return identityLane(f.Nodes()) }

// place returns switch v's level and its two indices: pod and index among
// the pod's edges or aggregations, or core group and index within it.
func (f *fatTree) place(v Node) (level, x, y int) {
	n := int(v)
	if n >= f.k*f.k {
		n -= f.k * f.k
		return coreLevel, n / f.half, n % f.half
	}
	if y = n % f.k; y < f.half {
		return edgeLevel, n / f.k, y
	}
	return aggLevel, n / f.k, y - f.half
}

// link is Neighbor and ReversePortAt in one.
func (f *fatTree) link(v Node, port int) (nb Node, rev int, ok bool) {
	if v < 0 || int(v) >= f.Nodes() || port < 0 || port >= f.k {
		return 0, 0, false
	}
	level, x, y := f.place(v)
	switch {
	case level == coreLevel: // down to aggregation x of pod port
		return Node(port*f.k + f.half + x), f.half + y, true
	case port >= f.half && level == edgeLevel: // unconnected
		return 0, 0, false
	case level == edgeLevel: // up to the pod's aggregations
		return Node(x*f.k + f.half + port), y, true
	case port < f.half: // aggregation, down to the pod's edges
		return Node(x*f.k + port), y, true
	}
	return Node(f.k*f.k + y*f.half + port - f.half), x, true // up to core group y
}

func (f *fatTree) Neighbor(v Node, port int) (Node, bool) {
	nb, _, ok := f.link(v, port)
	return nb, ok
}

func (f *fatTree) ReversePortAt(v Node, port int) (int, bool) {
	_, rev, ok := f.link(v, port)
	return rev, ok
}

// Distance is the up-down hop count. Links join aggregations to edges and
// cores, so distances from an aggregation to an edge or core are odd (1 when
// linked, else 3) and the others even (2 with a common neighbor, else 4).
func (f *fatTree) Distance(from, to Node) int {
	if from < 0 || int(from) >= f.Nodes() || to < 0 || int(to) >= f.Nodes() {
		return -1
	}
	if from == to {
		return 0
	}
	lf, xf, yf := f.place(from)
	lt, xt, yt := f.place(to)
	if lt == aggLevel {
		lf, xf, yf, lt, xt, yt = lt, xt, yt, lf, xf, yf
	}
	switch {
	case (lf == aggLevel) != (lt == aggLevel): // aggregation (pod xf, index yf)
		if lt == edgeLevel && xf == xt || lt == coreLevel && yf == xt {
			return 1
		}
		return 3
	// Pods and core groups share a neighbor when their first index matches;
	// two aggregations also when their index does; an edge and a core always.
	case lf == lt && xf == xt || lf == aggLevel && yf == yt || lf != lt:
		return 2
	}
	return 4
}

func (f *fatTree) IsMinimal(from, to Node, port int) bool { return minimalHop(f, from, to, port) }
