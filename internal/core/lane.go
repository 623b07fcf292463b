package core

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/topology"
)

// LaneRouting is a deterministic routing subfunction on an arbitrary
// digraph: the single next-hop output port a recovery-lane flit at cur
// takes toward dst, or ok=false when the subfunction supplies no hop.
// Generalizing the Deadlock Buffer lane's dimension-order routing to this
// shape is what lets the Lemma 1 / Mendlovic checks below run on any
// topology.Graph, not just cubes.
type LaneRouting func(cur, dst topology.Node) (port int, ok bool)

// DORLane adapts the cube Deadlock Buffer lane's dimension-order routing
// to the LaneRouting shape.
func DORLane(topo topology.Topology) LaneRouting {
	return func(cur, dst topology.Node) (int, bool) {
		return routing.DORPort(topo, cur, dst)
	}
}

// BFSLaneTableOver builds a per-destination next-hop table by reverse
// breadth-first search from every destination: entry [dst*nodes+cur] is the
// output port a lane flit at cur takes toward dst (-1 at cur == dst or when
// dst is unreachable). link reports where port p of node v leads — the
// neighbor nb and the port rev >= 0 at nb whose link lands back on v — or
// ok=false where v has no usable (paired, live) link on p. Ports are scanned
// in increasing order, so the table is deterministic. It is the only lane-
// table construction: BFSLaneTable runs it over a whole graph, and
// internal/network over the links still live after a reconfiguration.
func BFSLaneTableOver(nodes, deg int, link func(v topology.Node, p int) (nb topology.Node, rev int, ok bool)) []int32 {
	// Resolve every link once: the per-destination passes below then scan
	// flat arrays instead of calling out nodes times per link.
	nbr := make([]int32, nodes*deg) // -1 where link reports none
	back := make([]int32, nodes*deg)
	for i := range nbr {
		nbr[i] = -1
		if nb, rev, ok := link(topology.Node(i/deg), i%deg); ok {
			nbr[i], back[i] = int32(nb), int32(rev)
		}
	}
	table := make([]int32, nodes*nodes)
	for i := range table {
		table[i] = -1
	}
	queue := make([]int32, 0, nodes)
	for d := 0; d < nodes; d++ {
		row := table[d*nodes : (d+1)*nodes] // an entry >= 0 also marks its node visited
		queue = append(queue[:0], int32(d))
		for head := 0; head < len(queue); head++ {
			// A neighbor one hop "behind" v reaches dst through the port
			// whose link lands on v.
			v := int(queue[head])
			for l := v * deg; l < (v+1)*deg; l++ {
				nb := nbr[l]
				if nb < 0 || int(nb) == d || row[nb] >= 0 {
					continue
				}
				row[nb] = back[l]
				queue = append(queue, nb)
			}
		}
	}
	return table
}

// BFSLaneTable is BFSLaneTableOver on every paired link of g: the recovery
// lane of a topology without cube coordinates. It builds a fresh table;
// BFSLane is the one a digraph keeps.
func BFSLaneTable(g topology.Graph) []int32 {
	return BFSLaneTableOver(g.Nodes(), g.Degree(), func(v topology.Node, p int) (topology.Node, int, bool) {
		nb, ok := g.Neighbor(v, p)
		if !ok {
			return 0, 0, false
		}
		rev, ok := g.ReversePortAt(v, p)
		return nb, rev, ok
	})
}

// laneCarrier is a graph that keeps its own lane table: the digraphs.
type laneCarrier interface {
	LaneTable(build func() ([]int32, error)) ([]int32, error)
}

// BFSLane returns BFSLaneTable(g) with its Lemma 1 verdict
// (VerifyLaneConnected over it). A digraph keeps both, built on the first
// call, and hands every caller the same table, which must not be written
// into; any other graph gets a fresh table and walk.
func BFSLane(g topology.Graph) ([]int32, error) {
	build := func() ([]int32, error) {
		table := BFSLaneTable(g)
		return table, VerifyLaneConnected(g, TableLane(g, table))
	}
	if c, ok := g.(laneCarrier); ok {
		return c.LaneTable(build)
	}
	return build()
}

// TableLane wraps a BFSLaneTable-shaped per-destination next-hop table as
// a LaneRouting function.
func TableLane(g topology.Graph, table []int32) LaneRouting {
	nodes := g.Nodes()
	return func(cur, dst topology.Node) (int, bool) {
		p := table[int(dst)*nodes+int(cur)]
		if p < 0 {
			return 0, false
		}
		return int(p), true
	}
}

// VerifyLaneConnected is the generalized Lemma 1 check: the routing
// subfunction next delivers every (src, dst) pair — from any node, the
// declared lane reaches any destination. This is the whole deadlock-
// freedom requirement for a Token-serialized recovery lane (at most one
// packet occupies the lane at a time, so no cyclic wait can form on it,
// whatever the buffer model); concurrent use of per-channel lane buffers
// additionally needs the acyclicity half of VerifyDeadlockFree. The walk is
// bounded by the node count, so a lane that loops is reported as an error
// rather than hanging.
func VerifyLaneConnected(g topology.Graph, next LaneRouting) error {
	nodes := g.Nodes()
	for d := 0; d < nodes; d++ {
		dst := topology.Node(d)
		// reaches[v] caches "v's lane path reaches dst" so the per-
		// destination sweep is linear: each walk stops at the first node
		// already proven to reach dst.
		reaches := make([]bool, nodes)
		reaches[d] = true
		path := make([]topology.Node, 0, nodes)
		for s := 0; s < nodes; s++ {
			cur := topology.Node(s)
			path = path[:0]
			for !reaches[cur] {
				if len(path) > nodes {
					return fmt.Errorf("core: lane loops en route %d->%d", s, d)
				}
				path = append(path, cur)
				port, ok := next(cur, dst)
				if !ok {
					return fmt.Errorf("core: lane stuck at %d en route %d->%d", cur, s, d)
				}
				nb, ok := g.Neighbor(cur, port)
				if !ok {
					return fmt.Errorf("core: lane needs missing link at %d port %d (%d->%d)", cur, port, s, d)
				}
				cur = nb
			}
			for _, v := range path {
				reaches[v] = true
			}
		}
	}
	return nil
}

// BuildLaneCDG constructs the channel dependency graph induced by the
// deterministic routing subfunction next on g (Definition 7 restricted to
// the lane): walking every (src, dst) pair's lane path and recording
// consecutive channel pairs, all in one channel class. Unreachable or
// stuck pairs contribute nothing; VerifyLaneConnected reports those.
func BuildLaneCDG(g topology.Graph, next LaneRouting) *Graph {
	cdg := NewGraph()
	nodes := g.Nodes()
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			if s == d {
				continue
			}
			cur := topology.Node(s)
			dst := topology.Node(d)
			var prev Channel
			have := false
			for steps := 0; cur != dst && steps <= nodes; steps++ {
				port, ok := next(cur, dst)
				if !ok {
					break
				}
				nb, ok := g.Neighbor(cur, port)
				if !ok {
					break
				}
				ch := Channel{From: cur, Port: port}
				cdg.AddChannel(ch)
				if have {
					cdg.AddDep(prev, ch)
				}
				prev, have = ch, true
				cur = nb
			}
		}
	}
	return cdg
}

// VerifyDeadlockFree is the Mendlovic-Matias condition, the necessary and
// sufficient test for a deterministic routing function on an arbitrary
// digraph to be deadlock-free under unrestricted concurrent use: the
// subfunction is connected (generalized Lemma 1) and its channel
// dependency graph is acyclic. A returned error carries either the
// connectivity witness or the first dependency cycle found.
//
// The verdict holds for the buffer model the graph is built in: one buffer
// per channel (BuildLaneCDG keys resources by Channel{From, Port}). Disha's
// Deadlock Buffer is one central buffer per router and lane, shared by every
// input port, so a lane that passes here can still deadlock when several
// packets use one DB lane without the Token — mesh DOR does (two packets
// crossing between adjacent routers hold each other's next DB). Token-free
// use of a single DB lane needs the dependency graph over receiving routers
// to be acyclic instead.
func VerifyDeadlockFree(g topology.Graph, next LaneRouting) error {
	if err := VerifyLaneConnected(g, next); err != nil {
		return err
	}
	if cycle := BuildLaneCDG(g, next).FindCycle(); cycle != nil {
		return fmt.Errorf("core: lane dependency cycle %v on %s", cycle, g.Name())
	}
	return nil
}
