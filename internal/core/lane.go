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

// LaneRows returns the builder of the Deadlock Buffer lanes' next-hop rows
// over a wiring table: row(dst, r) fills r[lane*nodes+cur] with the output
// port a flit in lane at cur takes toward dst (-1 at cur == dst or where the
// lane cannot reach dst), by reverse breadth-first search from dst over the
// (lane, node) states, ports in increasing order. Port p of node v is entry
// v*deg+p of nbr, the neighbor its link reaches, and of rev, the port there
// whose link lands back on v; v has a usable (paired, live) link on p where
// both are >= 0. The builder reads the tables when it builds a row, so they
// must not change while its rows are in use: a network passes its routers'
// own wiring (router.State.Wiring) and calls LaneRows again, emptying its
// row memo, whenever a link fails or heals. LinkTable builds the tables
// from a function that reports the links.
//
// One lane (Token-serialized recovery) takes any link. Two lanes (concurrent
// recovery) are its ascend-then-descend case, up*/down* over the labels
// returned (nil with one lane): nodes are labelled by reverse breadth-first
// order from the lowest node of each component, so the root is highest and
// every other node has a higher-labelled neighbor, its parent. Lane 0 only
// climbs and lane 1 only descends: a hop to a lower label enters lane 1, and
// nothing goes back. So each lane's buffer dependencies follow the labels,
// the one crossing is one-way, and a flit in lane 0 reaches every node of
// its component by climbing to the root and descending the root's tree.
// This is the only lane construction: internal/network memoises the rows it
// needs over its live links, BFSLaneTableOver gathers every one-lane row.
func LaneRows[R int8 | int16](nodes, deg, lanes int, nbr []int32, rev []R) (label []int32, row func(dst topology.Node, row []int16)) {
	// linked is port i's neighbor where it has a usable link, else -1.
	linked := func(i int) int32 {
		if rev[i] < 0 {
			return -1
		}
		return nbr[i]
	}
	queue := make([]int32, 0, lanes*nodes)
	if lanes == 2 {
		label = make([]int32, nodes) // 0 until labelled, then nodes down to 1
		next := int32(nodes)
		for root := range nodes {
			if label[root] != 0 {
				continue
			}
			label[root], next = next, next-1
			queue = append(queue[:0], int32(root))
			for head := 0; head < len(queue); head++ {
				v := int(queue[head])
				for i := v * deg; i < (v+1)*deg; i++ {
					if nb := linked(i); nb >= 0 && label[nb] == 0 {
						label[nb], next = next, next-1
						queue = append(queue, nb)
					}
				}
			}
		}
	}
	return label, func(dst topology.Node, row []int16) {
		for i := range row {
			row[i] = -1 // an entry >= 0 also marks its state visited
		}
		queue = queue[:0]
		for l := range lanes {
			queue = append(queue, int32(l*nodes+int(dst)))
		}
		for head := 0; head < len(queue); head++ {
			// A neighbor one hop "behind" (l, v) reaches dst through the
			// port whose link lands on v, if that hop enters lane l: from
			// lane l, or from lane 0 into lane 1.
			l, v := int(queue[head])/nodes, int(queue[head])%nodes
			for i := v * deg; i < (v+1)*deg; i++ {
				nb := linked(i)
				if nb < 0 || nb == int32(dst) || (label != nil && label[v] < label[nb]) != (l == 1) {
					continue
				}
				for from := 0; from <= l; from++ {
					if s := from*nodes + int(nb); row[s] < 0 {
						row[s] = int16(rev[i])
						queue = append(queue, int32(s))
					}
				}
			}
		}
	}
}

// LinkTable is LaneRows' wiring tables of the links link reports: where
// port p of node v leads — the neighbor nb and the port rev >= 0 at nb whose
// link lands back on v — or ok=false where v has no usable (paired, live)
// link on p. A port fits an int16, as a row entry does.
func LinkTable(nodes, deg int, link func(v topology.Node, p int) (nb topology.Node, rev int, ok bool)) (nbr []int32, rev []int16) {
	nbr, rev = make([]int32, nodes*deg), make([]int16, nodes*deg)
	for i := range nbr {
		nbr[i], rev[i] = -1, -1
		if nb, back, ok := link(topology.Node(i/deg), i%deg); ok {
			nbr[i], rev[i] = int32(nb), int16(back)
		}
	}
	return nbr, rev
}

// BFSLaneTableOver is every row of one-lane LaneRows over LinkTable(nodes,
// deg, link) in one per-destination table: entry [dst*nodes+cur] is row
// dst's entry cur.
func BFSLaneTableOver(nodes, deg int, link func(v topology.Node, p int) (nb topology.Node, rev int, ok bool)) []int16 {
	nbr, rev := LinkTable(nodes, deg, link)
	_, row := LaneRows(nodes, deg, 1, nbr, rev)
	table := make([]int16, nodes*nodes)
	for d := 0; d < nodes; d++ {
		row(topology.Node(d), table[d*nodes:(d+1)*nodes])
	}
	return table
}

// BFSLaneTable is BFSLaneTableOver on every paired link of g: the whole
// recovery-lane table of a topology without cube coordinates, nodes² int16s.
// Networks never build it; tests and the analysis tools compare against it.
func BFSLaneTable(g topology.Graph) []int16 {
	return BFSLaneTableOver(g.Nodes(), g.Degree(), func(v topology.Node, p int) (topology.Node, int, bool) {
		nb, ok := g.Neighbor(v, p)
		if !ok {
			return 0, 0, false
		}
		rev, ok := g.ReversePortAt(v, p)
		return nb, rev, ok
	})
}

// TableLane wraps a BFSLaneTable-shaped per-destination next-hop table as
// a LaneRouting function.
func TableLane(g topology.Graph, table []int16) LaneRouting {
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
// rather than hanging. No network runs this O(nodes²) walk: network.New
// checks the O(links) facts its lanes deliver by, and the tests hold them
// to this oracle.
func VerifyLaneConnected(g topology.Graph, next LaneRouting) error {
	nodes := g.Nodes()
	// reaches[v] caches "v's lane path reaches dst" so the per-destination
	// sweep is linear: each walk stops at the first node already proven to
	// reach dst.
	reaches := make([]bool, nodes)
	path := make([]topology.Node, 0, nodes)
	for d := 0; d < nodes; d++ {
		dst := topology.Node(d)
		clear(reaches)
		reaches[d] = true
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
