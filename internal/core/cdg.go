// Package core makes the DISHA paper's deadlock theory executable. It
// provides:
//
//   - channel dependency graphs (Definitions 5-8 of the paper's appendix)
//     with cycle detection, used to verify that the avoidance baselines'
//     deterministic/escape subfunctions are acyclic while Disha's true fully
//     adaptive routing is cyclic — the premise that makes recovery necessary;
//   - the Deadlock Buffer lane checks behind Lemma 1 (the recovery routing
//     subfunction is connected) and Assumption 3 (it is minimal);
//   - a runtime wait-for-graph analyzer that finds true deadlocked
//     configurations (Definition 10) in a live network, used to characterize
//     how often presumed deadlocks are real (Figure 3a's ground truth).
package core

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/topology"
)

// Channel identifies one unidirectional virtual channel: the output channel
// of node From through Port, class/virtual-channel index VC.
type Channel struct {
	From topology.Node
	Port int
	VC   int
}

// String renders the channel as ch(from:pPort:vVC) for cycle reports.
func (c Channel) String() string {
	return fmt.Sprintf("ch(%d:p%d:v%d)", c.From, c.Port, c.VC)
}

// Graph is a channel dependency graph (Definition 7): vertices are channels
// and arcs are direct dependencies — c_j can be used immediately after c_i
// by some packet.
type Graph struct {
	adj map[Channel]map[Channel]struct{}
}

// NewGraph returns an empty dependency graph.
func NewGraph() *Graph {
	return &Graph{adj: make(map[Channel]map[Channel]struct{})}
}

// AddChannel ensures a vertex exists (used for channels with no outgoing
// dependencies).
func (g *Graph) AddChannel(c Channel) {
	if _, ok := g.adj[c]; !ok {
		g.adj[c] = make(map[Channel]struct{})
	}
}

// AddDep records a direct dependency from a to b.
func (g *Graph) AddDep(a, b Channel) {
	g.AddChannel(a)
	g.AddChannel(b)
	g.adj[a][b] = struct{}{}
}

// Channels returns the number of vertices.
func (g *Graph) Channels() int { return len(g.adj) }

// Deps returns the number of arcs.
func (g *Graph) Deps() int {
	n := 0
	for _, out := range g.adj {
		n += len(out)
	}
	return n
}

// HasDep reports whether the dependency a -> b exists.
func (g *Graph) HasDep(a, b Channel) bool {
	out, ok := g.adj[a]
	if !ok {
		return false
	}
	_, ok = out[b]
	return ok
}

// FindCycle returns a witness cycle of channels (first element repeated at
// the end) or nil if the graph is acyclic. Detection is iterative DFS with
// tricolor marking, so it handles graphs of any depth.
func (g *Graph) FindCycle() []Channel {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[Channel]int, len(g.adj))
	parent := make(map[Channel]Channel, len(g.adj))

	for start := range g.adj {
		if color[start] != white {
			continue
		}
		type frame struct {
			ch   Channel
			succ []Channel
			idx  int
		}
		stack := []frame{{ch: start, succ: g.successors(start)}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx >= len(f.succ) {
				color[f.ch] = black
				stack = stack[:len(stack)-1]
				continue
			}
			next := f.succ[f.idx]
			f.idx++
			switch color[next] {
			case white:
				color[next] = gray
				parent[next] = f.ch
				stack = append(stack, frame{ch: next, succ: g.successors(next)})
			case gray:
				// Found a back edge f.ch -> next: reconstruct the cycle.
				cycle := []Channel{next}
				for cur := f.ch; cur != next; cur = parent[cur] {
					cycle = append(cycle, cur)
				}
				// Reverse into forward order and close the loop.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return append(cycle, cycle[0])
			}
		}
	}
	return nil
}

func (g *Graph) successors(c Channel) []Channel {
	out := make([]Channel, 0, len(g.adj[c]))
	for s := range g.adj[c] {
		out = append(out, s)
	}
	// Deterministic order for reproducible witnesses.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func less(a, b Channel) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	if a.Port != b.Port {
		return a.Port < b.Port
	}
	return a.VC < b.VC
}

// Acyclic reports whether the graph has no dependency cycles.
func (g *Graph) Acyclic() bool { return g.FindCycle() == nil }

// --- Builders -----------------------------------------------------------------

// BuildDORCDG constructs the exact channel dependency graph of dimension-
// order routing by walking the unique DOR path of every (src, dst) pair and
// recording consecutive channel pairs. With datelines enabled the torus
// dateline VC discipline is modeled as two channel classes per link (class 1
// after the packet crosses the dimension's dateline), which is the
// construction that removes the wraparound ring cycles; without datelines
// all traffic shares class 0, reproducing the classic result that plain DOR
// deadlocks on a torus.
func BuildDORCDG(topo topology.Topology, datelines bool) *Graph {
	g := NewGraph()
	for s := 0; s < topo.Nodes(); s++ {
		for d := 0; d < topo.Nodes(); d++ {
			if s == d {
				continue
			}
			walkDOR(topo, topology.Node(s), topology.Node(d), datelines, g)
		}
	}
	return g
}

func walkDOR(topo topology.Topology, src, dst topology.Node, datelines bool, g *Graph) {
	cur := src
	var crossed uint64
	have := false
	var prev Channel
	for cur != dst {
		port, ok := routing.DORPort(topo, cur, dst)
		if !ok {
			return
		}
		class := 0
		if datelines && crossed&(1<<uint(topology.PortDim(port))) != 0 {
			class = 1
		}
		ch := Channel{From: cur, Port: port, VC: class}
		g.AddChannel(ch)
		if have {
			g.AddDep(prev, ch)
		}
		if topo.CrossesDateline(cur, port) {
			crossed |= 1 << uint(topology.PortDim(port))
		}
		prev, have = ch, true
		next, ok := topo.Neighbor(cur, port)
		if !ok {
			return
		}
		cur = next
	}
}

// BuildMinimalAdaptiveCDG constructs the channel dependency graph of true
// fully adaptive minimal routing (Disha with M=0). Because every virtual
// channel is available to every packet with no classes or ordering, VCs are
// collapsed to a single class: a dependency c1 -> c2 with c1 = (m -> n) and
// c2 = (n -> o) exists iff some destination makes both hops profitable.
func BuildMinimalAdaptiveCDG(topo topology.Topology) *Graph {
	g := NewGraph()
	for m := 0; m < topo.Nodes(); m++ {
		for p1 := 0; p1 < topo.Degree(); p1++ {
			n, ok := topo.Neighbor(topology.Node(m), p1)
			if !ok {
				continue
			}
			c1 := Channel{From: topology.Node(m), Port: p1}
			g.AddChannel(c1)
			for p2 := 0; p2 < topo.Degree(); p2++ {
				o, ok := topo.Neighbor(n, p2)
				if !ok {
					continue
				}
				if dependsMinimal(topo, topology.Node(m), n, o) {
					g.AddDep(c1, Channel{From: n, Port: p2})
				}
			}
		}
	}
	return g
}

// dependsMinimal reports whether some destination makes m->n->o a pair of
// consecutive profitable hops.
func dependsMinimal(topo topology.Topology, m, n, o topology.Node) bool {
	for d := 0; d < topo.Nodes(); d++ {
		dst := topology.Node(d)
		if topo.Distance(n, dst) == topo.Distance(m, dst)-1 &&
			topo.Distance(o, dst) == topo.Distance(n, dst)-1 {
			return true
		}
	}
	return false
}
