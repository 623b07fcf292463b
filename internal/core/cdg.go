// Package core makes the DISHA paper's deadlock theory executable. It
// provides:
//
//   - channel dependency graphs (Definitions 5-8 of the paper's appendix)
//     with cycle detection. The package's tests derive each avoidance
//     baseline's graph from internal/routing itself — every candidate its
//     Route offers, applied by the router's own header update — and prove
//     its deterministic or escape subfunction connected and acyclic, while
//     Disha's true fully adaptive routing is cyclic: the premise that makes
//     recovery necessary;
//   - the Deadlock Buffer lane checks behind Lemma 1 (the recovery routing
//     subfunction is connected) and Assumption 3 (it is minimal);
//   - a runtime wait-for-graph analyzer that finds true deadlocked
//     configurations (Definition 10) in a live network, used to characterize
//     how often presumed deadlocks are real (Figure 3a's ground truth).
package core

import (
	"cmp"
	"fmt"
	"slices"

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

	// Start vertices and successors are taken in sortedKeys order, so the
	// witness is a function of the graph alone, not of map iteration.
	for _, start := range sortedKeys(g.adj) {
		if color[start] != white {
			continue
		}
		type frame struct {
			ch   Channel
			succ []Channel
			idx  int
		}
		stack := []frame{{ch: start, succ: sortedKeys(g.adj[start])}}
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
				stack = append(stack, frame{ch: next, succ: sortedKeys(g.adj[next])})
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

// sortedKeys returns m's channels ordered by node, then port, then VC.
func sortedKeys[V any](m map[Channel]V) []Channel {
	out := make([]Channel, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b Channel) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Port, b.Port), cmp.Compare(a.VC, b.VC))
	})
	return out
}

// Acyclic reports whether the graph has no dependency cycles.
func (g *Graph) Acyclic() bool { return g.FindCycle() == nil }
