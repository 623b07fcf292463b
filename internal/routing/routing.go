// Package routing implements the routing algorithms compared in the paper:
//
//   - DOR: deterministic dimension-order routing (torus dateline VC classes);
//   - Turn: the Turn model's negative-first partially adaptive algorithm;
//   - DallyAoki: Dally & Aoki's dynamic fully adaptive algorithm based on
//     packet dimension reversals;
//   - Duato: Duato's fully adaptive algorithm with escape channels;
//   - Disha: the paper's true fully adaptive routing (all VCs usable by all
//     packets, optional misrouting bounded by M) whose deadlock freedom comes
//     from recovery rather than avoidance.
//
// A routing algorithm maps (router state, packet) to a set of candidate
// output virtual channels grouped into preference classes; a selection
// function (random or minimum-congestion, per the paper's Section 4.3)
// chooses among the free candidates of the best available class.
package routing

import (
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// View is the router state a routing algorithm may inspect. It is
// implemented by internal/router; all queries refer to the router where the
// packet's header currently waits.
type View interface {
	// Node is the router's node.
	Node() topology.Node
	// Topo is the network graph. Coordinate-based algorithms assert it to
	// topology.Topology; Config normalization rejects algorithm/topology
	// pairs whose MinVCs reports the graph unsupported, so the assertion
	// cannot fail at routing time.
	Topo() topology.Graph
	// VCs returns the number of virtual channels per physical channel.
	VCs() int
	// LinkExists reports whether the output port is wired (mesh boundary
	// ports are not).
	LinkExists(port int) bool
	// OutputVCFree reports whether the output virtual channel (port, vc) is
	// not currently reserved by any packet.
	OutputVCFree(port, vc int) bool
	// OccupantDimReversals returns the dimension-reversal count of the
	// packet holding output VC (port, vc); ok is false if the VC is free.
	// Used by Dally & Aoki's wait rule.
	OccupantDimReversals(port, vc int) (dr int, ok bool)
	// FreeVCs returns how many output VCs on port are free; the
	// minimum-congestion selection function uses it.
	FreeVCs(port int) int
}

// Candidate is one output virtual channel proposed by a routing function.
type Candidate struct {
	Port int // output network port
	VC   int // virtual channel index on that port

	// Class is the preference class: the router considers class 0
	// candidates first and falls back to higher classes only when no
	// class-0 candidate is usable this cycle (e.g. Duato's escape channels,
	// Disha's misroutes).
	Class int

	// Misroute marks a non-profitable hop; taking it increments the
	// packet's misroute count (Disha's livelock bound).
	Misroute bool

	// ToDeterministic marks Dally & Aoki's irreversible transition onto the
	// deterministic channel class.
	ToDeterministic bool
}

// Algorithm computes candidate output VCs for a packet's header. Route is
// never called when the packet is already at its destination (the router
// ejects directly) or when the packet travels the Deadlock Buffer lane
// (internal/router routes that lane minimally itself).
type Algorithm interface {
	Name() string
	// Route appends candidates to buf and returns it. The returned slice
	// may be empty only if the packet cannot move this cycle under the
	// algorithm's rules (it will be retried next cycle).
	Route(v View, p *packet.Packet, buf []Candidate) []Candidate
	// MinVCs returns the minimum virtual channel count the algorithm
	// requires for deadlock-free (or, for Disha, recoverable) operation on
	// the topology, or -1 when the algorithm does not support the graph at
	// all (coordinate-based algorithms on a coordinate-free digraph).
	MinVCs(g topology.Graph) int
}

// Selection chooses one of the usable candidates (all in the same class,
// all verified free by the router).
type Selection interface {
	Name() string
	Pick(v View, cands []Candidate, r *sim.RNG) Candidate
}

// --- Selection functions ----------------------------------------------------

type randomSel struct{}

// Random selects a free candidate uniformly at random.
func Random() Selection { return randomSel{} }

func (randomSel) Name() string { return "random" }

func (randomSel) Pick(_ View, cands []Candidate, r *sim.RNG) Candidate {
	return cands[r.Intn(len(cands))]
}

type minCongestion struct{}

// MinCongestion chooses "the channel in the direction in which most virtual
// channels are free" (paper §4.3), breaking ties at random.
func MinCongestion() Selection { return minCongestion{} }

func (minCongestion) Name() string { return "min-congestion" }

// Pick counts the candidates tied at the most free VCs in one pass and walks
// to the drawn one in a second, so it draws as a pool of the ties would and
// allocates nothing.
func (minCongestion) Pick(v View, cands []Candidate, r *sim.RNG) Candidate {
	best, ties := -1, 0
	for _, c := range cands {
		switch free := v.FreeVCs(c.Port); {
		case free > best:
			best, ties = free, 1
		case free == best:
			ties++
		}
	}
	k := r.Intn(ties)
	for _, c := range cands {
		if v.FreeVCs(c.Port) != best {
			continue
		}
		if k == 0 {
			return c
		}
		k--
	}
	panic("routing: min-congestion lost its drawn tie")
}

// --- Shared helpers ----------------------------------------------------------

// DORPort returns the deterministic dimension-order output port: the lowest
// dimension with a nonzero offset, taking the minimal direction (positive on
// an exact half-ring tie). Besides the DOR baseline it defines the minimal
// routing of the Deadlock Buffer lane (paper Assumption 3), which makes that
// lane a connected routing subfunction.
func DORPort(topo topology.Topology, from, to topology.Node) (int, bool) {
	return dorPort(topo, from, to)
}

func dorPort(topo topology.Topology, from, to topology.Node) (int, bool) {
	if from == to {
		return 0, false
	}
	for d := 0; d < topo.Dims(); d++ {
		fx, tx := topo.CoordAt(from, d), topo.CoordAt(to, d)
		if fx == tx {
			continue
		}
		return topology.PortFor(d, minimalSign(topo, d, fx, tx)), true
	}
	return 0, false
}

// minimalSign returns the minimal travel direction in dimension d from
// coordinate fx to tx, preferring +1 on an exact tie (deterministic).
func minimalSign(topo topology.Topology, d, fx, tx int) int {
	if !topo.Wrap() {
		if tx > fx {
			return 1
		}
		return -1
	}
	k := topo.Radix(d)
	fwd := tx - fx
	if fwd < 0 {
		fwd += k
	}
	if fwd <= k-fwd {
		return 1
	}
	return -1
}

// datelineClass returns the packet's VC class for dimension d on a torus:
// class 0 until the packet has crossed d's dateline, class 1 after.
func datelineClass(p *packet.Packet, d int) int {
	if p.DatelineCrossed&(1<<uint(d)) != 0 {
		return 1
	}
	return 0
}

// classVCs appends candidates for every VC of the given dateline class on
// port. With V virtual channels and two classes, class 0 owns VCs
// [0, V/2) and class 1 owns [V/2, V); with a single class (mesh) all VCs are
// usable. The caller guarantees V >= 2 when classes == 2.
func classVCs(buf []Candidate, port, class, vcs, classes int, tmpl Candidate) []Candidate {
	if classes <= 1 {
		for vc := 0; vc < vcs; vc++ {
			c := tmpl
			c.Port, c.VC = port, vc
			buf = append(buf, c)
		}
		return buf
	}
	per := vcs / classes
	lo := class * per
	hi := lo + per
	if class == classes-1 {
		hi = vcs // last class absorbs the remainder
	}
	for vc := lo; vc < hi; vc++ {
		c := tmpl
		c.Port, c.VC = port, vc
		buf = append(buf, c)
	}
	return buf
}
