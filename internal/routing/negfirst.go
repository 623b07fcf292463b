package routing

import (
	"math/bits"

	"repro/internal/packet"
	"repro/internal/topology"
)

// negFirst implements the Turn model's negative-first algorithm, which the
// paper reports "supposedly gives the best results among those derived using
// this model". A packet first completes every hop whose direction is
// negative, routing adaptively among those dimensions; only then may it take
// positive hops, again adaptively. Turns from a positive direction into a
// negative one are prohibited, which removes the abstract cycles the Turn
// model identifies.
//
// The Turn model's proof is for meshes. On a torus the wraparound links
// admit "staircase" cycles built entirely from negative channels spanning
// several dimensions, which per-dimension dateline classes do not break
// (this implementation's original dateline composition was shown to
// deadlock by the conservation property test). As documented in DESIGN.md,
// negative-first on a torus therefore routes over the mesh subgraph only —
// wraparound links are never used — preserving the mesh proof verbatim at
// the cost of longer paths, consistent with the poor Turn-model showing in
// the paper's Figure 4.
type negFirst struct{}

// NegativeFirst returns the Turn model (negative-first) routing algorithm.
func NegativeFirst() Algorithm { return negFirst{} }

func (negFirst) Name() string { return "turn-negative-first" }

func (negFirst) MinVCs(g topology.Graph) int {
	if _, ok := topology.Coordinated(g); !ok {
		return -1 // the Turn model's directions need cube coordinates
	}
	return 1
}

func (negFirst) Route(v View, p *packet.Packet, buf []Candidate) []Candidate {
	topo := v.Topo().(topology.Topology)
	node := v.Node()

	// Mesh directions only: the sign of the raw coordinate offset. On a
	// torus this never selects a wraparound hop. The port sets are bit
	// masks (degree <= 63), so a route allocates nothing.
	var negPorts, posPorts uint64
	for d := 0; d < topo.Dims(); d++ {
		fx, tx := topo.CoordAt(node, d), topo.CoordAt(p.Dst, d)
		if fx == tx {
			continue
		}
		sign := 1
		if tx < fx {
			sign = -1
		}
		port := topology.PortFor(d, sign)
		if !v.LinkExists(port) {
			continue
		}
		if sign < 0 {
			negPorts |= 1 << uint(port)
		} else {
			posPorts |= 1 << uint(port)
		}
	}
	ports := negPorts
	if ports == 0 {
		ports = posPorts
	}
	for ; ports != 0; ports &= ports - 1 {
		port := bits.TrailingZeros64(ports)
		for vc := 0; vc < v.VCs(); vc++ {
			buf = append(buf, Candidate{Port: port, VC: vc})
		}
	}
	return buf
}
