package routing

import (
	"strconv"

	"repro/internal/packet"
	"repro/internal/topology"
)

// disha is the paper's routing function: true fully adaptive wormhole
// routing. Every virtual channel of every profitable output port is a
// candidate — there is no classification of virtual channels nor any
// ordering among them; VCs serve flow control only. With MaxMisroutes > 0,
// every other output port is additionally usable as long as the packet's
// misroute count stays below the bound (the livelock guard of Section 2).
//
// Deadlock freedom is NOT provided by this routing function; it comes from
// the recovery machinery in internal/router and internal/network (time-out
// detection, the Token, and the Deadlock Buffer lane). Misroute candidates
// are class 1 so a packet deroutes only when no minimal candidate is usable,
// matching the paper's M=3 configuration ("any virtual channel along any
// path ... as long as the misroute count is less than four").
type disha struct {
	maxMisroutes int
}

// Disha returns the paper's true fully adaptive routing function with the
// given misroute bound M (0 for minimal-only routing, 3 for the paper's
// misrouting configuration).
func Disha(maxMisroutes int) Algorithm {
	if maxMisroutes < 0 {
		maxMisroutes = 0
	}
	return disha{maxMisroutes: maxMisroutes}
}

// Name is "disha-m<M>"; ByName parses it back.
func (d disha) Name() string { return "disha-m" + strconv.Itoa(d.maxMisroutes) }

// MaxMisroutes exposes the livelock bound M.
func (d disha) MaxMisroutes() int { return d.maxMisroutes }

// MinVCs is 1 on every graph: Disha's routing is purely adjacency-based
// (minimal ports plus bounded misroutes), so it runs on arbitrary
// topologies; deadlock freedom comes from recovery, not VC classes.
func (disha) MinVCs(topology.Graph) int { return 1 }

func (d disha) Route(v View, p *packet.Packet, buf []Candidate) []Candidate {
	topo := v.Topo()
	isMinimal := 0
	for port := 0; port < topo.Degree(); port++ {
		if !topo.IsMinimal(v.Node(), p.Dst, port) || !v.LinkExists(port) {
			continue
		}
		isMinimal |= 1 << uint(port)
		for vc := 0; vc < v.VCs(); vc++ {
			buf = append(buf, Candidate{Port: port, VC: vc})
		}
	}
	if p.Misroutes < d.maxMisroutes {
		for port := 0; port < topo.Degree(); port++ {
			if isMinimal&(1<<uint(port)) != 0 || !v.LinkExists(port) {
				continue
			}
			for vc := 0; vc < v.VCs(); vc++ {
				buf = append(buf, Candidate{Port: port, VC: vc, Class: 1, Misroute: true})
			}
		}
	}
	return buf
}
