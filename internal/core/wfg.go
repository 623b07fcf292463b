package core

import (
	"slices"

	"repro/internal/packet"
	"repro/internal/router"
)

// BlockedHeader describes one header that cannot advance this cycle: every
// output virtual channel its routing function supplies is held by another
// packet.
type BlockedHeader struct {
	Router *router.Router
	Port   int
	VC     int
	Pkt    *packet.Packet
	// WaitsOn lists the distinct packets holding the candidate output VCs.
	WaitsOn []*packet.Packet
}

// WFGResult is a snapshot analysis of a live network's packet wait-for
// relations.
type WFGResult struct {
	// Blocked holds every header with no free candidate this cycle.
	Blocked []BlockedHeader
	// Deadlocked holds the subset of blocked headers that can never
	// advance: every candidate channel is held by a packet that is itself
	// permanently blocked (a true deadlocked configuration per Definition
	// 10). Empty for deadlock-free routing algorithms.
	Deadlocked []BlockedHeader
}

// TrueDeadlock reports whether the snapshot contains a real deadlocked
// configuration.
func (w WFGResult) TrueDeadlock() bool { return len(w.Deadlocked) > 0 }

// DeadlockedIDs returns the deadlocked packets' IDs as a lookup set (nil
// when there is no deadlock — safe to index). Consumers label recovery
// episodes and snapshot WFG nodes with it.
func (w WFGResult) DeadlockedIDs() map[int64]bool {
	if len(w.Deadlocked) == 0 {
		return nil
	}
	ids := make(map[int64]bool, len(w.Deadlocked))
	for _, bh := range w.Deadlocked {
		ids[int64(bh.Pkt.ID)] = true
	}
	return ids
}

// AnalyzeWFG inspects the routers' current state and classifies blocked
// headers. A header can eventually advance if any candidate output VC is
// free or draining, or is held by a packet that can itself advance (its
// wormhole tail will eventually release the channel). The fixpoint of that
// relation leaves exactly the packets of deadlocked configurations.
//
// Packets already on the Deadlock Buffer lane are excluded: the recovery
// theorem guarantees their progress. Headers still waiting at the injection
// port hold no network channels, so they can be victims but never members
// of a cycle; they are classified like any other blocked header.
func AnalyzeWFG(routers []*router.Router) WFGResult {
	var res WFGResult
	blockedPkts := make(map[*packet.Packet]*BlockedHeader)

	for _, r := range routers {
		for p := 0; p < r.InputPorts(); p++ {
			for v := 0; v < r.InputVCCount(p); v++ {
				head, ok := r.InputHead(p, v)
				if !ok || !head.IsHeader() {
					continue
				}
				route, _ := r.InputRoute(p, v)
				if route != router.PortUnrouted {
					continue // granted, ejecting, or on the DB lane: will advance
				}
				pkt := head.Pkt
				if pkt.OnDB {
					continue
				}
				if pkt.Dst == r.Node() {
					// At the destination: the reception channel always
					// drains, so this header can always advance.
					continue
				}
				cands := r.Algorithm().Route(r, pkt, nil)
				free := false
				// Blockers in candidate order, deduplicated by scan: at
				// most ports x VCs entries, and the order reaches the
				// flight recorder's waits_on, which must not vary by run.
				var waits []*packet.Packet
				for _, c := range cands {
					if !r.LinkExists(c.Port) {
						continue
					}
					if r.OutputVCFree(c.Port, c.VC) {
						free = true
						break
					}
					if owner := r.OutputOwner(c.Port, c.VC); owner != nil {
						if !slices.Contains(waits, owner) {
							waits = append(waits, owner)
						}
						continue
					}
					// Owner released but the downstream buffer has not
					// drained (atomic VC reallocation): the real blocker is
					// the packet whose flits still occupy that buffer —
					// with single-flit packets this is the common case.
					nb := r.Neighbor(c.Port)
					inPort := r.ReverseAt(c.Port)
					if occupant := nb.InputOwner(inPort, c.VC); occupant != nil {
						if !slices.Contains(waits, occupant) {
							waits = append(waits, occupant)
						}
					} else {
						// Genuinely draining: will become free without help.
						free = true
						break
					}
				}
				if free {
					continue
				}
				res.Blocked = append(res.Blocked, BlockedHeader{Router: r, Port: p, VC: v, Pkt: pkt, WaitsOn: waits})
			}
		}
	}
	for i := range res.Blocked {
		blockedPkts[res.Blocked[i].Pkt] = &res.Blocked[i]
	}

	// Fixpoint: a blocked packet can advance if any packet it waits on is
	// not permanently blocked. Start by assuming every blocked packet is
	// stuck, then release those waiting on a non-blocked (hence moving)
	// packet, and propagate.
	canAdvance := make(map[*packet.Packet]bool)
	changed := true
	for changed {
		changed = false
		for _, bh := range res.Blocked {
			if canAdvance[bh.Pkt] {
				continue
			}
			for _, w := range bh.WaitsOn {
				if _, isBlocked := blockedPkts[w]; !isBlocked || canAdvance[w] || w.OnDB {
					canAdvance[bh.Pkt] = true
					changed = true
					break
				}
			}
		}
	}
	for _, bh := range res.Blocked {
		if !canAdvance[bh.Pkt] {
			res.Deadlocked = append(res.Deadlocked, bh)
		}
	}
	return res
}
