package network

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/topology"
)

// flitKey identifies one flit instance for duplicate detection.
type flitKey struct {
	pkt *packet.Packet
	seq int
}

// CheckInvariants verifies structural soundness of the simulation state
// between cycles and returns the first violation found (nil when sound):
//
//   - buffer ownership: every non-empty input VC and Deadlock Buffer lane
//     has an owner and holds only that owner's flits, input VCs in
//     consecutive sequence order;
//   - no duplicated flit: each (packet, seq) appears at most once across
//     all buffers in the network;
//   - flit conservation: for every packet with flits in the network,
//     in-network flits + delivered flits == flits injected so far;
//   - credit consistency: on every link and VC, sender-side credits plus
//     downstream buffer occupancy equal the configured buffer depth;
//   - counter and activity soundness: every router's maintained O(1) flit
//     counter equals a full buffer walk, and any router holding flits or
//     crossbar connection state is in the active set;
//   - source queues hold no stale pointers: every slot of a node's queue
//     outside its live range [qhead, len) is nil, as for the flit rings;
//   - token exclusivity (sequential recovery): at most one packet is
//     recovering on the Token (OnDB, seized, header not yet arrived), and
//     the Token's held/holder state agrees with it; an occupied Deadlock
//     Buffer whose packet's header has not arrived implies that packet
//     holds the Token;
//   - SoA layout soundness: every router's slice of the shared
//     struct-of-arrays buffers passes router.CheckState — ring cursors in
//     range, vacated ring slots zeroed, grants inside their sentinel
//     domains, credits in range, flit counter consistent with the rings —
//     so a scan-path bug that corrupts the flat layout is caught even
//     before it changes view-level behavior.
//
// The conformance tests call it every few cycles, so a phase-ordering bug
// that corrupts state without immediately crashing is still caught near its
// origin.
func (n *Network) CheckInvariants() error {
	depth := n.cfg.Router.BufferDepth
	deg := n.topo.Degree()
	seen := make(map[flitKey]struct{})
	inNet := make(map[*packet.Packet]int)

	record := func(fl packet.Flit, node topology.Node, where string) error {
		k := flitKey{fl.Pkt, fl.Seq}
		if _, dup := seen[k]; dup {
			return fmt.Errorf("network invariant: packet %d flit %d duplicated at node %d %s",
				fl.Pkt.ID, fl.Seq, node, where)
		}
		seen[k] = struct{}{}
		inNet[fl.Pkt]++
		return nil
	}

	for _, r := range n.routers {
		node := r.NodeID()
		if err := r.CheckState(); err != nil {
			return fmt.Errorf("network invariant: %w", err)
		}
		routerFlits := 0
		for p := 0; p < r.InputPorts(); p++ {
			for v := 0; v < r.InputVCCount(p); v++ {
				occ := r.InputOccupancy(p, v)
				routerFlits += occ
				owner := r.InputOwner(p, v)
				if occ > 0 && owner == nil {
					return fmt.Errorf("network invariant: node %d input (%d,%d) holds %d flits with no owner",
						node, p, v, occ)
				}
				prev := -1
				for i := 0; i < occ; i++ {
					fl := r.InputFlitAt(p, v, i)
					if fl.Pkt != owner {
						return fmt.Errorf("network invariant: node %d input (%d,%d) holds packet %d's flit inside packet %d's buffer",
							node, p, v, fl.Pkt.ID, owner.ID)
					}
					if prev >= 0 && fl.Seq != prev+1 {
						return fmt.Errorf("network invariant: node %d input (%d,%d) flit sequence %d after %d",
							node, p, v, fl.Seq, prev)
					}
					prev = fl.Seq
					if err := record(fl, node, "input VC"); err != nil {
						return err
					}
				}
			}
		}
		for lane := 0; lane < r.DBLanes(); lane++ {
			ln := r.DBLaneLen(lane)
			routerFlits += ln
			owner := r.DBLaneOwner(lane)
			if ln > 0 && owner == nil {
				return fmt.Errorf("network invariant: node %d DB lane %d holds %d flits with no owner", node, lane, ln)
			}
			if owner != nil && !owner.OnDB {
				return fmt.Errorf("network invariant: node %d DB lane %d owned by packet %d which is not recovering",
					node, lane, owner.ID)
			}
			for i := 0; i < ln; i++ {
				fl := r.DBFlitAt(lane, i)
				if fl.Pkt != owner {
					return fmt.Errorf("network invariant: node %d DB lane %d holds packet %d's flit inside packet %d's lane",
						node, lane, fl.Pkt.ID, owner.ID)
				}
				if err := record(fl, node, "DB lane"); err != nil {
					return err
				}
			}
		}
		if got := r.FlitCount(); got != routerFlits {
			return fmt.Errorf("network invariant: node %d maintained flit count %d, buffers hold %d", node, got, routerFlits)
		}
		// Active-set soundness: any router that can do work — buffered flits
		// or crossbar connection state — must be awake. (The converse is not
		// an invariant: a drained router stays awake until the end-of-cycle
		// sweep runs.)
		if (routerFlits > 0 || !r.CrossbarIdle()) && !n.activeOn(int(node)) {
			return fmt.Errorf("network invariant: node %d holds work but is inactive", node)
		}
		for q := 0; q < deg; q++ {
			nb := r.Neighbor(q)
			if nb == nil {
				continue
			}
			rp := r.ReverseAt(q)
			for v := 0; v < n.cfg.Router.VCs; v++ {
				if c := r.Credits(q, v) + nb.InputOccupancy(rp, v); c != depth {
					return fmt.Errorf("network invariant: node %d output (%d,%d) credits+occupancy = %d, want buffer depth %d",
						node, q, v, c, depth)
				}
			}
		}
	}

	for i := range n.nis {
		if err := n.nis[i].check(); err != nil {
			return fmt.Errorf("network invariant: node %d: %w", i, err)
		}
	}

	for p, cnt := range inNet {
		injected := p.Length
		if q := &n.nis[p.Src]; q.cur == p {
			injected = q.seq
		}
		if cnt+p.FlitsDelivered != injected {
			return fmt.Errorf("network invariant: packet %d flit conservation broken: %d in network + %d delivered != %d injected",
				p.ID, cnt, p.FlitsDelivered, injected)
		}
	}

	if n.token != nil {
		var seized *packet.Packet
		for p := range inNet {
			if p.OnDB && p.SeizedToken && !p.HeaderArrived {
				if seized != nil {
					return fmt.Errorf("network invariant: packets %d and %d both hold the recovery token", seized.ID, p.ID)
				}
				seized = p
			}
		}
		if seized != nil && (!n.token.Held() || n.token.Holder() != seized) {
			return fmt.Errorf("network invariant: packet %d is recovering but the token is not held by it", seized.ID)
		}
		if n.token.Held() {
			h := n.token.Holder()
			if h == nil || h.HeaderArrived {
				return fmt.Errorf("network invariant: token held with no active recovering packet")
			}
		}
	}
	return nil
}
