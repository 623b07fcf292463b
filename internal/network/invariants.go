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
//   - no duplicated flit: each (packet, seq) appears at most once across
//     all buffers in the network;
//   - flit conservation: for every packet with flits in the network,
//     in-network flits + delivered flits == flits injected so far;
//   - counter and activity soundness: every router's maintained O(1) flit
//     counter equals a full buffer walk, and any router holding flits or
//     crossbar connection state is in the active set;
//   - source queues hold no stale pointers: every slot of a node's queue
//     outside its live range [qhead, len) is nil;
//   - injection soundness: every node with a queued packet or an injection
//     stream is in the pending mask the inject phase walks;
//   - token exclusivity (sequential recovery): at most one packet is
//     recovering on the Token (OnDB, seized, header not yet arrived), and
//     the Token's held/holder state agrees with it; an occupied Deadlock
//     Buffer whose packet's header has not arrived implies that packet
//     holds the Token;
//   - SoA layout soundness: every router's slice of the shared
//     struct-of-arrays buffers passes router.CheckState — buffer lengths in
//     range, every non-empty input VC and Deadlock Buffer lane owned and
//     holding a run inside its owner's length, every owner handle its
//     packet table entry's and every live handle some slot's owner
//     (router.State.CheckHandles), grants inside their sentinel
//     domains, one output VC grant bit per routed header at a buffer head,
//     flit counter consistent with the buffers —
//     so a scan-path bug that corrupts the flat layout is caught even
//     before it changes view-level behavior. A buffer stores its flits as
//     its owner's run, so it cannot hold another packet's flit or a gap,
//     and an output VC's credits are the free space of the buffer it
//     feeds, so they cannot disagree with it.
//
// The conformance tests call it every few cycles, so a phase-ordering bug
// that corrupts state without immediately crashing is still caught near its
// origin.
func (n *Network) CheckInvariants() error {
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

	if err := n.routerState.CheckHandles(); err != nil {
		return fmt.Errorf("network invariant: %w", err)
	}
	for _, r := range n.routers {
		node := r.Node()
		if err := r.CheckState(); err != nil {
			return fmt.Errorf("network invariant: %w", err)
		}
		routerFlits := 0
		for p := 0; p < r.InputPorts(); p++ {
			for v := 0; v < r.InputVCCount(p); v++ {
				occ := r.InputOccupancy(p, v)
				routerFlits += occ
				for i := 0; i < occ; i++ {
					if err := record(r.InputFlitAt(p, v, i), node, "input VC"); err != nil {
						return err
					}
				}
			}
		}
		for lane := 0; lane < r.DBLanes(); lane++ {
			ln := r.DBLaneLen(lane)
			routerFlits += ln
			if owner := r.DBLaneOwner(lane); owner != nil && !owner.OnDB {
				return fmt.Errorf("network invariant: node %d DB lane %d owned by packet %d which is not recovering",
					node, lane, owner.ID)
			}
			for i := 0; i < ln; i++ {
				if err := record(r.DBFlitAt(lane, i), node, "DB lane"); err != nil {
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
	}

	for i := range n.nis {
		q := &n.nis[i]
		if err := q.check(); err != nil {
			return fmt.Errorf("network invariant: node %d: %w", i, err)
		}
		if (q.queued() > 0 || q.cur != nil) && n.pending[i>>6]&(1<<(uint(i)&63)) == 0 {
			return fmt.Errorf("network invariant: node %d has a packet to inject but is not pending", i)
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
