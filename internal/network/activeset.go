package network

import "math/bits"

// Active-set scheduling for the phased step kernel.
//
// The paper's whole premise is that deadlock — and congestion generally —
// is the uncommon case: at the loads of its figures most routers are idle
// most cycles. The full-scan kernel nonetheless pays route-compute, switch
// allocation and timer cost for every router every cycle. The active-set
// scheduler tracks which routers can possibly do work and has the stage and
// timer phases visit only those. A skipped router is frozen: everything its
// skipped passes would have changed (the VC arbitration offset, the
// blocked/presumed gauges) is a function of the
// clock that the router derives when read (internal/router/activity.go), so
// execution, digests and snapshots are byte-identical to the full scan —
// the golden-digest conformance suite and the snapshot lockstep tests prove
// it — and no reader writes.
//
// Representation: one bit per router in actMask. The mask is mutated by
// wakes and the end-of-cycle deactivation sweep; the stage and timer phases
// only read it.
//
// Lifecycle:
//
//   - Every router starts active.
//   - A router deactivates at end of cycle when fully drained: no buffered
//     flits anywhere (input VCs, Deadlock Buffer lanes) and no
//     packet-by-packet crossbar connection state. The crossbar condition
//     matters: a drained router with a stale connection still releases it
//     on its next staging pass, which is a state change the skip would
//     otherwise lose. Empty-but-owned VCs and held output VCs are fine to
//     sleep on — they change only when a flit moves, and every flit
//     movement into the router is a wake.
//   - A router activates when it can next touch a flit: a successful
//     injection (phase 1) or an incoming transfer — neighbor flit, Deadlock
//     Buffer admission (phase 3). Either sets its bit. Timer expiry and
//     Token arrival need no wake of their own: both require a resident
//     header, so the router is already active. A router woken in phase 3
//     runs the timer phase of the same cycle, so the newly arrived header
//     starts accruing blocked time the cycle it arrives, as under the full
//     scan.
//
// The scheduler is always on. In-package tests set activeSetOff to get the
// full scan it is checked against: every bit stays set, the deactivation sweep
// is skipped and the same loops become full scans, digest unchanged.

// setActive marks router i active.
func (n *Network) setActive(i int) { n.actMask[i>>6] |= 1 << (uint(i) & 63) }

// clearActive marks router i inactive.
func (n *Network) clearActive(i int) { n.actMask[i>>6] &^= 1 << (uint(i) & 63) }

// activeOn reports whether router i is active.
func (n *Network) activeOn(i int) bool { return n.actMask[i>>6]&(1<<(uint(i)&63)) != 0 }

// nextActive returns the smallest active router index in [from, hi), or -1.
// It scans the bitmap a word at a time, so iterating the whole active set
// costs O(nodes/64 + |active|) and allocates nothing.
func (n *Network) nextActive(from, hi int) int {
	if from >= hi {
		return -1
	}
	w := from >> 6
	word := n.actMask[w] &^ (1<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			if i >= hi {
				return -1
			}
			return i
		}
		w++
		if w >= len(n.actMask) || w<<6 >= hi {
			return -1
		}
		word = n.actMask[w]
	}
}

// deactivateDrained is the end-of-cycle sweep: every active router that is
// fully drained — no buffered flits and no crossbar connection state — goes
// to sleep. It checks every active router, not only this
// cycle's transfer endpoints, because a router can also drain by purge
// (abort-retry) or hold only stale crossbar state that its stage phase just
// released.
func (n *Network) deactivateDrained() {
	if n.activeSetOff {
		return
	}
	hi := len(n.routers)
	for i := n.nextActive(0, hi); i >= 0; i = n.nextActive(i+1, hi) {
		r := n.routers[i]
		if r.FlitCount() == 0 && r.CrossbarIdle() {
			n.clearActive(i)
		}
	}
}

// rebuildActiveSet reconstructs activation state from restored router state
// (Restore calls it; activation is derived, never serialized). Snapshots are
// taken between cycles, after the deactivation sweep, so "drained ⇔
// inactive" holds exactly in the network that produced the snapshot —
// rebuilding from the same predicate yields a byte-identical continuation.
func (n *Network) rebuildActiveSet() {
	for i, r := range n.routers {
		if !n.activeSetOff && r.FlitCount() == 0 && r.CrossbarIdle() {
			n.clearActive(i)
		} else {
			n.setActive(i)
		}
	}
}
