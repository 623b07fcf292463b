package network

import (
	"math/bits"

	"repro/internal/sim"
)

// Active-set scheduling for the phased step kernel.
//
// The paper's whole premise is that deadlock — and congestion generally —
// is the uncommon case: at the loads of its figures most routers are idle
// most cycles. The full-scan kernel nonetheless pays route-compute, switch
// allocation and timer cost for every router every cycle. The active-set
// scheduler tracks which routers can possibly do work and has the stage and
// timer phases visit only those, while reproducing a skipped router's
// (tiny, closed-form) idle evolution on demand so execution stays
// byte-identical to the full scan — the golden-digest conformance suite
// and the snapshot lockstep tests prove it.
//
// Representation: one bit per router in actMask, plus idleSince[i] — the
// last cycle through which inactive router i's state is fully up to date.
// The mask is mutated by injection wakes, commit wakes and the end-of-cycle
// deactivation sweep; the stage and timer phases only read it.
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
//     injection (wakeAtInject, phase 1) or an incoming transfer — neighbor
//     flit, Deadlock Buffer admission (wakeAtCommit, phase 3). Timer
//     expiry and Token arrival need no wake of their own: both require a
//     resident header, so the router is already active. Waking fast-
//     forwards the missed idle evolution (router.CatchUpIdle) before the
//     router next executes live.
//
// The two wake flavors differ by exactly one phase: a router woken during
// injection still runs the current cycle's stage and timer phases live,
// while a router woken during commit has already missed the current
// cycle's stage phase (phase 2 ran before the flit arrived) but runs its
// timer phase live — so the newly arrived header starts accruing blocked
// time the same cycle it arrives, as under the full scan.
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

// wakeAtInject activates router i during the injection phase of cycle now.
// The router has missed both the stage and timer phases of every cycle in
// (idleSince, now); it will run cycle now entirely live.
func (n *Network) wakeAtInject(i int, now sim.Cycle) {
	if n.activeOn(i) {
		return
	}
	idle := int(now - 1 - n.idleSince[i])
	n.routers[i].CatchUpIdle(idle, idle)
	n.setActive(i)
}

// wakeAtCommit activates router i during the commit phase of cycle now
// (a flit just arrived from a neighbor or entered a Deadlock Buffer). The
// router additionally missed cycle now's stage phase — it ran before the
// flit arrived — but runs cycle now's timer phase live, so the arriving
// header accrues blocked time from this cycle on, exactly as under the
// full scan.
func (n *Network) wakeAtCommit(i int, now sim.Cycle) {
	if n.activeOn(i) {
		return
	}
	idle := int(now - n.idleSince[i])
	n.routers[i].CatchUpIdle(idle, idle-1)
	n.setActive(i)
}

// syncIdle brings every inactive router's state up to the current cycle
// without activating it. Fingerprint and Snapshot call it first, so digests
// and snapshots are indistinguishable from a kernel that never skips; the
// routers stay asleep afterwards (idleSince advances to now).
func (n *Network) syncIdle() {
	for i := range n.routers {
		n.syncRouter(i)
	}
}

// syncRouter is syncIdle for router i alone: O(1), for readers of a single
// router's state (the per-router telemetry gauges).
func (n *Network) syncRouter(i int) {
	if n.activeOn(i) {
		return
	}
	now := n.clock.Now()
	if idle := int(now - n.idleSince[i]); idle > 0 {
		n.routers[i].CatchUpIdle(idle, idle)
		n.idleSince[i] = now
	}
}

// deactivateDrained is the end-of-cycle sweep: every active router that is
// fully drained — no buffered flits and no crossbar connection state — goes
// to sleep as of cycle now. It checks every active router, not only this
// cycle's transfer endpoints, because a router can also drain by purge
// (abort-retry) or hold only stale crossbar state that its stage phase just
// released.
func (n *Network) deactivateDrained(now sim.Cycle) {
	if n.activeSetOff {
		return
	}
	hi := len(n.routers)
	for i := n.nextActive(0, hi); i >= 0; i = n.nextActive(i+1, hi) {
		r := n.routers[i]
		if r.FlitCount() == 0 && r.CrossbarIdle() {
			n.clearActive(i)
			n.idleSince[i] = now
		}
	}
}

// rebuildActiveSet reconstructs activation state from restored router state
// (Restore calls it; activation is derived, never serialized). Snapshots are
// taken between cycles, after the deactivation sweep and a syncIdle, so
// "drained ⇔ inactive with idleSince = now" holds exactly in the network
// that produced the snapshot — rebuilding from the same predicate yields a
// byte-identical continuation.
func (n *Network) rebuildActiveSet() {
	now := n.clock.Now()
	hi := len(n.routers)
	for i := 0; i < hi; i++ {
		r := n.routers[i]
		n.idleSince[i] = now
		if !n.activeSetOff && r.FlitCount() == 0 && r.CrossbarIdle() {
			n.clearActive(i)
		} else {
			n.setActive(i)
		}
	}
}
