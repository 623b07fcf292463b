package router

import "repro/internal/sim"

// Activity reporting for the network's active-set scheduler
// (internal/network), and the state an idle router would evolve, derived
// from the clock. The paper's own premise motivates the scheduler: deadlock
// is rare because at realistic loads most routers are idle most cycles, so
// the step kernel skips fully drained routers entirely. A skipped router is
// frozen — nothing about it is written while it sleeps — because everything
// a drained router's passes change under the full per-cycle scan is a
// function of the clock, read on demand:
//
//   - the VC-allocation priority offset StageRouting starts from in cycle now
//     is (now-1) mod stride (vcArbOffset): the full scan rotates it by one
//     every cycle from 0;
//   - the blocked/presumed gauges are those of the last timer pass if it ran
//     in the current cycle, else 0 (an empty router blocks nothing).
//
// The rule is exact between cycles and after the timer phase, which is where
// every reader runs. Digests and snapshots code the gauges as read, so they
// are byte-identical to a kernel that never skips (the golden conformance
// suite enforces this), and do not code the offset, which the restored
// clock implies.

// FlitCount returns the number of flits buffered anywhere in the router —
// input VCs and Deadlock Buffer lanes. It is maintained incrementally at
// every buffer push/pop, so the active-set scheduler's drain check is O(1);
// CheckInvariants cross-checks it against a full buffer walk.
func (r *Router) FlitCount() int { return int(r.st.flitCount[r.node]) }

// CrossbarIdle reports whether the packet-by-packet crossbar holds no
// connection state: no wired input, no Deadlock Buffer connection, and an
// empty reconfiguration buffer on every output. A drained router with a
// dirty crossbar still mutates state on its next staging pass (stale
// connections are released there), so the active-set scheduler keeps such a
// router active until the crossbar has settled. Under flit-by-flit
// allocation the crossbar state is never populated and this is always true.
// It reads a count that every writer of the connections refreshes
// (syncCrossbar), so the end-of-cycle sweep pays O(1) per router.
func (r *Router) CrossbarIdle() bool { return r.st.cxHeld[r.node] == 0 }

// countCrossbar counts the router's held, Deadlock Buffer and saved
// crossbar connections.
func (r *Router) countCrossbar() (n int) {
	s := r.st
	if s.cxInPort == nil {
		return 0 // flit-by-flit allocation keeps no connection
	}
	for i := r.pt0; i < r.pt0+s.deg; i++ {
		for _, on := range [...]bool{s.cxInPort[i] != connNone, s.cxDB[i], s.cxSaved[i]} {
			if on {
				n++
			}
		}
	}
	return n
}

// syncCrossbar refreshes the count CrossbarIdle reads. The writers of the
// connections call it once they are done: packet-by-packet switch
// allocation, a port reset and the snapshot decoder.
func (r *Router) syncCrossbar() { r.st.cxHeld[r.node] = uint8(r.countCrossbar()) }

// vcArbOffset returns the VC-allocation priority offset as of the end of
// cycle now: StageRouting in cycle now starts from vcArbOffset(now-1).
func (s *State) vcArbOffset(now sim.Cycle) int { return int(now % sim.Cycle(s.stride)) }

// gauge returns router r's entry of a timer-pass gauge: its value if the
// last timer pass ran this cycle, else 0.
func (r *Router) gauge(g []int32) int {
	if r.st.tickedAt[r.node] < r.st.clock.Now() {
		return 0
	}
	return int(g[r.node])
}
