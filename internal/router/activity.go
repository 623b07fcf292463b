package router

import "repro/internal/sim"

// Activity reporting and idle catch-up for the network's active-set
// scheduler (internal/network). The paper's own premise motivates it:
// deadlock is rare because at realistic loads most routers are idle most
// cycles, so the step kernel skips fully drained routers entirely. Skipping
// is only legal because an idle router's per-cycle state evolution is tiny
// and closed-form: everything a drained router would have done under the
// full per-cycle scan is reproduced exactly by CatchUpIdle, so digests and
// snapshots are byte-identical to a kernel that never skips (the golden
// conformance suite enforces this).

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
func (r *Router) CrossbarIdle() bool {
	s := r.st
	for q := 0; q < s.deg; q++ {
		i := r.cx0 + q
		if s.cxInPort[i] != connNone || s.cxDB[i] || s.cxSaved[i] {
			return false
		}
	}
	return true
}

// CatchUpIdle fast-forwards the state a fully drained router evolves while
// skipped by the active-set scheduler, as if StageRouting had run for
// stageCycles cycles and TickTimers for timerCycles cycles on an empty
// router. On such a router those passes change exactly three things, all
// with closed forms:
//
//   - StageRouting unconditionally rotates the VC-allocation priority
//     offset by one per cycle;
//   - TickTimers, under AdaptiveTimeout, counts decay ticks and steps the
//     effective time-out back toward the configured base every 256 ticks;
//   - TickTimers recomputes the blocked/presumed telemetry gauges, which on
//     an empty router is zero after the first skipped pass.
//
// Everything else an empty router touches in those passes is provably a
// no-op (empty buffers stage nothing, win no arbitration, and advance no
// switch offsets). The two cycle counts differ at wake-up because a router
// woken by a mid-cycle flit arrival has already missed the cycle's staging
// pass but still runs its timer pass live.
func (r *Router) CatchUpIdle(stageCycles, timerCycles int) {
	s := r.st
	if stageCycles > 0 {
		s.vcArbOff[r.node] = int32((int(s.vcArbOff[r.node]) + stageCycles) % max(s.stride, 1))
	}
	if timerCycles > 0 {
		if s.cfg.AdaptiveTimeout {
			ticks := int(s.decayCount[r.node]) + timerCycles
			decays := ticks / 256
			s.decayCount[r.node] = int32(ticks % 256)
			if over := s.effTout[r.node] - s.cfg.Timeout; over > 0 {
				if int64(decays) < int64(over) {
					s.effTout[r.node] -= sim.Cycle(decays)
				} else {
					s.effTout[r.node] = s.cfg.Timeout
				}
			}
		}
		s.lastBlocked[r.node] = 0
		s.lastPresumed[r.node] = 0
	}
}
