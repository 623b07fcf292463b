package network

import (
	"time"

	"repro/internal/router"
)

// stage runs the fused route-compute + switch-allocation phase for every
// active router, in router order, into the reusable transfer buffer. Both
// stages mutate only the owning router's state and read neighbor Deadlock
// Buffer state that is start-of-cycle stable; Deadlock-Buffer admissions are
// staged optimistically and settled afterwards by router.ResolveDB in
// router order.
func (n *Network) stage(profiled bool) {
	buf := n.stageBuf[:0]
	hi := len(n.routers)
	// On profiled cycles each router's two stages are timed separately and
	// observed once per cycle as the summed across-routers time. The
	// wall-clock reads never touch simulation state (digest-invariant).
	if profiled {
		var route, sw time.Duration
		for i := n.nextActive(0, hi); i >= 0; i = n.nextActive(i+1, hi) {
			r := n.routers[i]
			s0 := time.Now()
			n.stageRoute(r)
			s1 := time.Now()
			buf = n.stageSwitch(r, buf)
			route += s1.Sub(s0)
			sw += time.Since(s1)
		}
		n.prof.observe(phaseRouteCompute, route)
		n.prof.observe(phaseSwitchAlloc, sw)
		n.stageBuf = buf
		return
	}
	for i := n.nextActive(0, hi); i >= 0; i = n.nextActive(i+1, hi) {
		r := n.routers[i]
		n.stageRoute(r)
		buf = n.stageSwitch(r, buf)
	}
	n.stageBuf = buf
}

// stageRoute, stageSwitch and tickTimers dispatch one router's scan phases
// to the optimized SoA path or, when an in-package test set refScan, to the
// retained reference path they are checked against. The branch is per router
// per phase — noise next to the scan itself.
func (n *Network) stageRoute(r *router.Router) {
	if n.refScan {
		r.StageRoutingRef()
		return
	}
	r.StageRouting()
}

func (n *Network) stageSwitch(r *router.Router, buf []router.Transfer) []router.Transfer {
	if n.refScan {
		return r.StageSwitchRef(buf)
	}
	return r.StageSwitch(buf)
}

func (n *Network) tickTimers(r *router.Router) {
	if n.refScan {
		r.TickTimersRef()
		return
	}
	r.TickTimers()
}

// tickAllTimers runs the deadlock-timer phase for every active router.
// Timeout observers are buffered per router and flushed afterwards.
func (n *Network) tickAllTimers() {
	hi := len(n.routers)
	for i := n.nextActive(0, hi); i >= 0; i = n.nextActive(i+1, hi) {
		n.tickTimers(n.routers[i])
	}
}
