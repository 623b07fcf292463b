package network

import "time"

// stage runs the fused route-compute + switch-allocation phase for every
// active router, in router order, into the reusable transfer buffer. Both
// stages mutate only the owning router's state and read neighbor state that
// is start-of-cycle stable: the Deadlock Buffers, and the owners and counts
// of the input VCs an output VC feeds (its owner past the grant and its
// credits); Deadlock-Buffer admissions are
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
			r.StageRouting()
			s1 := time.Now()
			buf = r.StageSwitch(buf)
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
		r.StageRouting()
		buf = r.StageSwitch(buf)
	}
	n.stageBuf = buf
}

// tickAllTimers runs the deadlock-timer phase for every active router, in
// ascending router order, which is therefore the order the timeout
// observer sees a cycle's presumptions in.
func (n *Network) tickAllTimers() {
	hi := len(n.routers)
	for i := n.nextActive(0, hi); i >= 0; i = n.nextActive(i+1, hi) {
		n.routers[i].TickTimers()
	}
}
