package router

import "repro/internal/packet"

// InputFlitAt returns buffered flit i (0 == head) of input VC (port, vc).
// Invariant checkers walk buffers with it.
func (r *Router) InputFlitAt(port, vc, i int) packet.Flit { return r.st.in.at(r.inIdx(port, vc), i) }

// DBLaneLen returns the number of flits buffered in the given Deadlock
// Buffer lane.
func (r *Router) DBLaneLen(lane int) int { return int(r.st.db.n[r.dbIdx(lane)]) }

// DBFlitAt returns buffered flit i (0 == head) of the given Deadlock Buffer
// lane.
func (r *Router) DBFlitAt(lane, i int) packet.Flit { return r.st.db.at(r.dbIdx(lane), i) }
