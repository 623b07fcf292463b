package router

import (
	"repro/internal/packet"
	"repro/internal/snapshot"
)

// InputFlitAt returns buffered flit i (0 == head) of input VC (port, vc).
// Invariant checkers walk buffers with it.
func (r *Router) InputFlitAt(port, vc, i int) packet.Flit { return r.st.in.at(r.inIdx(port, vc), i) }

// DBLaneLen returns the number of flits buffered in the given Deadlock
// Buffer lane.
func (r *Router) DBLaneLen(lane int) int { return int(r.st.db.n[r.dbIdx(lane)]) }

// DBFlitAt returns buffered flit i (0 == head) of the given Deadlock Buffer
// lane.
func (r *Router) DBFlitAt(lane, i int) packet.Flit { return r.st.db.at(r.dbIdx(lane), i) }

// AppendState appends a deterministic binary encoding of the router's full
// microarchitectural state to b and returns the extended slice. It is the
// snapshot's own field walk (walkState) without the RNG trailer, so every
// field a restore brings back is hashed by construction: every input VC
// (owner, route grants, buffered flits, timer state), output VC (owner,
// credits), Deadlock Buffer lane, crossbar connection, arbitration offset,
// adaptive-timeout state and event counter. The golden-digest conformance
// suite hashes it to prove that every scan path leaves the network in
// byte-identical states.
func (r *Router) AppendState(b []byte) []byte {
	c := snapshot.NewEncoder(b)
	r.walkState(c, nil)
	return c.Bytes()
}
