package traffic

import "repro/internal/snapshot"

// Walk codes the source's dynamic state over c: its random stream (see
// sim.RNG.State; a digest codes none), whether it is stopped, the burst
// process's state and the offered count: all a Source holds. What every
// source of a network shares (the Process: pattern, injection probability,
// message length, burst shape) is rebuilt from the network Config on
// restore.
func (s *Source) Walk(c *snapshot.Codec) {
	rng := s.rng.State()
	c.RNG(&rng)
	if c.Decoding() {
		s.rng.SetState(rng)
	}
	c.Bool(&s.stopped)
	c.Bool(&s.bursting)
	c.I64(&s.Offered)
}
