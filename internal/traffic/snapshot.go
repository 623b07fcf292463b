package traffic

import "repro/internal/snapshot"

// Walk codes the dynamic state of srcs, the sources of p in node order, over
// c: per source its random stream (see sim.RNG.State; a digest codes none),
// whether it is stopped, the burst process's state and the offered count —
// all a Source holds. What every source of a network shares (the Process:
// pattern, injection probability, message length, burst shape) is rebuilt
// from the network Config on restore. Only a bursty process sets a source
// bursting, so a decoder refuses the flag under a Bernoulli one: restored,
// the source would run as bursty no uninterrupted run is.
func (p *Process) Walk(c *snapshot.Codec, srcs []Source) {
	for i := range srcs {
		s := &srcs[i]
		rng := s.rng.State()
		c.RNG(&rng)
		if c.Decoding() {
			s.rng.SetState(rng)
		}
		c.Bool(&s.stopped)
		c.Bool(&s.bursting)
		if c.Decoding() && s.bursting && !p.bursty {
			c.Fail("snapshot: source %d is bursting under a Bernoulli process", i)
		}
		c.I64(&s.Offered)
	}
}
