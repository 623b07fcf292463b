package traffic

import (
	"math"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// generate is one cycle of s as the network runs it: the trial, and the
// firing when it hits.
func generate(s *Source, now sim.Cycle, nextID func() packet.ID) *packet.Packet {
	var fired [1]uint64
	one := []Source{*s}
	Trials(one, fired[:])
	if *s = one[0]; fired[0] == 0 {
		return nil
	}
	return s.Fire(now, nextID)
}

// refSource is the generator Trials and Fire replaced, kept as the oracle
// they are held to: a float Bernoulli draw per cycle (and per burst state
// step), then the destination draw, in one call.
type refSource struct {
	node      topology.Node
	pattern   Pattern
	rng       *sim.RNG
	prob      float64
	msgLen    int
	stopped   bool
	burst     BurstConfig
	bursting  bool
	burstProb float64
	offered   int64
}

func refBernoulli(r *sim.RNG, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

func (s *refSource) generate(now sim.Cycle, nextID func() packet.ID) *packet.Packet {
	if s.stopped {
		return nil
	}
	if !refBernoulli(s.rng, s.stepBurst()) {
		return nil
	}
	dst := s.pattern.Dest(s.node, s.rng)
	if dst == s.node {
		return nil
	}
	s.offered++
	return packet.New(nextID(), s.node, dst, s.msgLen, now)
}

func (s *refSource) stepBurst() float64 {
	if !s.burst.Valid() {
		return s.prob
	}
	if s.bursting {
		if refBernoulli(s.rng, 1/s.burst.MeanBurst) {
			s.bursting = false
		}
	} else if refBernoulli(s.rng, 1/s.burst.MeanIdle) {
		s.bursting = true
	}
	if s.bursting {
		return s.burstProb
	}
	return 0
}

// TestTrialMatchesFloatGenerator holds Trials and Fire to the float
// generator they replaced, run on a clone of the same stream: over 10^5
// cycles per case they must consume the same draws (equal RNG state after
// every cycle) and yield the same (cycle, destination, ID) sequence. Cases
// cover every pattern, the probabilities at and around the comparison's
// edges, bursty sources, and a stop three quarters through.
func TestTrialMatchesFloatGenerator(t *testing.T) {
	topo := topo16()
	df := topology.MustDragonfly(16, 8)
	sparse, err := InjectionProbability(df, Uniform(df), 32, 0.003)
	if err != nil {
		t.Fatal(err)
	}
	ulp := math.Ldexp(1, -53)
	k := float64(1<<51+12345) * ulp // a multiple of 2^-53 near 0.25
	probs := []float64{
		ulp, math.Nextafter(k, 0), k, math.Nextafter(k, 1), 1 - ulp, 0, 1, sparse,
	}
	bursts := []BurstConfig{{}, {MeanBurst: 30, MeanIdle: 70}, {MeanBurst: 1, MeanIdle: 1}, {MeanBurst: 4, MeanIdle: 2}}
	const cycles, stopAt = 100000, 75000
	for _, name := range Names() {
		pat, err := ByName(name, topo, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range probs {
			for _, b := range bursts {
				node := topology.Node(17)
				seed := uint64(len(name))<<32 ^ math.Float64bits(p)
				src := NewSource(node, pat, *sim.NewRNG(seed), p, 8)
				ref := &refSource{node: node, pattern: pat, rng: sim.NewRNG(seed), prob: p, msgLen: 8}
				if b.Valid() {
					if err := src.SetBursty(b); err != nil {
						t.Fatal(err)
					}
					ref.burst, ref.burstProb = b, min(p/b.DutyCycle(), 1)
				}
				var id, refID packet.ID
				for c := sim.Cycle(0); c < cycles; c++ {
					if c == stopAt {
						src.Stop()
						ref.stopped = true
					}
					got := generate(&src, c, func() packet.ID { id++; return id })
					want := ref.generate(c, func() packet.ID { refID++; return refID })
					if (got == nil) != (want == nil) || got != nil && (got.Dst != want.Dst || got.ID != want.ID || got.CreatedAt != want.CreatedAt) {
						t.Fatalf("%s p=%v burst %+v cycle %d: got %v, want %v", name, p, b, c, got, want)
					}
					if src.rng.State() != ref.rng.State() {
						t.Fatalf("%s p=%v burst %+v cycle %d: streams diverged", name, p, b, c)
					}
				}
				if src.Offered != ref.offered {
					t.Fatalf("%s p=%v burst %+v: Offered %d, want %d", name, p, b, src.Offered, ref.offered)
				}
			}
		}
	}
}
