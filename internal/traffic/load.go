package traffic

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TotalChannels returns the number of unidirectional network channels in the
// topology (injection/reception channels excluded). On a k-ary n-cube torus
// this is Nodes * 2n; a mesh has fewer because boundary ports are absent.
func TotalChannels(topo topology.Graph) int {
	total := 0
	for n := 0; n < topo.Nodes(); n++ {
		for p := 0; p < topo.Degree(); p++ {
			if _, ok := topo.Neighbor(topology.Node(n), p); ok {
				total++
			}
		}
	}
	return total
}

// MeanStats summarizes a pattern's spatial statistics on a topology.
type MeanStats struct {
	// MeanDistance is the expected minimal hop count of generated packets
	// (self-addressed draws excluded).
	MeanDistance float64
	// GeneratingFraction is the fraction of draws that produce a packet
	// (dst != src). Transpose diagonals, for example, generate nothing.
	GeneratingFraction float64
}

// MeasureMean estimates MeanStats by drawing samplesPerNode destinations from
// every source with a deterministic RNG stream. Every pattern takes all
// samplesPerNode draws, a deterministic one too: its draws repeat, so one
// per node would measure it exactly, but the count is not cut for it.
func MeasureMean(topo topology.Graph, p Pattern, samplesPerNode int) MeanStats {
	if samplesPerNode < 1 {
		samplesPerNode = 1
	}
	r := sim.NewRNG(0x715a_1ed0)
	var totalDist, generated, draws float64
	for n := 0; n < topo.Nodes(); n++ {
		src := topology.Node(n)
		for s := 0; s < samplesPerNode; s++ {
			dst := p.Dest(src, r)
			draws++
			if dst == src {
				continue
			}
			generated++
			totalDist += float64(topo.Distance(src, dst))
		}
	}
	st := MeanStats{}
	if generated > 0 {
		st.MeanDistance = totalDist / generated
		st.GeneratingFraction = generated / draws
	}
	return st
}

// InjectionProbability converts a load rate (fraction of full load, per the
// paper's definition: full load keeps every network channel busy) into the
// per-node per-cycle packet injection probability.
//
// At full load the aggregate delivered bandwidth equals the total channel
// bandwidth C flits/cycle; each packet of msgLen flits traveling E[dist]
// hops consumes msgLen*E[dist] channel-cycles, so the aggregate full-load
// packet rate is C / (msgLen * E[dist]). That rate is spread across the
// nodes that actually generate traffic under the pattern.
func InjectionProbability(topo topology.Graph, p Pattern, msgLen int, loadRate float64) (float64, error) {
	return ProbabilityFor(topo, p, MeasureMean(topo, p, 64), msgLen, loadRate)
}

// ProbabilityFor is InjectionProbability over st, a measurement of p on topo
// (MeasureMean with 64 samples per node) the caller has already taken.
func ProbabilityFor(topo topology.Graph, p Pattern, st MeanStats, msgLen int, loadRate float64) (float64, error) {
	if msgLen < 1 {
		return 0, fmt.Errorf("traffic: message length %d < 1", msgLen)
	}
	if loadRate < 0 {
		return 0, fmt.Errorf("traffic: negative load rate %v", loadRate)
	}
	if st.GeneratingFraction == 0 {
		return 0, fmt.Errorf("traffic: pattern %s generates no traffic on %s", p.Name(), topo.Name())
	}
	c := float64(TotalChannels(topo))
	aggregate := loadRate * c / (float64(msgLen) * st.MeanDistance) // packets/cycle network-wide
	perNodeRate := aggregate / (float64(topo.Nodes()) * st.GeneratingFraction)
	if perNodeRate > 1 {
		return 0, fmt.Errorf("traffic: load rate %v needs %.3f packets/node/cycle (>1); increase message length or lower load",
			loadRate, perNodeRate)
	}
	return perNodeRate, nil
}

// Process is the injection process of a network's sources, and all they
// share: the pattern, the per-cycle injection probability and its chance,
// the message length and, when bursty, the burst process's three chances.
// Each cycle every source runs a Bernoulli trial with the configured
// probability, and a hit draws a destination from the pattern.
// Self-addressed draws are discarded (the slot is lost), matching nodes that
// do not communicate under deterministic patterns.
//
// Trials runs a cycle's trials, one integer comparison against a sim.Chance
// each, and Fire completes each hit. Each source owns its random stream, so
// running every trial before any firing changes no draw. What a trial reads
// comes first.
type Process struct {
	chance            sim.Chance // per-cycle injection chance (bursty: see SetBursty)
	bursty            bool
	leave, enter, hot sim.Chance // leaving or entering a burst, injecting in one

	pattern Pattern
	prob    float64
	msgLen  int
}

// NewProcess builds the process of sources drawing destinations from
// pattern. prob is the per-cycle injection probability (see
// InjectionProbability); msgLen is the packet length in flits.
func NewProcess(pattern Pattern, prob float64, msgLen int) Process {
	if msgLen < 1 {
		panic("traffic: message length must be >= 1")
	}
	return Process{chance: sim.ChanceOf(prob), pattern: pattern, prob: prob, msgLen: msgLen}
}

// Source is one node's state in a Process, and only what differs from node
// to node: its random stream, whether it is stopped, its burst state and
// its offered count. Its node is its index in the slice Trials walks.
type Source struct {
	rng               sim.RNG
	stopped, bursting bool

	// Offered counts packets generated (accepted draws), for offered-load
	// accounting by the harness.
	Offered int64
}

// NewSource builds a source that draws from rng's stream.
func NewSource(rng sim.RNG) Source { return Source{rng: rng} }

// Stop halts generation (used for the drain phase at the end of a run).
func (s *Source) Stop() { s.stopped = true }

// Trials runs this cycle's trial of every source i, setting bit i of fired
// on a hit, which Fire must complete before the next trial. A stopped source
// draws nothing. The common trial is inline: a call per source per cycle
// would cost more than the trial.
func (p *Process) Trials(srcs []Source, fired []uint64) {
	chance, bursty := p.chance, p.bursty
	for i := range srcs {
		s := &srcs[i]
		var hit bool
		if s.stopped || bursty {
			hit = s.burstTrial(p)
		} else {
			hit = s.rng.Hit(chance)
		}
		if hit {
			fired[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// burstTrial is the trial of a stopped or bursty source.
func (s *Source) burstTrial(p *Process) bool {
	if s.stopped {
		return false
	}
	if s.bursting {
		if s.rng.Hit(p.leave) {
			s.bursting = false
		}
	} else if s.rng.Hit(p.enter) {
		s.bursting = true
	}
	return s.bursting && s.rng.Hit(p.hot)
}

// Fire completes a trial of node's source s that hit: it draws the
// destination and returns the new packet, or nil when the draw addresses
// node itself. nextID supplies unique packet IDs (owned by the network so
// that IDs are global) and is called only for a packet.
func (p *Process) Fire(s *Source, node topology.Node, now sim.Cycle, nextID func() packet.ID) *packet.Packet {
	dst := p.pattern.Dest(node, &s.rng)
	if dst == node {
		return nil
	}
	s.Offered++
	return packet.New(nextID(), node, dst, p.msgLen, now)
}

// BurstConfig shapes a two-state (on/off) Markov-modulated injection
// process: during a burst the source injects with elevated probability,
// between bursts it is silent. State residence times are geometric with the
// given mean lengths. The paper's conclusions claim Disha "performs well
// under bursty traffic"; this process makes that claim testable.
type BurstConfig struct {
	// MeanBurst is the mean burst length in cycles (must be >= 1).
	MeanBurst float64
	// MeanIdle is the mean gap between bursts in cycles (must be >= 1).
	MeanIdle float64
}

// Valid reports whether the configuration describes a usable process.
func (b BurstConfig) Valid() bool { return b.MeanBurst >= 1 && b.MeanIdle >= 1 }

// DutyCycle returns the long-run fraction of time spent bursting.
func (b BurstConfig) DutyCycle() float64 {
	return b.MeanBurst / (b.MeanBurst + b.MeanIdle)
}

// SetBursty switches the process from Bernoulli to on/off Markov-modulated
// injection with the same long-run offered load: the in-burst probability
// is the base probability divided by the duty cycle (clamped to 1, which
// slightly lowers the effective load for extreme configurations).
func (p *Process) SetBursty(cfg BurstConfig) error {
	if !cfg.Valid() {
		return fmt.Errorf("traffic: invalid burst config %+v", cfg)
	}
	p.bursty = true
	p.leave = sim.ChanceOf(1 / cfg.MeanBurst)
	p.enter = sim.ChanceOf(1 / cfg.MeanIdle)
	p.hot = sim.ChanceOf(p.prob / cfg.DutyCycle())
	return nil
}
