package chaos

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// CampaignConfig parameterizes Generate. Zero values get sensible defaults
// (see Generate); only Topo is mandatory.
type CampaignConfig struct {
	// Topo is the topology the campaign targets; link candidates and
	// feasibility modeling come from it. Any Graph works — campaigns do not
	// need coordinates.
	Topo topology.Graph
	// Seed drives the deterministic RNG; the same (Topo, Seed, knobs)
	// always yields the byte-identical schedule.
	Seed uint64
	// Events is how many events to emit (default 20).
	Events int
	// Start is the cycle of the first event (default 200, past warmup).
	Start int64
	// Spacing is the mean gap between events in cycles (default 300); the
	// actual gap is uniform in [Spacing/2, 3*Spacing/2).
	Spacing int64
	// RouterKills enables kill-router/heal-router events alongside link
	// events (roughly one event in four targets a router when set).
	RouterKills bool
	// MaxDown bounds how many links the generator lets be down at once
	// (default 3); at the cap it emits heals instead of kills.
	MaxDown int
	// Algorithms, when non-empty, mixes swap-algorithm events over these
	// routing names (roughly one event in eight).
	Algorithms []string
}

// linkRef is a canonical link identity matching the network's internal
// key: the smaller endpoint and its port (for radix-2 self-links, the
// smaller port).
type linkRef struct {
	node, port int
}

func canonicalLink(topo topology.Graph, node, port int) (linkRef, bool) {
	nb, ok := topo.Neighbor(topology.Node(node), port)
	if !ok {
		return linkRef{}, false
	}
	rev, paired := topo.ReversePortAt(topology.Node(node), port)
	if !paired {
		// A one-way channel has no second identity; it keys as itself.
		return linkRef{node, port}, true
	}
	if int(nb) < node || (int(nb) == node && rev < port) {
		return linkRef{int(nb), rev}, true
	}
	return linkRef{node, port}, true
}

// Generate builds a seeded random kill/heal campaign over the topology.
// The generator tracks a model of which links are down and which routers
// are dead so most events are feasible, but it does not simulate the
// network: events the live run cannot apply (e.g. a kill that would
// disconnect the fabric, or a kill colliding with an in-progress recovery)
// are skipped deterministically by the network and logged as such — they
// are part of the timeline, not errors. All random choices use index-based
// picks from slices so the schedule is identical across runs and platforms.
func Generate(cfg CampaignConfig) (*Schedule, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("chaos: Generate requires a topology")
	}
	if cfg.Events <= 0 {
		cfg.Events = 20
	}
	if cfg.Start <= 0 {
		cfg.Start = 200
	}
	if cfg.Spacing <= 0 {
		cfg.Spacing = 300
	}
	if cfg.MaxDown <= 0 {
		cfg.MaxDown = 3
	}

	topo := cfg.Topo
	rng := sim.NewRNG(cfg.Seed)

	// All links, canonically keyed, in deterministic (node, port) order.
	var allLinks []linkRef
	seen := make(map[linkRef]bool)
	for node := 0; node < topo.Nodes(); node++ {
		for port := 0; port < topo.Degree(); port++ {
			ref, ok := canonicalLink(topo, node, port)
			if !ok || seen[ref] {
				continue
			}
			seen[ref] = true
			allLinks = append(allLinks, ref)
		}
	}

	var down []linkRef // model: links currently down
	var dead []int     // model: routers currently dead
	isDead := func(n int) bool {
		for _, d := range dead {
			if d == n {
				return true
			}
		}
		return false
	}
	isDown := func(ref linkRef) bool {
		for _, d := range down {
			if d == ref {
				return true
			}
		}
		return false
	}

	s := &Schedule{
		Name: fmt.Sprintf("campaign-%s-seed%d", topo.Name(), cfg.Seed),
		Seed: cfg.Seed,
	}
	cycle := sim.Cycle(cfg.Start)
	for len(s.Events) < cfg.Events {
		// Event class: link (default), router (1/4 when enabled), swap
		// (1/8 when algorithms are given). Draw order is fixed so the
		// stream of RNG consumption is part of the schedule's identity.
		roll := rng.Intn(8)
		switch {
		case len(cfg.Algorithms) > 0 && roll == 7:
			alg := cfg.Algorithms[rng.Intn(len(cfg.Algorithms))]
			s.Events = append(s.Events, network.ReconfigEvent{Cycle: cycle, Kind: network.ReconfigSwapAlgorithm, Alg: alg})
		case cfg.RouterKills && roll >= 5:
			if len(dead) > 0 && (rng.Bernoulli(0.5) || len(dead) >= cfg.MaxDown) {
				i := rng.Intn(len(dead))
				node := dead[i]
				dead = append(dead[:i], dead[i+1:]...)
				s.Events = append(s.Events, network.ReconfigEvent{Cycle: cycle, Kind: network.ReconfigHealRouter, Node: topology.Node(node)})
			} else {
				node := rng.Intn(topo.Nodes())
				if isDead(node) {
					continue // re-roll without advancing the cycle
				}
				dead = append(dead, node)
				s.Events = append(s.Events, network.ReconfigEvent{Cycle: cycle, Kind: network.ReconfigKillRouter, Node: topology.Node(node)})
			}
		default:
			if len(down) > 0 && (len(down) >= cfg.MaxDown || rng.Bernoulli(0.5)) {
				i := rng.Intn(len(down))
				ref := down[i]
				down = append(down[:i], down[i+1:]...)
				s.Events = append(s.Events, network.ReconfigEvent{Cycle: cycle, Kind: network.ReconfigHealLink, Node: topology.Node(ref.node), Port: ref.port})
			} else {
				ref := allLinks[rng.Intn(len(allLinks))]
				if isDown(ref) || isDead(ref.node) {
					continue
				}
				down = append(down, ref)
				s.Events = append(s.Events, network.ReconfigEvent{Cycle: cycle, Kind: network.ReconfigKillLink, Node: topology.Node(ref.node), Port: ref.port})
			}
		}
		cycle += sim.Cycle(cfg.Spacing/2 + int64(rng.Intn(int(cfg.Spacing))))
	}
	return s, nil
}
