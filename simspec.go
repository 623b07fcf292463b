package disha

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// SimSpec is the command-line form of a SimConfig: one field per simulation
// flag, holding the name or number as typed. It is the single definition of
// those flags, shared by disha-sim and disha-bisect (whose per-side overrides
// are flag assignments on a copy); the names themselves are defined by the
// packages that print them (routing.ByName, routing.SelectionByName,
// traffic.ByName, router.ParseRecoveryMode — README, "Names").
type SimSpec struct {
	// Radix, Dims and Mesh describe a k-ary n-cube; a non-empty Topo (e.g.
	// "fullmesh-16", see ParseTopology) overrides all three.
	Radix, Dims int
	Mesh        bool
	Topo        string
	// Alg names the routing algorithm; Misroutes is the misroute bound M of
	// the short form "disha" ("disha-m<N>" states its own).
	Alg       string
	Misroutes int
	Sel       string
	// Traffic names the pattern; HotspotFraction applies to hotspot only.
	Traffic         string
	HotspotFraction float64
	Load            float64
	MsgLen          int
	VCs, Depth      int
	Timeout         int
	Recovery        string
	Throttle, Rx    int
	Seed            uint64
}

// DefaultSimSpec returns disha-sim's defaults: the paper's 16x16 torus and
// router (4 VCs of depth 2, T_out = 8), 32-flit messages, Disha routing with
// sequential recovery under uniform traffic at load 0.4.
func DefaultSimSpec() SimSpec {
	rc := router.Default()
	return SimSpec{
		Radix: 16, Dims: 2,
		Alg: "disha", Sel: routing.Random().Name(),
		Traffic: "uniform", HotspotFraction: 0.05,
		Load: 0.4, MsgLen: network.DefaultMsgLen, VCs: rc.VCs, Depth: rc.BufferDepth, Timeout: int(rc.Timeout),
		Recovery: rc.Recovery.String(), Rx: rc.ReceptionChannels, Seed: 1,
	}
}

// Flags registers one flag per field on fs, with the spec's current values
// as the defaults; parsing fs (or calling fs.Set) then writes into s. The
// accepted names in the help text come from the tables that resolve them.
func (s *SimSpec) Flags(fs *flag.FlagSet) {
	list := func(names []string) string { return strings.Join(names, ", ") }
	fs.IntVar(&s.Radix, "radix", s.Radix, "nodes per dimension")
	fs.IntVar(&s.Dims, "dims", s.Dims, "dimensions")
	fs.BoolVar(&s.Mesh, "mesh", s.Mesh, "use a mesh instead of a torus")
	fs.StringVar(&s.Topo, "topo", s.Topo, `topology by name: "torus-8x8", "mesh-4x4x2", "hypercube-6", "fullmesh-16", "dragonfly-4x2", "fattree-4" (overrides -radix/-dims/-mesh)`)
	fs.StringVar(&s.Alg, "alg", s.Alg, "routing algorithm: "+list(routing.Names())+", or disha-m<N> for misroute bound N")
	fs.IntVar(&s.Misroutes, "misroutes", s.Misroutes, "misroute bound M of -alg disha")
	fs.StringVar(&s.Sel, "sel", s.Sel, "selection function: "+list(routing.SelectionNames()))
	fs.StringVar(&s.Traffic, "traffic", s.Traffic, "pattern: "+list(traffic.Names()))
	fs.Float64Var(&s.HotspotFraction, "hotspot-fraction", s.HotspotFraction, "hot-spot traffic fraction")
	fs.Float64Var(&s.Load, "load", s.Load, "offered load (fraction of capacity)")
	fs.IntVar(&s.MsgLen, "msglen", s.MsgLen, "message length in flits")
	fs.IntVar(&s.VCs, "vcs", s.VCs, "virtual channels per physical channel")
	fs.IntVar(&s.Depth, "depth", s.Depth, "per-VC buffer depth in flits")
	fs.IntVar(&s.Timeout, "timeout", s.Timeout, "deadlock time-out T_out >= 1, for the disha algorithms (avoidance algorithms run without recovery and ignore it)")
	fs.StringVar(&s.Recovery, "recovery", s.Recovery, "recovery mode for the disha algorithms: "+list(router.RecoveryModeNames()))
	fs.IntVar(&s.Throttle, "throttle", s.Throttle, "max outstanding packets per node (0 = unthrottled)")
	fs.IntVar(&s.Rx, "rx", s.Rx, "reception channels per node")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "random seed")
}

// Config resolves the spec's names into a SimConfig. An unknown name, an
// out-of-range value or a traffic pattern the topology cannot carry is an
// error naming the offending value, never a panic; what remains (load,
// buffer sizes, algorithm/topology fit) is NewSimulator's to validate.
func (s SimSpec) Config() (SimConfig, error) {
	topo, err := s.topology()
	if err != nil {
		return SimConfig{}, err
	}
	name := s.Alg
	if name == "disha" {
		name = DishaRouting(s.Misroutes).Name()
	}
	alg, err := routing.ByName(name)
	if err != nil {
		return SimConfig{}, err
	}
	sel, err := routing.SelectionByName(s.Sel)
	if err != nil {
		return SimConfig{}, err
	}
	pattern, err := traffic.ByName(s.Traffic, topo, s.HotspotFraction)
	if err != nil {
		return SimConfig{}, err
	}
	mode, err := router.ParseRecoveryMode(s.Recovery)
	if err != nil {
		return SimConfig{}, err
	}
	// SimConfig reads Timeout 0 as "the default"; a typed 0 meant something
	// else, and the off switch is the choice of algorithm.
	recovery := routing.NeedsRecovery(alg)
	if recovery && s.Timeout < 1 {
		return SimConfig{}, fmt.Errorf("T_out must be ≥ 1, have -timeout %d; run an avoidance -alg for no recovery", s.Timeout)
	}
	return SimConfig{
		Topo:              topo,
		Algorithm:         alg,
		Selection:         sel,
		Pattern:           pattern,
		LoadRate:          s.Load,
		MsgLen:            s.MsgLen,
		VCs:               s.VCs,
		BufferDepth:       s.Depth,
		Timeout:           Cycle(s.Timeout),
		DisableRecovery:   !recovery,
		Recovery:          mode,
		ReceptionChannels: s.Rx,
		InjectionThrottle: s.Throttle,
		Seed:              s.Seed,
	}, nil
}

func (s SimSpec) topology() (Graph, error) {
	if s.Topo != "" {
		return ParseTopology(s.Topo)
	}
	// A cube of at most 2^20 nodes with every radix >= 2 has at most 20
	// dimensions; refusing more here keeps a hostile -dims from sizing the
	// radix slice.
	if s.Dims < 1 || s.Dims > 20 {
		return nil, fmt.Errorf("dims %d outside [1, 20]", s.Dims)
	}
	radices := make([]int, s.Dims)
	for i := range radices {
		radices[i] = s.Radix
	}
	if s.Mesh {
		return NewMesh(radices...)
	}
	return NewTorus(radices...)
}

// String renders the spec on one line for run headers.
func (s SimSpec) String() string {
	shape := s.Topo
	if shape == "" {
		kind := "torus"
		if s.Mesh {
			kind = "mesh"
		}
		shape = fmt.Sprintf("%s %d-ary %d-cube", kind, s.Radix, s.Dims)
	}
	return fmt.Sprintf("%s | %s(M=%d) sel=%s | %s load=%.2f msg=%d | vc=%d depth=%d T=%d %s | seed=%d",
		shape, s.Alg, s.Misroutes, s.Sel,
		s.Traffic, s.Load, s.MsgLen, s.VCs, s.Depth, s.Timeout, s.Recovery, s.Seed)
}
