package disha

import (
	"flag"
	"fmt"
)

// SimSpec is the command-line form of a SimConfig: one field per simulation
// flag, holding the name or number as typed. It is the single definition of
// those flags and of how they resolve to a SimConfig, shared by disha-sim
// and disha-bisect (whose per-side overrides are flag assignments on a copy).
type SimSpec struct {
	// Radix, Dims and Mesh describe a k-ary n-cube; a non-empty Topo (e.g.
	// "fullmesh-16", see ParseTopology) overrides all three.
	Radix, Dims int
	Mesh        bool
	Topo        string
	// Alg is disha, dor, turn, dally, duato or duato-strict; Misroutes is
	// Disha's misroute bound M.
	Alg       string
	Misroutes int
	// Sel is random or min-congestion.
	Sel string
	// Traffic is uniform, bit-reversal, transpose, hotspot, complement or
	// tornado; HotspotFraction applies to hotspot only.
	Traffic         string
	HotspotFraction float64
	Load            float64
	MsgLen          int
	VCs, Depth      int
	Timeout         int
	// Recovery is sequential, concurrent or abort-retry.
	Recovery     string
	Throttle, Rx int
	Seed         uint64
}

// DefaultSimSpec returns disha-sim's defaults: the paper's 16x16 torus with
// 4 VCs of depth 2, 32-flit messages and T_out = 8, Disha routing with
// sequential recovery under uniform traffic at load 0.4.
func DefaultSimSpec() SimSpec {
	return SimSpec{
		Radix: 16, Dims: 2,
		Alg: "disha", Sel: "random",
		Traffic: "uniform", HotspotFraction: 0.05,
		Load: 0.4, MsgLen: 32, VCs: 4, Depth: 2, Timeout: 8,
		Recovery: "sequential", Rx: 1, Seed: 1,
	}
}

// Flags registers one flag per field on fs, with the spec's current values
// as the defaults; parsing fs (or calling fs.Set) then writes into s.
func (s *SimSpec) Flags(fs *flag.FlagSet) {
	fs.IntVar(&s.Radix, "radix", s.Radix, "nodes per dimension")
	fs.IntVar(&s.Dims, "dims", s.Dims, "dimensions")
	fs.BoolVar(&s.Mesh, "mesh", s.Mesh, "use a mesh instead of a torus")
	fs.StringVar(&s.Topo, "topo", s.Topo, `topology by name: "torus-8x8", "mesh-4x4x2", "hypercube-6", "fullmesh-16", "dragonfly-4x2", "fattree-4" (overrides -radix/-dims/-mesh)`)
	fs.StringVar(&s.Alg, "alg", s.Alg, "routing algorithm: disha, dor, turn, dally, duato, duato-strict")
	fs.IntVar(&s.Misroutes, "misroutes", s.Misroutes, "Disha misroute bound M")
	fs.StringVar(&s.Sel, "sel", s.Sel, "selection function: random, min-congestion")
	fs.StringVar(&s.Traffic, "traffic", s.Traffic, "pattern: uniform, bit-reversal, transpose, hotspot, complement, tornado")
	fs.Float64Var(&s.HotspotFraction, "hotspot-fraction", s.HotspotFraction, "hot-spot traffic fraction")
	fs.Float64Var(&s.Load, "load", s.Load, "offered load (fraction of capacity)")
	fs.IntVar(&s.MsgLen, "msglen", s.MsgLen, "message length in flits")
	fs.IntVar(&s.VCs, "vcs", s.VCs, "virtual channels per physical channel")
	fs.IntVar(&s.Depth, "depth", s.Depth, "per-VC buffer depth in flits")
	fs.IntVar(&s.Timeout, "timeout", s.Timeout, "deadlock time-out T_out (recovery algorithms)")
	fs.StringVar(&s.Recovery, "recovery", s.Recovery, "recovery mode for disha: sequential, concurrent, abort-retry")
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

	var alg Algorithm
	switch s.Alg {
	case "disha":
		alg = DishaRouting(s.Misroutes)
	case "dor":
		alg = DOR()
	case "turn":
		alg = NegativeFirst()
	case "dally":
		alg = DallyAoki()
	case "duato":
		alg = Duato()
	case "duato-strict":
		alg = DuatoStrict()
	default:
		return SimConfig{}, fmt.Errorf("unknown algorithm %q", s.Alg)
	}

	var sel Selection
	switch s.Sel {
	case "random":
		sel = RandomSelection()
	case "min-congestion":
		sel = MinCongestionSelection()
	default:
		return SimConfig{}, fmt.Errorf("unknown selection %q", s.Sel)
	}

	pattern, err := s.pattern(topo)
	if err != nil {
		return SimConfig{}, err
	}

	var mode RecoveryMode
	switch s.Recovery {
	case "sequential":
		mode = RecoverySequential
	case "concurrent":
		mode = RecoveryConcurrent
	case "abort-retry":
		mode = RecoveryAbortRetry
	default:
		return SimConfig{}, fmt.Errorf("unknown recovery mode %q", s.Recovery)
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
		DisableRecovery:   s.Alg != "disha",
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

func (s SimSpec) pattern(topo Graph) (Pattern, error) {
	switch s.Traffic {
	case "uniform":
		return NewUniform(topo)
	case "bit-reversal":
		return BitReversal(topo)
	case "hotspot":
		base, err := NewUniform(topo)
		if err != nil {
			return nil, err
		}
		return NewHotSpot(base, Node(topo.Nodes()/3), s.HotspotFraction)
	case "transpose", "complement", "tornado":
		cube, ok := topo.(Topology)
		if !ok {
			return nil, fmt.Errorf("%s traffic needs cube coordinates, which %s does not have (try uniform or bit-reversal)", s.Traffic, topo.Name())
		}
		switch s.Traffic {
		case "transpose":
			return Transpose(cube)
		case "complement":
			return Complement(cube), nil
		default:
			return Tornado(cube), nil
		}
	}
	return nil, fmt.Errorf("unknown traffic %q", s.Traffic)
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
