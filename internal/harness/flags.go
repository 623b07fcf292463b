package harness

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// PointFlags is the command line of one simulation point, shared by
// disha-sim and disha-bisect (whose -a/-b overrides are flag assignments on a
// copy). The spec-wide flags write into Spec, whose Algs and Loads stay
// unset; the rest hold the one curve by name, its T_out, the load and the
// hot-spot fraction, and Point makes them the spec's one curve and load.
// Recovery is "off" or a recovery mode; it arms only an algorithm that needs
// recovery (routing.NeedsRecovery), so avoidance algorithms run without.
type PointFlags struct {
	Spec                  Spec
	Alg, Sel, Recovery    string
	Timeout               int
	Load, HotspotFraction float64
}

// DefaultPointFlags returns disha-sim's defaults: the paper's 16x16 torus and
// router (4 VCs of depth 2, T_out = 8), 32-flit messages, Disha routing with
// sequential recovery under uniform traffic at load 0.4, seed 1.
func DefaultPointFlags() PointFlags {
	rc := router.Default()
	return PointFlags{
		Spec: Spec{Topology: "torus-16x16", Traffic: "uniform", MsgLen: network.DefaultMsgLen,
			VCs: rc.VCs, BufferDepth: rc.BufferDepth, Rx: rc.ReceptionChannels, Seed: 1},
		Alg: "disha", Sel: routing.Random().Name(), Recovery: rc.Recovery.String(), Timeout: int(rc.Timeout),
		Load: 0.4, HotspotFraction: hotspotFraction,
	}
}

// Flags registers one flag per value on fs, with the current values as the
// defaults; parsing fs (or calling fs.Set) then writes into p. The accepted
// names in the help text come from the tables that resolve them.
func (p *PointFlags) Flags(fs *flag.FlagSet) {
	list := func(names []string) string { return strings.Join(names, ", ") }
	s := &p.Spec
	fs.StringVar(&s.Topology, "topo", s.Topology, `topology by name: "torus-8x8", "mesh-4x4x2", "hypercube-6", "fullmesh-16", "dragonfly-4x2", "fattree-4"`)
	fs.StringVar(&p.Alg, "alg", p.Alg, "routing algorithm: "+list(routing.Names())+", or disha-m<N> for misroute bound N")
	fs.StringVar(&p.Sel, "sel", p.Sel, "selection function: "+list(routing.SelectionNames()))
	fs.StringVar(&s.Traffic, "traffic", s.Traffic, "pattern: "+list(traffic.Names()))
	fs.Float64Var(&p.HotspotFraction, "hotspot-fraction", p.HotspotFraction, "hot-spot traffic fraction")
	fs.Float64Var(&p.Load, "load", p.Load, "offered load (fraction of capacity)")
	fs.IntVar(&s.MsgLen, "msglen", s.MsgLen, "message length in flits")
	fs.IntVar(&s.VCs, "vcs", s.VCs, "virtual channels per physical channel, at most 127")
	fs.IntVar(&s.BufferDepth, "depth", s.BufferDepth, "per-VC buffer depth in flits, at most 255")
	fs.IntVar(&p.Timeout, "timeout", p.Timeout, "deadlock time-out T_out >= 1, for the disha algorithms (avoidance algorithms run without recovery and ignore it)")
	fs.StringVar(&p.Recovery, "recovery", p.Recovery, "recovery mode for the disha algorithms, or off: off, "+list(router.RecoveryModeNames()))
	fs.IntVar(&s.Throttle, "throttle", s.Throttle, "max outstanding packets per node (0 = unthrottled)")
	fs.IntVar(&s.Rx, "rx", s.Rx, "reception channels per node")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "random seed")
}

// Point resolves the flags into a normalized one-point spec. An unknown name,
// an out-of-range value, a pattern the topology cannot carry or a curve it
// cannot run is a one-line error naming the value, never a panic; what
// remains (load, buffer sizes, the recovery lane) is network.New's to check.
func (p PointFlags) Point() (*Spec, error) {
	names := algNames{Algorithm: p.Alg, Selection: p.Sel, Mode: p.Recovery}
	if p.Recovery == "off" {
		names.Mode = ""
	}
	alg, err := names.resolve()
	if err != nil {
		return nil, err
	}
	alg.Recovery = p.Recovery != "off" && routing.NeedsRecovery(alg.Algorithm)
	if !alg.Recovery {
		alg.Mode = router.RecoverySequential
	} else if p.Timeout < 1 {
		// A curve's Timeout 0 is the paper's 8; the off switch is -recovery off.
		return nil, fmt.Errorf("T_out must be ≥ 1, have -timeout %d; -recovery off runs without recovery", p.Timeout)
	} else {
		alg.Timeout = sim.Cycle(p.Timeout)
	}
	s := p.Spec
	s.Algs, s.Loads, s.HotspotFraction = []AlgSpec{alg}, []float64{p.Load}, &p.HotspotFraction
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	return &s, nil
}
