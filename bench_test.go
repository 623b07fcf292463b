// Benchmarks regenerating the paper's evaluation, one per table/figure.
//
// Each figure benchmark runs a representative point of the corresponding
// experiment on an 8x8 torus with shortened windows (the full 16x16 sweeps
// are produced by cmd/disha-sweep) and reports the quantities the paper
// plots as custom metrics: cycles of latency, normalized throughput, and
// token seizures per delivered packet. The ablation benchmarks cover the
// design choices called out in DESIGN.md (Deadlock Buffer depth, token
// speed, selection function, crossbar allocation policy, VC count).
package disha_test

import (
	"testing"

	disha "repro"
)

// benchPoint runs warmup+measure cycles of one configuration and reports
// figure-style metrics.
func benchPoint(b *testing.B, cfg disha.SimConfig, warmup, measure int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		sim, err := disha.NewSimulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sim.Run(warmup)
		start := sim.Counters()
		var lat disha.LatencyCollector
		sim.OnDeliver(func(p *disha.Packet) { lat.Add(float64(p.Age())) })
		sim.Run(measure)
		end := sim.Counters()

		delivered := end.PacketsDelivered - start.PacketsDelivered
		if delivered == 0 {
			b.Fatal("benchmark point delivered nothing")
		}
		flits := end.FlitsDelivered - start.FlitsDelivered
		nodes := float64(cfg.Topo.Nodes())
		// Normalized against uniform capacity of a 2D torus: 4 channels per
		// node over the pattern-independent mean distance is close enough
		// for a benchmark metric; exact normalization lives in the harness.
		accepted := float64(flits) / (float64(measure) * nodes)
		b.ReportMetric(lat.Mean(), "latency-cycles")
		b.ReportMetric(accepted, "flits/node/cycle")
		b.ReportMetric(float64(end.TokenSeizures-start.TokenSeizures)/float64(delivered), "seizures/pkt")
	}
}

func torus8() disha.Topology { return disha.Torus(8, 8) }

// BenchmarkFig3aDeadlockFrequency measures the deadlock characterization
// experiment: Disha M=3 under uniform traffic near saturation with the
// paper's two contrast time-outs. The seizures/pkt metric is Figure 3a's
// y-axis (the paper reports < 2%).
func BenchmarkFig3aDeadlockFrequency(b *testing.B) {
	for _, tout := range []disha.Cycle{4, 64} {
		b.Run(map[disha.Cycle]string{4: "tout4", 64: "tout64"}[tout], func(b *testing.B) {
			topo := torus8()
			benchPoint(b, disha.SimConfig{
				Topo: topo, Algorithm: disha.DishaRouting(3), Pattern: disha.Uniform(topo),
				LoadRate: 0.6, MsgLen: 16, Timeout: tout,
			}, 1000, 3000)
		})
	}
}

// BenchmarkFig3bTimeoutSelection sweeps T_out at a fixed load (Figure 3b's
// latency-vs-timeout tradeoff).
func BenchmarkFig3bTimeoutSelection(b *testing.B) {
	for _, tc := range []struct {
		name string
		tout disha.Cycle
	}{{"tout4", 4}, {"tout8", 8}, {"tout16", 16}, {"tout64", 64}} {
		b.Run(tc.name, func(b *testing.B) {
			topo := torus8()
			benchPoint(b, disha.SimConfig{
				Topo: topo, Algorithm: disha.DishaRouting(3), Pattern: disha.Uniform(topo),
				LoadRate: 0.5, MsgLen: 16, Timeout: tc.tout,
			}, 1000, 3000)
		})
	}
}

// comparisonBench runs the Figures 4-6 scheme set under one traffic pattern.
func comparisonBench(b *testing.B, pattern func(disha.Graph) (disha.Pattern, error), load float64) {
	b.Helper()
	type curve struct {
		name     string
		alg      disha.Algorithm
		sel      disha.Selection
		recovery bool
	}
	curves := []curve{
		{"disha-m0", disha.DishaRouting(0), nil, true},
		{"disha-m3", disha.DishaRouting(3), nil, true},
		{"duato", disha.Duato(), nil, false},
		{"dally-aoki", disha.DallyAoki(), disha.MinCongestionSelection(), false},
		{"turn", disha.NegativeFirst(), nil, false},
		{"dor", disha.DOR(), nil, false},
	}
	for _, c := range curves {
		c := c
		b.Run(c.name, func(b *testing.B) {
			topo := torus8()
			p, err := pattern(topo)
			if err != nil {
				b.Fatal(err)
			}
			benchPoint(b, disha.SimConfig{
				Topo: topo, Algorithm: c.alg, Selection: c.sel, Pattern: p,
				LoadRate: load, MsgLen: 16, Timeout: 8, DisableRecovery: !c.recovery,
			}, 1000, 3000)
		})
	}
}

// BenchmarkFig4Uniform is the uniform-traffic comparison (Figure 4).
func BenchmarkFig4Uniform(b *testing.B) {
	comparisonBench(b, func(t disha.Graph) (disha.Pattern, error) { return disha.Uniform(t), nil }, 0.5)
}

// BenchmarkFig5BitReversal is the bit-reversal comparison (Figure 5).
func BenchmarkFig5BitReversal(b *testing.B) {
	comparisonBench(b, disha.BitReversal, 0.4)
}

// BenchmarkFig6Transpose is the matrix-transpose comparison (Figure 6).
func BenchmarkFig6Transpose(b *testing.B) {
	comparisonBench(b, func(g disha.Graph) (disha.Pattern, error) { return disha.Transpose(g.(disha.Topology)) }, 0.4)
}

// BenchmarkFig7HotSpot is the hot-spot comparison (Figure 7): 5% of all
// traffic to one node; the paper's early-saturation case where misrouting
// helps.
func BenchmarkFig7HotSpot(b *testing.B) {
	comparisonBench(b, func(g disha.Graph) (disha.Pattern, error) {
		t := g.(disha.Topology)
		return disha.HotSpot(disha.Uniform(t), t.NodeAt(disha.Coord{3, 5}), 0.05), nil
	}, 0.2)
}

// BenchmarkCostModelTable evaluates the Section 3.4 cost table (router
// data-through delay under Chien's model).
func BenchmarkCostModelTable(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		rows := disha.PaperCostTable()
		sink += rows[1].Total - rows[0].Total
	}
	rows := disha.PaperCostTable()
	b.ReportMetric(rows[0].Total, "star-ns")
	b.ReportMetric(rows[1].Total, "disha-ns")
	_ = sink
}

// --- Ablations (design choices called out in DESIGN.md) ------------------------

func ablationConfig(topo disha.Topology) disha.SimConfig {
	return disha.SimConfig{
		Topo: topo, Algorithm: disha.DishaRouting(0), Pattern: disha.Uniform(topo),
		LoadRate: 0.6, MsgLen: 16, Timeout: 8,
	}
}

// BenchmarkAblationTokenSpeed varies how fast the recovery Token circulates.
func BenchmarkAblationTokenSpeed(b *testing.B) {
	for _, hops := range []int{1, 4, 16, 64} {
		b.Run(map[int]string{1: "hops1", 4: "hops4", 16: "hops16", 64: "hops64"}[hops], func(b *testing.B) {
			topo := torus8()
			cfg := ablationConfig(topo)
			cfg.TokenHopsPerCycle = hops
			benchPoint(b, cfg, 1000, 3000)
		})
	}
}

// BenchmarkAblationSelection compares the selection functions the paper
// discusses (random vs minimum-congestion).
func BenchmarkAblationSelection(b *testing.B) {
	for _, tc := range []struct {
		name string
		sel  disha.Selection
	}{{"random", disha.RandomSelection()}, {"min-congestion", disha.MinCongestionSelection()}} {
		b.Run(tc.name, func(b *testing.B) {
			topo := torus8()
			cfg := ablationConfig(topo)
			cfg.Selection = tc.sel
			benchPoint(b, cfg, 1000, 3000)
		})
	}
}

// BenchmarkAblationVCs varies the virtual channel count: the paper argues
// VCs should serve flow control only, with adaptivity independent of them.
func BenchmarkAblationVCs(b *testing.B) {
	for _, vcs := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "vc1", 2: "vc2", 4: "vc4", 8: "vc8"}[vcs], func(b *testing.B) {
			topo := torus8()
			cfg := ablationConfig(topo)
			cfg.VCs = vcs
			benchPoint(b, cfg, 1000, 3000)
		})
	}
}

// BenchmarkAblationBufferDepth varies edge buffer depth (the paper uses
// shallow depth-2 buffers to keep routers fast).
func BenchmarkAblationBufferDepth(b *testing.B) {
	for _, d := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "depth1", 2: "depth2", 4: "depth4", 8: "depth8"}[d], func(b *testing.B) {
			topo := torus8()
			cfg := ablationConfig(topo)
			cfg.BufferDepth = d
			benchPoint(b, cfg, 1000, 3000)
		})
	}
}

// BenchmarkAblationCrossbarPolicy compares flit-by-flit against
// packet-by-packet crossbar allocation (Section 3.3).
func BenchmarkAblationCrossbarPolicy(b *testing.B) {
	for _, tc := range []struct {
		name  string
		alloc disha.AllocPolicy
	}{{"flit-by-flit", disha.FlitByFlit}, {"packet-by-packet", disha.PacketByPacket}} {
		b.Run(tc.name, func(b *testing.B) {
			topo := torus8()
			cfg := ablationConfig(topo)
			cfg.Alloc = tc.alloc
			benchPoint(b, cfg, 1000, 3000)
		})
	}
}

// BenchmarkAblationDuatoEscapePolicy brackets baseline strength: liberal
// escape (return to adaptive allowed, as the DISHA paper describes) versus
// strict permanent escape (how weaker 1995-era implementations behaved).
func BenchmarkAblationDuatoEscapePolicy(b *testing.B) {
	for _, tc := range []struct {
		name string
		alg  disha.Algorithm
	}{{"liberal", disha.Duato()}, {"strict", disha.DuatoStrict()}} {
		b.Run(tc.name, func(b *testing.B) {
			topo := torus8()
			benchPoint(b, disha.SimConfig{
				Topo: topo, Algorithm: tc.alg, Pattern: disha.Uniform(topo),
				LoadRate: 0.6, MsgLen: 16, DisableRecovery: true,
			}, 1000, 3000)
		})
	}
}

// BenchmarkSimulatorCycleRate measures raw simulation speed: router-cycles
// per second at a loaded steady state (for capacity planning of sweeps).
func BenchmarkSimulatorCycleRate(b *testing.B) {
	topo := disha.Torus(16, 16)
	sim, err := disha.NewSimulator(disha.SimConfig{
		Topo: topo, Algorithm: disha.DishaRouting(0), Pattern: disha.Uniform(topo),
		LoadRate: 0.5, MsgLen: 32, Timeout: 8, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	sim.Run(2000) // steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
	b.ReportMetric(float64(topo.Nodes()), "routers/step")
}

// BenchmarkAblationRecoveryMode answers the paper's future-work question —
// "how much performance is enhanced with concurrent recovery" — by running
// the same deadlock-prone configuration (1 VC, depth-1 buffers, saturating
// load) under token-serialized sequential recovery and under token-free
// concurrent recovery.
func BenchmarkAblationRecoveryMode(b *testing.B) {
	for _, tc := range []struct {
		name string
		mode disha.RecoveryMode
	}{{"sequential", disha.RecoverySequential}, {"concurrent", disha.RecoveryConcurrent}, {"abort-retry", disha.RecoveryAbortRetry}} {
		b.Run(tc.name, func(b *testing.B) {
			topo := torus8()
			benchPoint(b, disha.SimConfig{
				Topo: topo, Algorithm: disha.DishaRouting(0), Pattern: disha.Uniform(topo),
				LoadRate: 0.8, MsgLen: 16, VCs: 1, BufferDepth: 1, Timeout: 8,
				Recovery: tc.mode,
			}, 1000, 3000)
		})
	}
}

// BenchmarkAblationInjectionThrottle measures the injection-limitation
// scheme the paper cites as a deadlock-frequency reducer.
func BenchmarkAblationInjectionThrottle(b *testing.B) {
	for _, tc := range []struct {
		name     string
		throttle int
	}{{"unthrottled", 0}, {"throttle4", 4}, {"throttle2", 2}} {
		b.Run(tc.name, func(b *testing.B) {
			topo := torus8()
			cfg := ablationConfig(topo)
			cfg.InjectionThrottle = tc.throttle
			cfg.LoadRate = 0.8
			benchPoint(b, cfg, 1000, 3000)
		})
	}
}

// BenchmarkAblationReceptionChannels measures the other lever the paper
// names: draining packets faster at the destination.
func BenchmarkAblationReceptionChannels(b *testing.B) {
	for _, rx := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "rx1", 2: "rx2", 4: "rx4"}[rx], func(b *testing.B) {
			topo := torus8()
			cfg := ablationConfig(topo)
			cfg.ReceptionChannels = rx
			benchPoint(b, cfg, 1000, 3000)
		})
	}
}

// BenchmarkAblationBurstyTraffic tests the conclusions' claim that Disha
// "performs well under bursty traffic": the same long-run load delivered
// smoothly vs in on/off bursts, for Disha and Duato.
func BenchmarkAblationBurstyTraffic(b *testing.B) {
	type cse struct {
		name  string
		alg   disha.Algorithm
		burst bool
	}
	for _, c := range []cse{
		{"disha-smooth", disha.DishaRouting(0), false},
		{"disha-bursty", disha.DishaRouting(0), true},
		{"duato-smooth", disha.Duato(), false},
		{"duato-bursty", disha.Duato(), true},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			topo := torus8()
			cfg := disha.SimConfig{
				Topo: topo, Algorithm: c.alg, Pattern: disha.Uniform(topo),
				LoadRate: 0.4, MsgLen: 16,
			}
			if c.alg.Name() == "disha-m0" {
				cfg.Timeout = 8
			} else {
				cfg.DisableRecovery = true
			}
			if c.burst {
				cfg.Burst = disha.BurstConfig{MeanBurst: 50, MeanIdle: 150}
			}
			benchPoint(b, cfg, 1000, 3000)
		})
	}
}

// BenchmarkAblationFaultTolerance measures Disha on a torus with 0, 2 and 4
// failed links (the paper's fault-tolerance capability claim): throughput
// degrades gracefully instead of wedging.
func BenchmarkAblationFaultTolerance(b *testing.B) {
	for _, faults := range []int{0, 2, 4} {
		name := map[int]string{0: "faults0", 2: "faults2", 4: "faults4"}[faults]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				topo := torus8()
				sim, err := disha.NewSimulator(disha.SimConfig{
					Topo: topo, Algorithm: disha.DishaRouting(3), Pattern: disha.Uniform(topo),
					LoadRate: 0.4, MsgLen: 16, Timeout: 8, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				for f := 0; f < faults; f++ {
					node := disha.Node((f*13 + 5) % topo.Nodes())
					if err := sim.FailLink(node, f%topo.Degree()); err != nil {
						b.Fatal(err)
					}
				}
				sim.Run(1000)
				start := sim.Counters()
				sim.Run(3000)
				end := sim.Counters()
				flits := end.FlitsDelivered - start.FlitsDelivered
				b.ReportMetric(float64(flits)/(3000*float64(topo.Nodes())), "flits/node/cycle")
				b.ReportMetric(float64(end.MisrouteHops-start.MisrouteHops), "misroute-hops")
			}
		})
	}
}

// BenchmarkAblationAdaptiveTimeout compares fixed vs self-tuning T_out at
// an aggressively small base (the paper's "programmable T_out" future work).
func BenchmarkAblationAdaptiveTimeout(b *testing.B) {
	for _, tc := range []struct {
		name     string
		adaptive bool
	}{{"fixed-t2", false}, {"adaptive-t2", true}} {
		b.Run(tc.name, func(b *testing.B) {
			topo := torus8()
			benchPoint(b, disha.SimConfig{
				Topo: topo, Algorithm: disha.DishaRouting(0), Pattern: disha.Uniform(topo),
				LoadRate: 0.6, MsgLen: 16, Timeout: 2, AdaptiveTimeout: tc.adaptive,
			}, 1000, 3000)
		})
	}
}
