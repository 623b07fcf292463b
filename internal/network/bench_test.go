package network

import (
	"fmt"
	"testing"

	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// The Step benchmark family lives here, not beside the figure benchmarks in
// the module root, because its full-scan and reference-scan baselines are
// reachable only through useFullScan / useReferenceScan. Benchmark and
// sub-benchmark names are load-bearing: CI's benchgate gates and the
// BENCH_5/BENCH_8 rows reference them (.github/workflows/ci.yml, kernel job).

// stepBenchNet builds topo under DISHA (M=0), uniform traffic, 32-flit
// messages, T_out = 8, seed 1, at the given load. activeSet=false selects
// the full scan, refScan the reference scan path, instead of the production
// kernel.
func stepBenchNet(b *testing.B, topo topology.Graph, load float64, activeSet, refScan bool) *Network {
	b.Helper()
	cfg := testConfig(topo, routing.Disha(0), load, 1)
	cfg.MsgLen = 32
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if !activeSet {
		useFullScan(b, n)
	}
	if refScan {
		useReferenceScan(b, n)
	}
	return n
}

// stepBenchLoop measures steady-state Step cost (ns and allocations) on n.
func stepBenchLoop(b *testing.B, n *Network) {
	n.Run(2000) // steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
	b.ReportMetric(float64(len(n.routers)), "routers/step")
}

func stepBenchAt(b *testing.B, radix int, load float64, activeSet, refScan bool) {
	stepBenchLoop(b, stepBenchNet(b, topology.MustTorus(radix, radix), load, activeSet, refScan))
}

// stepBenchGrid runs one kernel variant over the full load × size grid.
func stepBenchGrid(b *testing.B, bench func(b *testing.B, radix int, load float64)) {
	b.Helper()
	for _, radix := range []int{8, 16} {
		b.Run(fmt.Sprintf("torus%d", radix), func(b *testing.B) {
			for _, load := range []float64{0.1, 0.5, 0.9} {
				b.Run(fmt.Sprintf("load%.1f", load), func(b *testing.B) { bench(b, radix, load) })
			}
		})
	}
}

// stepBenchProfiled is stepBenchAt with the telemetry stack (hub, episode
// tracker, flight recorder) attached and the kernel phase profiler sampling
// every profileEvery cycles (0 = profiler off). The on/off twins isolate
// the profiler's own Step overhead from the base telemetry cost; CI gates
// their ratio.
func stepBenchProfiled(b *testing.B, radix int, load float64, activeSet bool, profileEvery int) {
	n := stepBenchNet(b, topology.MustTorus(radix, radix), load, activeSet, false)
	n.EnableTelemetry(telemetry.Options{ProfileEvery: profileEvery})
	stepBenchLoop(b, n)
}

// BenchmarkStepSerial is the full-scan baseline over the load × size grid:
// the optimized struct-of-arrays scans, every router visited every cycle. CI
// benchgates the active-set scheduler and the reference scan path against
// these numbers.
func BenchmarkStepSerial(b *testing.B) {
	stepBenchGrid(b, func(b *testing.B, radix int, load float64) {
		stepBenchAt(b, radix, load, false, false)
	})
}

// BenchmarkStepActiveSet runs the kernel with the active-set
// scheduler (what production runs) across the grid: at 0.1 load many
// routers sleep and the scheduler must not be slower than the full scan
// (an idle router costs the full scan a few bitmap words per phase, since
// its per-slot sweeps visit only live input slots; BenchmarkStepHighRadix
// holds the 1.5x claim where most routers are idle); by 0.9 load nearly
// every router is busy and the two converge. Results are byte-identical to
// the full scan at every load; only the wall time differs.
func BenchmarkStepActiveSet(b *testing.B) {
	stepBenchGrid(b, func(b *testing.B, radix int, load float64) {
		stepBenchAt(b, radix, load, true, false)
	})
}

// BenchmarkStepReference runs the full scan through the retained
// reference scan path — the faithful port of the pre-SoA per-slot walks.
// It is the denominator of the SoA speed claim: CI requires the optimized
// BenchmarkStepSerial to clear 1.15x this path's cycles/sec at 0.5 load on
// the 16x16 torus (ns/op ratio <= 0.87), with additional guard gates at 0.1
// and 0.9 load.
func BenchmarkStepReference(b *testing.B) {
	stepBenchGrid(b, func(b *testing.B, radix int, load float64) {
		stepBenchAt(b, radix, load, false, true)
	})
}

// BenchmarkStepProfiled measures the kernel phase profiler's overhead at
// the BenchmarkStepActiveSet/torus16/load0.5 operating point, with the telemetry
// stack attached in both runs so the comparison isolates the profiler:
// "off" has ProfileEvery=0, "on" samples every 32nd cycle (the disha-sim
// default is 64, so this is conservative). CI's benchgate requires on to
// stay within 11% of off — i.e. profiler-on Step throughput must remain
// >= 0.9x profiler-off.
func BenchmarkStepProfiled(b *testing.B) {
	b.Run("off", func(b *testing.B) { stepBenchProfiled(b, 16, 0.5, true, 0) })
	b.Run("on", func(b *testing.B) { stepBenchProfiled(b, 16, 0.5, true, 32) })
}

// BenchmarkStepHighRadix measures a high-radix digraph on which most routers
// are idle, where switch allocation's per-output cost and the active set's
// skipping both matter most: dragonfly(8,4) — 264 routers of radix 11,
// 4 VCs, 45 input slots each — at load 0.01 (like the repository
// benchmark's dragonfly2k-sparse).
// "serial" runs the optimized scans (slot-mask walks and per-output
// candidate masks, O(stride/64 + acting slots) per router),
// "reference" the reference scans (one full-stride walk per output port,
// O(deg × stride)), "active-set" the production kernel. CI benchgates
// serial against reference and active-set against serial.
func BenchmarkStepHighRadix(b *testing.B) {
	for _, v := range []struct {
		name               string
		activeSet, refScan bool
	}{{"serial", false, false}, {"reference", false, true}, {"active-set", true, false}} {
		b.Run("dragonfly8x4/"+v.name, func(b *testing.B) {
			stepBenchLoop(b, stepBenchNet(b, topology.MustDragonfly(8, 4), 0.01, v.activeSet, v.refScan))
		})
	}
}

// BenchmarkNewSimulatorDigraph measures a simulator's construction on a
// digraph, topology name to ready network: "cold" empties the process's
// table cache first, so the distance table, the Deadlock Buffer lane table
// and its Lemma 1 walk are all built; "warm" finds them cached, as every
// point after a process's first on that topology does. CI gates warm
// against cold on dragonfly8x4.
func BenchmarkNewSimulatorDigraph(b *testing.B) {
	for _, topo := range []struct{ bench, name string }{{"dragonfly8x4", "dragonfly-8x4"}, {"fattree8", "fattree-8"}} {
		for _, cache := range []string{"cold", "warm"} {
			b.Run(topo.bench+"/"+cache, func(b *testing.B) {
				b.Cleanup(topology.FlushSharedTables)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if cache == "cold" {
						topology.FlushSharedTables()
					}
					g, err := topology.Parse(topo.name)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := New(testConfig(g, routing.Disha(0), 0.01, 1)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
