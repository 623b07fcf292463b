package network

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// The Step benchmark family lives here, not beside the figure benchmarks in
// the module root, because its full-scan baseline is reachable only through
// useFullScan. Benchmark and sub-benchmark names are load-bearing: CI's
// benchgate gates and the BENCH_5/BENCH_8 rows reference them
// (.github/workflows/ci.yml, kernel job).

// stepBenchNet builds topo under DISHA (M=0), uniform traffic, 32-flit
// messages, T_out = 8, seed 1, at the given load. activeSet=false selects
// the full scan instead of the production kernel.
func stepBenchNet(b *testing.B, topo topology.Graph, load float64, activeSet bool) *Network {
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

func stepBenchAt(b *testing.B, radix int, load float64, activeSet bool) {
	stepBenchLoop(b, stepBenchNet(b, topology.MustTorus(radix, radix), load, activeSet))
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

// BenchmarkStepSerial is the full-scan baseline over the load × size grid:
// the slot-mask scans, every router visited every cycle. CI gates the scans
// at 0.5 and 0.9 load on the 16x16 torus through BenchmarkStepCalibrated.
func BenchmarkStepSerial(b *testing.B) {
	stepBenchGrid(b, func(b *testing.B, radix int, load float64) {
		stepBenchAt(b, radix, load, false)
	})
}

// BenchmarkStepActiveSet runs the kernel with the active-set
// scheduler (what production runs) across the grid: at 0.1 load many
// routers sleep and the scheduler must not be slower than the full scan
// (an idle router costs the full scan a few bitmap words per phase, since
// its per-slot sweeps visit only live input slots; BenchmarkStepHighRadix
// holds the 2x claim where most routers are idle); by 0.9 load nearly
// every router is busy and the two converge. Results are byte-identical to
// the full scan at every load; only the wall time differs.
func BenchmarkStepActiveSet(b *testing.B) {
	stepBenchGrid(b, func(b *testing.B, radix int, load float64) {
		stepBenchAt(b, radix, load, true)
	})
}

// calibrationSink keeps BenchmarkCalibrate's result alive.
var calibrationSink int

// calibration is BenchmarkCalibrate's fixed work, which no change to the
// simulator touches: 4096 steps of a xorshift walk over a 1 MiB table per
// op, each a dependent load, a data-dependent branch, a bit scan and a
// store, the instruction mix of the kernel's mask walks. Do not change it:
// every gate bound over it would move.
type calibration struct {
	table []uint64
	x     uint64
	sink  int
}

func newCalibration() *calibration {
	c := &calibration{table: make([]uint64, 1<<17), x: 0x9e3779b97f4a7c15}
	for i := range c.table {
		c.x ^= c.x << 13
		c.x ^= c.x >> 7
		c.x ^= c.x << 17
		c.table[i] = c.x
	}
	return c
}

// op runs one op of the fixed work.
func (c *calibration) op() {
	x, sink, table := c.x, c.sink, c.table
	for k := 0; k < 4096; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ uint64(sink)) & (1<<17 - 1)
		w := table[j]
		if w&1 != 0 {
			sink += bits.TrailingZeros64(w | 1<<63)
		} else {
			sink += bits.OnesCount64(w)
		}
		table[j] = w ^ x
	}
	c.x, c.sink = x, sink
	calibrationSink = sink
}

// BenchmarkCalibrate times the fixed work (calibration) alone, one op at a
// time.
func BenchmarkCalibrate(b *testing.B) {
	c := newCalibration()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.op()
	}
}

// stepInterleaved measures arm "on" against arm "off", two functions that
// each run one op: two networks' Steps that simulate the same run and
// differ only in what observes them or in which kernel steps them
// (BenchmarkStepHighRadix's full scan and active set), or one Step against
// the fixed work (BenchmarkStepCalibrated). One op is one call of each.
// The arms take turns in blocks of block ops and swap which goes first
// every block, so host drift lands on both. The benchmark reports the
// median over block pairs of on's time over off's as its "on/off" metric,
// so a GC pause that lands in one block moves one pair; CI's benchgate
// bounds it. A block must span whole periods of on's periodic work, so
// that every block carries the same share of it. Networks are run to their
// steady state (stepBenchSteady) first.
func stepInterleaved(b *testing.B, off, on func(), block int) {
	arms := [2]func(){off, on}
	var ratios []float64
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += block {
		steps := min(block, b.N-done)
		var spent [2]time.Duration
		for k := range 2 {
			arm := k ^ (done / block & 1)
			start := time.Now()
			for range steps {
				arms[arm]()
			}
			spent[arm] = time.Since(start)
		}
		ratios = append(ratios, float64(spent[1])/float64(spent[0]))
	}
	slices.Sort(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "on/off")
}

// stepBenchSteady runs each network 2000 cycles, to its steady state.
func stepBenchSteady(nets ...*Network) {
	for _, n := range nets {
		n.Run(2000)
	}
}

// BenchmarkStepCalibrated measures the kernel's scan-speed points against
// the fixed work as interleaved pairs: "off" is one calibration op, "on"
// one Step, in blocks of 32, and CI gates each "on/off". Timed in the
// same blocks, the two cannot land in different host phases, as
// separately timed BenchmarkStep and BenchmarkCalibrate tables can (the
// calibration read 63 µs in one table and 237 µs in another on a 2-vCPU
// host). The points: the torus active set at load 0.1, the torus full
// scan at 0.5 and 0.9, dragonfly(8,4)'s full scan at 0.01 and the sparse
// dragonfly(16,8) active set at 0.003 (the repository benchmark's
// dragonfly2k-sparse point).
func BenchmarkStepCalibrated(b *testing.B) {
	for _, c := range []struct {
		name      string
		topo      topology.Graph
		load      float64
		activeSet bool
	}{
		{"torus16/load0.1/active-set", topology.MustTorus(16, 16), 0.1, true},
		{"torus16/load0.5/serial", topology.MustTorus(16, 16), 0.5, false},
		{"torus16/load0.9/serial", topology.MustTorus(16, 16), 0.9, false},
		{"dragonfly8x4/serial", topology.MustDragonfly(8, 4), 0.01, false},
		{"dragonfly16x8/active-set", topology.MustDragonfly(16, 8), 0.003, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			n := stepBenchNet(b, c.topo, c.load, c.activeSet)
			stepBenchSteady(n)
			stepInterleaved(b, newCalibration().op, n.Step, 32)
		})
	}
}

// BenchmarkStepProfiled measures the kernel phase profiler's overhead at
// the BenchmarkStepActiveSet/torus16/load0.5 operating point. Both arms
// carry the telemetry stack (hub, episode tracker, flight recorder), so the
// comparison isolates the profiler: "off" has ProfileEvery=0, "on" samples
// every 32nd cycle (the disha-sim default is 64, so this is conservative),
// and a block of 32 steps profiles exactly one cycle of "on".
func BenchmarkStepProfiled(b *testing.B) {
	var arms [2]*Network
	for i, every := range []int{0, 32} {
		arms[i] = stepBenchNet(b, topology.MustTorus(16, 16), 0.5, true)
		arms[i].EnableTelemetry(telemetry.Options{ProfileEvery: every})
	}
	stepBenchSteady(arms[0], arms[1])
	stepInterleaved(b, arms[0].Step, arms[1].Step, 32)
}

// BenchmarkStepTraced measures the whole observation stack against none at
// the BenchmarkStepActiveSet/torus16/load0.5 operating point: "off" has no
// observer attached, "on" the default hub streaming JSONL to io.Discard
// (a sample and a registry publish every 100 cycles) and the phase profiler
// on every 25th cycle, so a block of 100 steps carries one sample and four
// profiled cycles of "on".
func BenchmarkStepTraced(b *testing.B) {
	off := stepBenchNet(b, topology.MustTorus(16, 16), 0.5, true)
	on := stepBenchNet(b, topology.MustTorus(16, 16), 0.5, true)
	on.EnableTelemetry(telemetry.Options{Writer: telemetry.NewJSONLWriter(io.Discard), ProfileEvery: 25})
	stepBenchSteady(off, on)
	stepInterleaved(b, off.Step, on.Step, 100)
}

// BenchmarkStepHighRadix measures a high-radix digraph on which most
// routers are idle, where switch allocation's per-output cost and the
// active set's skipping both matter most: dragonfly(8,4), 264 routers of
// radix 11, 4 VCs, 45 input slots each, at load 0.01. It interleaves the
// full scan (slot-mask walks and per-output candidate masks,
// O(stride/64 + acting slots) per router) as "off" with the production
// active-set kernel as "on", in blocks of 32 steps, and reports the median
// block-pair "on/off", which CI benchgates. The full scan alone and the
// sparse dragonfly(16,8) active set are timed against the fixed work by
// BenchmarkStepCalibrated.
func BenchmarkStepHighRadix(b *testing.B) {
	b.Run("dragonfly8x4", func(b *testing.B) {
		off := stepBenchNet(b, topology.MustDragonfly(8, 4), 0.01, false)
		on := stepBenchNet(b, topology.MustDragonfly(8, 4), 0.01, true)
		stepBenchSteady(off, on)
		stepInterleaved(b, off.Step, on.Step, 32)
	})
}

// BenchmarkNewNetwork measures one network's construction, topology name
// to ready network with its Lemma 1 check, on a cube and two named digraphs.
// Every build checks connectivity in O(links) and walks no (src, dst) pair;
// CI gates each arm against BenchmarkCalibrate.
func BenchmarkNewNetwork(b *testing.B) {
	for _, topo := range []struct{ bench, name string }{
		{"torus16", "torus-16x16"}, {"dragonfly8x4", "dragonfly-8x4"}, {"fattree8", "fattree-8"},
	} {
		b.Run(topo.bench, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
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

// benchObservation times one observation of a network between cycles, at
// the paper's Fig. 4 torus point (16x16, load 0.5, most routers busy) and on
// the sparse dragonfly (dragonfly(8,4), load 0.01, most routers asleep). The
// network steps once, untimed, before each observation, so every one reads
// the state of a new cycle.
func benchObservation(b *testing.B, observe func(b *testing.B, n *Network)) {
	for _, pt := range []struct {
		name string
		topo topology.Graph
		load float64
	}{
		{"torus16/load0.5", topology.MustTorus(16, 16), 0.5},
		{"dragonfly8x4/load0.01", topology.MustDragonfly(8, 4), 0.01},
	} {
		b.Run(pt.name, func(b *testing.B) {
			n := stepBenchNet(b, pt.topo, pt.load, true)
			n.Run(2000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n.Step()
				b.StartTimer()
				observe(b, n)
			}
		})
	}
}

// Sinks keeping the observation benchmarks' results alive.
var (
	fingerprintSink [32]byte
	wfgSink         core.WFGResult
)

// BenchmarkFingerprint times the state digest.
func BenchmarkFingerprint(b *testing.B) {
	benchObservation(b, func(_ *testing.B, n *Network) { fingerprintSink = n.Fingerprint() })
}

// BenchmarkSnapshotRestore times a snapshot and its restore into a fresh
// network (built untimed).
func BenchmarkSnapshotRestore(b *testing.B) {
	var buf bytes.Buffer
	benchObservation(b, func(b *testing.B, n *Network) {
		b.StopTimer()
		fresh, err := New(n.cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		buf.Reset()
		if err := n.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if err := fresh.Restore(&buf); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkAnalyzeWFG times the wait-for-graph analysis episode labelling
// and flight-recorder dumps run over every router.
func BenchmarkAnalyzeWFG(b *testing.B) {
	benchObservation(b, func(_ *testing.B, n *Network) { wfgSink = core.AnalyzeWFG(n.Routers()) })
}
