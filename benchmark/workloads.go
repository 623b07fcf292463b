package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	disha "repro"
)

// workload is one set of generated inputs. Exactly one of kernel and serve is
// set: a kernel workload drives one single-threaded simulator through the
// root facade, the serving workload drives the job server over loopback HTTP.
type workload struct {
	name   string
	kernel *kernelSpec
	serve  *serveSpec
}

// kernelSpec is a flit-level simulation at one operating point. Everything
// not listed keeps the paper's router defaults: 32-flit messages, depth-2
// virtual channels, T_out = 8, random selection, sequential Token recovery.
type kernelSpec struct {
	topo    func() (disha.Graph, error)
	pattern func(disha.Graph) (disha.Pattern, error)
	vcs     int
	msgLen  int // flits per message; 0 is the paper's 32
	load    float64
	warmup  int // cycles run before the first timed block; part of set-up
	block   int // cycles per timed block
	// rate is the simulated cycles per host second this workload reaches on
	// the reference sandbox. It only sizes the cycle plan from -seconds, so
	// that the plan — and with it every simulated result — is a function of
	// the arguments and never of how fast the host happened to be.
	rate float64
}

// serveSpec is the request the closed-loop client submits each round, with a
// fresh seed per round. jobRate plays the part of kernelSpec.rate: rounds
// (one cold job plus its cached resubmission) per host second.
type serveSpec struct {
	figure, scale   string
	warmup, measure int
	loads           []float64
	jobRate         float64
}

func uniform(g disha.Graph) (disha.Pattern, error) { return disha.NewUniform(g) }

func torus(radix int) func() (disha.Graph, error) {
	return func() (disha.Graph, error) { return disha.NewTorus(radix, radix) }
}

func dragonfly(a, h int) func() (disha.Graph, error) {
	return func() (disha.Graph, error) { return disha.NewDragonfly(a, h) }
}

// workloads returns the four workloads in BENCHMARK.json order. toy shrinks
// the networks and requests so the smoke test finishes in seconds; names,
// metrics and code paths are the same.
func workloads(toy bool) []workload {
	radix, a, h := 16, 16, 8
	warm := 1
	req := serveSpec{figure: "4", scale: "small", warmup: 50, measure: 100, jobRate: 5}
	if toy {
		radix, a, h = 4, 4, 2
		warm = 10
		req.loads = []float64{0.3}
		req.measure = 40
	}
	return []workload{
		{name: "torus16-uniform", kernel: &kernelSpec{
			topo: torus(radix), pattern: uniform, vcs: 4, load: 0.5,
			warmup: 2000 / warm, block: 250, rate: 5300}},
		{name: "torus16-deadlock", kernel: &kernelSpec{
			topo: torus(radix), pattern: disha.BitReversal, vcs: 2, load: 0.4,
			warmup: 2000 / warm, block: 250, rate: 10000}},
		{name: "dragonfly2k-sparse", kernel: &kernelSpec{
			topo: dragonfly(a, h), pattern: uniform, vcs: 4, load: 0.003,
			warmup: 1000 / warm, block: 50, rate: 1700}},
		{name: "serve-small-points", serve: &req},
	}
}

// drainLimit bounds Drain. The paper's safety claim is that a presumed-
// deadlocked network always empties; a run that needs more cycles than this
// after injection stops has failed it.
const drainLimit = 100000

func (k *kernelSpec) config(topo disha.Graph, seed uint64) (disha.SimConfig, error) {
	pat, err := k.pattern(topo)
	if err != nil {
		return disha.SimConfig{}, err
	}
	return disha.SimConfig{
		Topo: topo, Algorithm: disha.DishaRouting(0), Pattern: pat,
		LoadRate: k.load, MsgLen: k.msgLen, VCs: k.vcs, BufferDepth: 2, Timeout: 8,
		Seed: seed,
	}, nil
}

// blocksPerSeed sizes the timed part of one seed so that all seeds together
// take about `seconds` on the reference sandbox.
func (k *kernelSpec) blocksPerSeed(seconds float64, seeds int) int {
	return max(1, int(math.Round(k.rate*seconds/float64(seeds*k.block))))
}

func (s *serveSpec) rounds(seconds float64) int {
	return max(1, int(math.Round(s.jobRate*seconds)))
}

// workerSlots is both the fleet worker's and the engine's parallelism in the
// serving workload.
func workerSlots() int { return min(2, runtime.NumCPU()) }

// runConfig is what one pass over one workload is run with.
type runConfig struct {
	seeds   []uint64
	seconds float64
	workDir string // scratch for the worker's checkpoint files
	// deadline stops a pass that runs far over its plan (a much slower
	// host) at the next block or job boundary, so it still ends within the
	// driver's per-run cap. A truncated pass is reported as a failed
	// operation: its simulated results are not the plan's.
	deadline time.Time
}

// metric is one reported number. Exact marks a simulated quantity: a function
// of (seeds, config) that must repeat bit for bit on the same commit, and
// across commits that only make the simulator faster.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Exact   bool    `json:"exact,omitempty"`
}

// metricSet collects one pass's metrics by name; units come from
// BENCHMARK.json when the pass is printed.
type metricSet map[string]metric

func (m metricSet) host(name string, v float64, samples int) {
	m[name] = metric{Value: v, Samples: samples}
}

func (m metricSet) sim(name string, v float64, samples int) {
	m[name] = metric{Value: v, Samples: samples, Exact: true}
}

func (m metricSet) names() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ops counts operations for the failed-share check: one per timed block, per
// job, and per correctness check.
type ops struct {
	attempted, failed int
	failures          []string
}

func (o *ops) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.failures) < 20 {
			o.failures = append(o.failures, fmt.Sprintf(format, args...))
		}
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
