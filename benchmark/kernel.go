package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	disha "repro"
	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// kernelSim is one constructed and warmed-up simulator with what building it
// cost.
type kernelSim struct {
	sim    *disha.Simulator
	hub    *disha.Telemetry // nil unless the traced pass enabled telemetry
	cfg    disha.SimConfig
	topoMS float64
	newMS  float64
	setupS float64 // topology + NewSimulator + warm-up cycles
}

// setup builds the topology and the simulator and runs the warm-up cycles:
// everything between "the workload starts" and the first timed block.
func (k *kernelSpec) setup(seed uint64, tr *tracer, parent int, tel *disha.TelemetryOptions) (*kernelSim, error) {
	ks := &kernelSim{}
	t0 := time.Now()
	id := tr.start(parent, "setup")
	defer tr.end(id)

	var topo disha.Graph
	var err error
	ks.topoMS = tr.timed(id, "topology.build", func() { topo, err = k.topo() })
	if err != nil {
		return nil, err
	}
	if ks.cfg, err = k.config(topo, seed); err != nil {
		return nil, err
	}
	ks.newMS = tr.timed(id, "network.new", func() { ks.sim, err = disha.NewSimulator(ks.cfg) })
	if err != nil {
		return nil, err
	}
	if tel != nil {
		ks.hub = ks.sim.EnableTelemetry(*tel)
	}
	tr.timed(id, "network.warmup", func() { ks.sim.Run(k.warmup) })
	ks.setupS = time.Since(t0).Seconds()
	return ks, nil
}

// timedRun is the measured part of one seed: n blocks of k.block cycles.
type timedRun struct {
	blockS      []float64 // wall seconds per block
	start, end  disha.Counters
	truncated   bool
	wallS       float64
	mallocs     uint64
	blockCycles int
}

// run times n blocks, feeding every delivered packet's creation-to-delivery
// latency to lat. deadline truncates a run on a far slower host.
func (ks *kernelSim) run(k *kernelSpec, n int, lat *latencyHist, tr *tracer, parent int, deadline time.Time) timedRun {
	r := timedRun{blockCycles: k.block, blockS: make([]float64, 0, n)}
	ks.sim.OnDeliver(func(p *disha.Packet) { lat.add(int64(p.Age())) })
	defer ks.sim.OnDeliver(nil)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs
	r.start = ks.sim.Counters()
	t0 := time.Now()
	for b := 0; b < n; b++ {
		if time.Now().After(deadline) {
			r.truncated = true
			break
		}
		id := tr.start(parent, "network.run")
		tb := time.Now()
		ks.sim.Run(k.block)
		r.blockS = append(r.blockS, time.Since(tb).Seconds())
		tr.end(id)
	}
	r.wallS = time.Since(t0).Seconds()
	r.end = ks.sim.Counters()
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - r.mallocs
	return r
}

func (r *timedRun) cycles() float64 { return float64(len(r.blockS) * r.blockCycles) }

func (r *timedRun) rates() []float64 { return blockRates(r.blockS, r.blockCycles) }

// blockRates converts block times to simulated cycles per host second.
func blockRates(blockS []float64, cycles int) []float64 {
	out := make([]float64, len(blockS))
	for i, s := range blockS {
		out[i] = float64(cycles) / s
	}
	return out
}

// finish drains the network and runs the per-seed correctness checks, each
// one operation. It returns the drain's length in cycles and milliseconds.
func (ks *kernelSim) finish(o *ops, tr *tracer, parent int, seed uint64) (drainCycles, drainMS float64) {
	before := ks.sim.Now()
	var drained bool
	drainMS = tr.timed(parent, "network.drain", func() { drained = ks.sim.Drain(drainLimit) })
	drainCycles = float64(ks.sim.Now() - before)
	o.check(drained, "seed %d: network did not drain within %d cycles", seed, drainLimit)
	err := ks.sim.Network().CheckInvariants()
	o.check(err == nil, "seed %d: invariants: %v", seed, err)
	c := ks.sim.Counters()
	o.check(c.PacketsInjected == c.PacketsDelivered+c.PacketsLost,
		"seed %d: ledger: injected %d != delivered %d + lost %d", seed, c.PacketsInjected, c.PacketsDelivered, c.PacketsLost)
	return drainCycles, drainMS
}

// liveHeapMB is the heap that survives a collection, with whatever the caller
// still references alive. It reads HeapAlloc, the bytes of live objects:
// HeapInuse adds the free slots of partly used spans, which swung 10% between
// seeds on a 6 MB heap.
func liveHeapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// kernelEndToEnd is the untraced pass: every seed is set up, timed in blocks,
// drained and checked. It returns the final state fingerprint per seed.
func (w *workload) kernelEndToEnd(rc runConfig, o *ops, m metricSet) ([]string, error) {
	k := w.kernel
	blocks := k.blocksPerSeed(rc.seconds, len(rc.seeds))

	var (
		setups    []float64
		perSeed   [][]float64 // block seconds
		lat       latencyHist
		flits     int64
		cycles    float64
		setupS    float64 // summed over seeds, like drainS
		drainS    float64
		nodes     int
		digests   []string
		warmPrint string
		last      *kernelSim
	)
	for i, seed := range rc.seeds {
		ks, err := k.setup(seed, nil, 0, nil)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			warmPrint = ks.sim.Fingerprint()
		}
		nodes = ks.cfg.Topo.Nodes()
		r := ks.run(k, blocks, &lat, nil, 0, rc.deadline)
		o.attempted += blocks
		o.check(!r.truncated, "seed %d: stopped after %d of %d blocks: host far slower than the plan assumes", seed, len(r.blockS), blocks)
		_, drainMS := ks.finish(o, nil, 0, seed)

		setups = append(setups, ks.setupS)
		perSeed = append(perSeed, r.blockS)
		flits += r.end.FlitsDelivered - r.start.FlitsDelivered
		cycles += r.cycles()
		setupS += ks.setupS
		drainS += drainMS / 1e3
		digests = append(digests, ks.sim.Fingerprint())
		last = ks
	}

	heapMB := liveHeapMB()
	runtime.KeepAlive(last)
	last = nil

	// Determinism: the first seed's set-up, run again from scratch, must
	// reach the same state. It is also one more set-up sample.
	again, err := k.setup(rc.seeds[0], nil, 0, nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, again.setupS)
	got := again.sim.Fingerprint()
	o.check(got == warmPrint, "seed %d: re-run of the first %d cycles gives fingerprint %s, first run gave %s", rc.seeds[0], k.warmup, got, warmPrint)

	blockS := pool(perSeed)
	rate := percentile(blockRates(blockS, k.block), fastTail)
	m.host("setup_s", median(setups), len(setups))
	m.host("sim_cycles_per_s", rate, len(blockS))
	m.host("live_heap_mb", heapMB, 1)
	m.sim("sim_latency_cycles_mean", lat.mean(), int(lat.n))
	m.sim("sim_latency_cycles_p95", lat.percentile(95), int(lat.n))
	m.sim("sim_accepted_flits_per_node_cycle", ratio(float64(flits), cycles*float64(nodes)), len(rc.seeds))
	// The serving workload's job is a sweep request and its point a sweep
	// point. A simulator's job is a packet: the host seconds it takes, at the
	// rate above, to carry the median and the 90th-percentile packet from
	// creation to delivery. Its point is one seed from construction to
	// drained network. Both are built from the fast-tail rate because the
	// raw block-time median and p90 swing 10-40% between runs on this host.
	m.host("job_latency_s_p50", ratio(lat.percentile(50), rate), int(lat.n))
	m.host("job_latency_s_p90", ratio(lat.percentile(90), rate), int(lat.n))
	m.host("points_per_s", ratio(float64(len(rc.seeds)), setupS+ratio(cycles, rate)+drainS), len(rc.seeds))
	return digests, nil
}

// kernelTraced is the traced pass on the first seed: an untraced reference
// run, the same run with the phase profiler and episode tracer on, then
// timings of the state I/O and analysis calls on the live end-of-run state.
func (w *workload) kernelTraced(rc runConfig, o *ops, m metricSet, tr *tracer) error {
	root := tr.start(0, w.name)
	defer tr.end(root)
	return w.kernel.traced(rc.seeds[0], rc.seconds, rc.deadline, o, m, tr, root)
}

// traced spends about `seconds`: a third each on the reference run, the
// traced run and the probes.
func (k *kernelSpec) traced(seed uint64, seconds float64, deadline time.Time, o *ops, m metricSet, tr *tracer, root int) error {
	blocks := k.blocksPerSeed(seconds/3, 1)

	// Untraced reference: the base of the tracing overhead, and the run the
	// host-cost numbers come from so that they carry no profiler cost.
	ref, err := k.setup(seed, nil, 0, nil)
	if err != nil {
		return err
	}
	var refLat latencyHist
	rr := ref.run(k, blocks, &refLat, nil, 0, deadline)
	o.attempted += blocks
	o.check(!rr.truncated, "reference run stopped after %d of %d blocks", len(rr.blockS), blocks)
	ref = nil

	tel := disha.TelemetryOptions{ProfileEvery: 8, EpisodeDepth: 1 << 17}
	ks, err := k.setup(seed, tr, root, &tel)
	if err != nil {
		return err
	}
	phase0 := phaseTotals(ks.hub)
	timedFrom := int64(ks.sim.Now())
	var lat latencyHist
	r := ks.run(k, blocks, &lat, tr, root, deadline)
	o.attempted += blocks
	o.check(!r.truncated, "traced run stopped after %d of %d blocks", len(r.blockS), blocks)
	phase1 := phaseTotals(ks.hub)

	m.host("topology.build_ms", ks.topoMS, 1)
	m.host("network.new_ms", ks.newMS, 1)
	for _, ph := range phaseNames {
		name := "network.phase." + ph + "_us"
		if ph == "step_total" {
			name = "network.step_us"
		}
		n := phase1[ph].count - phase0[ph].count
		m.host(name, ratio(phase1[ph].sum-phase0[ph].sum, n)*1e6, int(n))
	}
	refFlits := float64(rr.end.FlitsDelivered - rr.start.FlitsDelivered)
	m.host("network.host_ns_per_flit", ratio(rr.wallS*1e9, refFlits), 1)
	m.host("network.block_cycles_per_s_p05", percentile(rr.rates(), 5), len(rr.blockS))
	m.sim("network.allocs_per_kcycle", ratio(float64(rr.mallocs), rr.cycles()/1e3), 1)
	base, traced := percentile(rr.rates(), fastTail), percentile(r.rates(), fastTail)
	m.host("telemetry.trace_overhead_pct", 100*ratio(base-traced, base), len(r.blockS))

	counterMetrics(m, r.start, r.end)
	episodeMetrics(m, ks.hub.Episodes.Spans(), timedFrom)
	if err := ks.probe(m, tr, root, o, seconds/30); err != nil {
		return err
	}

	drainCycles, drainMS := ks.finish(o, tr, root, seed)
	m.sim("network.drain_cycles", drainCycles, 1)
	m.host("network.drain_ms", drainMS, 1)
	return nil
}

// fastTail is the percentile of block rates reported as the workload's speed:
// the rate one block in twenty reaches. Other tenants of the host only ever
// slow a block down, by a share that changes from minute to minute, so the
// median block swings with the neighbours while the fast tail moves least.
const fastTail = 95

// phaseNames are the kernel phase profiler's `phase` label values.
var phaseNames = []string{
	"inject", "route_compute", "switch_allocate", "db_resolve", "commit",
	"timers", "flush", "recovery", "active_sweep", "step_total",
}

type phaseTotal struct{ sum, count float64 }

// phaseTotals reads the profiler's disha_step_phase_seconds histograms: per
// phase, the seconds spent and the profiled cycles they were spent over.
func phaseTotals(hub *disha.Telemetry) map[string]phaseTotal {
	out := make(map[string]phaseTotal)
	for _, s := range hub.Registry.Gather() {
		field, ok := strings.CutPrefix(s.Name, "disha_step_phase_seconds_")
		if !ok {
			continue
		}
		ph := s.Labels.Map()["phase"]
		t := out[ph]
		switch field {
		case "sum":
			t.sum = s.Value
		case "count":
			t.count = s.Value
		}
		out[ph] = t
	}
	return out
}

// counterMetrics derives the router and Token ratios from the simulator's own
// counters over the timed cycles. All simulated: they repeat exactly.
func counterMetrics(m metricSet, a, b disha.Counters) {
	pkts := float64(b.PacketsDelivered - a.PacketsDelivered)
	timeouts := float64(b.TimeoutEvents - a.TimeoutEvents)
	hold := float64(b.TokenHold - a.TokenHold)
	transit := float64(b.TokenTransit - a.TokenTransit)
	n := int(pkts)
	m.sim("router.blocked_header_cycles_per_packet", ratio(float64(b.BlockedCycles-a.BlockedCycles), pkts), n)
	m.sim("router.timeouts_per_kpacket", ratio(timeouts, pkts/1e3), n)
	m.sim("router.false_detection_ratio", ratio(float64(b.FalseDetections-a.FalseDetections), timeouts), int(timeouts))
	m.sim("router.misroute_hops_per_packet", ratio(float64(b.MisrouteHops-a.MisrouteHops), pkts), n)
	m.sim("network.token.seizures_per_kpacket", ratio(float64(b.TokenSeizures-a.TokenSeizures), pkts/1e3), n)
	m.sim("network.token.hold_share", ratio(hold, hold+transit), int(hold+transit))
}

// episodeMetrics summarises the recovery episodes presumed at or after cycle
// `from`: how long a presumed packet waited for the Token, how long the
// episode took to resolve, and how many presumptions were true cycles.
func episodeMetrics(m metricSet, spans []*disha.EpisodeSpan, from int64) {
	var wait, resolve []float64
	var total, trueCycles float64
	for _, s := range spans {
		if s.Start < from {
			continue
		}
		total++
		if s.TrueCycle {
			trueCycles++
		}
		if s.Capture >= 0 {
			wait = append(wait, float64(s.Capture-s.Start))
		}
		if s.End >= 0 {
			resolve = append(resolve, float64(s.End-s.Start))
		}
	}
	m.sim("network.recovery.token_wait_cycles_p50", median(wait), len(wait))
	m.sim("network.recovery.resolve_cycles_p50", median(resolve), len(resolve))
	m.sim("network.recovery.resolve_cycles_p95", percentile(resolve, 95), len(resolve))
	m.sim("network.recovery.true_cycle_ratio", ratio(trueCycles, total), int(total))
}

// sampled calls f up to n times and returns each call's milliseconds. prep,
// when non-nil, runs untimed before each call. It stops early once budget
// seconds have passed, so that a 2 000-router state costs a few samples and
// not minutes; the count taken is reported with the metric.
func sampled(n int, budget float64, prep, f func()) []float64 {
	var out []float64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if i > 0 && time.Since(t0).Seconds() > budget {
			break
		}
		if prep != nil {
			prep()
		}
		t := time.Now()
		f()
		out = append(out, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return out
}

const probeSamples = 20

// probe times the calls that read or rewrite whole-network state, on the live
// end-of-run state and outside any timed block. No end-to-end metric of these
// workloads moves with them; they are the ledger's baseline.
func (ks *kernelSim) probe(m metricSet, tr *tracer, parent int, o *ops, budget float64) error {
	id := tr.start(parent, "probe")
	defer tr.end(id)
	record := func(name, spanName string, prep, f func()) {
		sp := tr.start(id, spanName)
		ms := sampled(probeSamples, budget, prep, f)
		tr.end(sp)
		m.host(name, median(ms), len(ms))
	}

	record("core.wfg_ms", "core.wfg", nil, func() { ks.sim.AnalyzeDeadlock() })
	record("network.fingerprint_ms", "network.fingerprint", nil, func() { ks.sim.Fingerprint() })

	var buf bytes.Buffer
	var err error
	record("snapshot.encode_ms", "snapshot.encode", nil, func() {
		buf.Reset()
		err = errors.Join(err, ks.sim.Snapshot(&buf))
	})
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	state := append([]byte(nil), buf.Bytes()...)
	m.sim("snapshot.bytes", float64(len(state)), 1)

	const magic = "DISHBNCH" // Seal wants exactly eight bytes
	var sealed []byte
	record("snapshot.seal_ms", "snapshot.seal", nil, func() { sealed = snapshot.Seal(magic, 1, state) })
	record("snapshot.open_ms", "snapshot.open", nil, func() {
		_, openErr := snapshot.Open(sealed, magic, 1)
		err = errors.Join(err, openErr)
	})
	o.check(err == nil, "snapshot.Open of a sealed state: %v", err)

	// Restore needs a never-stepped simulator each time; building it is
	// untimed preparation.
	var clone *disha.Simulator
	err = nil
	record("snapshot.restore_ms", "snapshot.restore", func() {
		var newErr error
		clone, newErr = disha.NewSimulator(ks.cfg)
		err = errors.Join(err, newErr)
	}, func() {
		if clone != nil {
			err = errors.Join(err, clone.Restore(bytes.NewReader(state)))
		}
	})
	if clone == nil {
		return fmt.Errorf("clone for restore: %w", err)
	}
	o.check(err == nil && clone.Fingerprint() == ks.sim.Fingerprint(), "restored state differs from the live one (restore error: %v)", err)

	// Kill and heal one link of the restored clone: each rebuilds the
	// Deadlock Buffer lane's next-hop table.
	err = nil
	record("network.reconfig_ms", "network.reconfig", nil, func() {
		err = errors.Join(err, clone.KillLink(0, 0), clone.HealLink(0, 0))
	})
	o.check(err == nil, "KillLink/HealLink on the restored clone: %v", err)

	// The Mendlovic–Matias check on this topology's recovery lane. Its
	// verdict is not asserted: torus lanes are cyclic by design and rely on
	// the Token.
	g := ks.cfg.Topo
	lane := core.TableLane(g, core.BFSLaneTable(g))
	if t, ok := topology.Coordinated(g); ok {
		lane = core.DORLane(t)
	}
	record("core.lane_verify_ms", "core.lane_verify", nil, func() { _ = core.VerifyDeadlockFree(g, lane) })
	return nil
}
