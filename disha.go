// Package disha is a Go reproduction of "An Efficient, Fully Adaptive
// Deadlock Recovery Scheme: DISHA" (Anjan K.V. and Timothy Mark Pinkston,
// ISCA 1995): a flit-level wormhole network simulator in which routing is
// true fully adaptive — every virtual channel usable by every packet — and
// deadlock is handled by recovery through a central per-router Deadlock
// Buffer serialized by a circulating Token, rather than by avoidance.
//
// The package is a facade over the internal packages:
//
//   - topologies (k-ary n-cube torus and mesh) and traffic patterns;
//   - the routing algorithms compared in the paper (DOR, Turn model
//     negative-first, Dally & Aoki, Duato, and Disha itself);
//   - the router microarchitecture with time-out deadlock detection and the
//     Deadlock Buffer recovery lane;
//   - the experiment harness that regenerates the paper's figures;
//   - Chien's router cost model (the paper's Section 3.4);
//   - the executable deadlock theory (channel dependency graphs and a
//     runtime wait-for-graph analyzer).
//
// Quick start:
//
//	topo := disha.Torus(8, 8)
//	sim, err := disha.NewSimulator(disha.SimConfig{
//		Topo:      topo,
//		Algorithm: disha.DishaRouting(0),
//		Pattern:   disha.Uniform(topo),
//		LoadRate:  0.4,
//	})
//	if err != nil { ... }
//	sim.Run(10000)
//	fmt.Println(sim.Report())
package disha

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/plot"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// --- Topologies -----------------------------------------------------------------

// Graph is a directed network graph — the minimal interface the simulator
// needs. Every Topology is a Graph; coordinate-free constructors (FullMesh,
// Dragonfly, FatTree, ParseTopology) return plain Graphs.
type Graph = topology.Graph

// Topology is a direct interconnection network graph with k-ary n-cube
// coordinates (torus, mesh, hypercube).
type Topology = topology.Topology

// Node identifies a network node.
type Node = topology.Node

// Coord is a per-dimension coordinate vector.
type Coord = topology.Coord

// Torus builds a k-ary n-cube with wraparound links (the paper evaluates a
// 16x16 torus); it panics on invalid radices.
func Torus(radix ...int) Topology { return topology.MustTorus(radix...) }

// Mesh builds a k-ary n-cube without wraparound links.
func Mesh(radix ...int) Topology { return topology.MustMesh(radix...) }

// NewTorus is the error-returning variant of Torus.
func NewTorus(radix ...int) (Topology, error) { return topology.NewTorus(radix...) }

// NewMesh is the error-returning variant of Mesh.
func NewMesh(radix ...int) (Topology, error) { return topology.NewMesh(radix...) }

// Hypercube builds the n-dimensional binary hypercube; it panics for n < 1.
func Hypercube(dims int) Topology { return topology.MustHypercube(dims) }

// NewHypercube is the error-returning variant of Hypercube.
func NewHypercube(dims int) (Topology, error) { return topology.NewHypercube(dims) }

// FullMesh builds the complete graph on n nodes (every pair directly
// linked); it panics on invalid n.
func FullMesh(n int) Graph { return topology.MustFullMesh(n) }

// NewFullMesh is the error-returning variant of FullMesh.
func NewFullMesh(n int) (Graph, error) { return topology.NewFullMesh(n) }

// Dragonfly builds a canonical dragonfly: groups of a routers, all-to-all
// within a group, h global channels per router, one global channel between
// every pair of groups. It panics on invalid parameters.
func Dragonfly(a, h int) Graph { return topology.MustDragonfly(a, h) }

// NewDragonfly is the error-returning variant of Dragonfly.
func NewDragonfly(a, h int) (Graph, error) { return topology.NewDragonfly(a, h) }

// FatTree builds a three-level k-ary fat-tree (k even) over the router
// fabric: k pods of k edge+aggregation switches plus (k/2)^2 core switches.
// It panics on invalid k.
func FatTree(k int) Graph { return topology.MustFatTree(k) }

// NewFatTree is the error-returning variant of FatTree.
func NewFatTree(k int) (Graph, error) { return topology.NewFatTree(k) }

// ParseTopology builds a topology from its textual name: "torus-8x8",
// "mesh-4x4x2", "hypercube-3", "fullmesh-16", "dragonfly-4x2", "fattree-4".
func ParseTopology(name string) (Graph, error) { return topology.Parse(name) }

// --- Routing algorithms -----------------------------------------------------------

// Algorithm is a routing function mapping router state and a packet to
// candidate output virtual channels.
type Algorithm = routing.Algorithm

// Selection picks among a routing function's usable candidates.
type Selection = routing.Selection

// DishaRouting returns the paper's true fully adaptive routing with
// misroute bound m (0 = minimal, 3 = the paper's misrouting configuration).
// Run it with recovery enabled (SimConfig.DisableRecovery unset).
func DishaRouting(m int) Algorithm { return routing.Disha(m) }

// DOR returns deterministic dimension-order routing.
func DOR() Algorithm { return routing.DOR() }

// NegativeFirst returns the Turn model's negative-first algorithm.
func NegativeFirst() Algorithm { return routing.NegativeFirst() }

// DallyAoki returns Dally & Aoki's dynamic algorithm (dimension reversals).
func DallyAoki() Algorithm { return routing.DallyAoki() }

// Duato returns Duato's adaptive algorithm with escape channels.
func Duato() Algorithm { return routing.Duato() }

// DuatoStrict returns the conservative Duato variant whose escape use is
// permanent (an ablation baseline; see DESIGN.md).
func DuatoStrict() Algorithm { return routing.DuatoStrict() }

// RandomSelection picks a free candidate uniformly at random.
func RandomSelection() Selection { return routing.Random() }

// MinCongestionSelection prefers the direction with the most free VCs.
func MinCongestionSelection() Selection { return routing.MinCongestion() }

// --- Traffic ------------------------------------------------------------------------

// Pattern maps a source node to a destination node.
type Pattern = traffic.Pattern

// Uniform sends each packet to a uniformly random other node; it panics on
// a topology with fewer than two nodes (use NewUniform to get an error).
func Uniform(topo Graph) Pattern { return traffic.Uniform(topo) }

// NewUniform is Uniform with an error instead of a panic on a topology with
// fewer than two nodes.
func NewUniform(topo Graph) (Pattern, error) { return traffic.NewUniform(topo) }

// BitReversal sends node a_{b-1}..a_0 to node a_0..a_{b-1}; the node count
// must be a power of two.
func BitReversal(topo Graph) (Pattern, error) { return traffic.BitReversal(topo) }

// Transpose sends (x, y) to (y, x) on a square 2D network.
func Transpose(topo Topology) (Pattern, error) { return traffic.Transpose(topo) }

// HotSpot directs fraction of all traffic at the spot node on top of base;
// it panics when base is nil or fraction lies outside [0, 1] (use
// NewHotSpot to get an error).
func HotSpot(base Pattern, spot Node, fraction float64) Pattern {
	return traffic.HotSpot(base, spot, fraction)
}

// NewHotSpot is HotSpot with an error instead of a panic on a nil base or a
// fraction outside [0, 1].
func NewHotSpot(base Pattern, spot Node, fraction float64) (Pattern, error) {
	return traffic.NewHotSpot(base, spot, fraction)
}

// Complement sends every node to its coordinate-wise complement.
func Complement(topo Topology) Pattern { return traffic.Complement(topo) }

// Tornado sends (x, ...) to ((x + ceil(k/2) - 1) mod k, ...).
func Tornado(topo Topology) Pattern { return traffic.Tornado(topo) }

// --- Simulation ----------------------------------------------------------------------

// Cycle is a simulation timestamp in router clock cycles.
type Cycle = sim.Cycle

// Packet is a wormhole message with its routing and recovery state.
type Packet = packet.Packet

// Counters are network-wide event totals.
type Counters = network.Counters

// AllocPolicy selects flit-by-flit or packet-by-packet crossbar allocation.
type AllocPolicy = router.AllocPolicy

// Crossbar allocation policies (paper Section 3.3).
const (
	FlitByFlit     = router.FlitByFlit
	PacketByPacket = router.PacketByPacket
)

// RecoveryMode selects the deadlock recovery scheme.
type RecoveryMode = router.RecoveryMode

// Recovery modes: the paper's Token-serialized escape through one Deadlock
// Buffer lane, token-free recovery on two direction-partitioned lanes that
// shortcut monotonically along the recovery order, and kill-and-retransmit.
const (
	RecoverySequential = router.RecoverySequential
	RecoveryConcurrent = router.RecoveryConcurrent
	RecoveryAbortRetry = router.RecoveryAbortRetry
)

// SimConfig configures one simulation. Zero fields take the paper's
// defaults (4 VCs of depth 2, 32-flit messages, a single-flit Deadlock
// Buffer, one injection and one reception channel, T_out = 8).
type SimConfig struct {
	Topo      Graph
	Algorithm Algorithm
	Selection Selection // default: random
	Pattern   Pattern
	// LoadRate is offered load as a fraction of capacity (Section 4.1).
	LoadRate float64
	// MsgLen is packet length in flits.
	MsgLen int
	// VCs is virtual channels per physical channel; BufferDepth their
	// per-VC depth in flits.
	VCs, BufferDepth int
	// Timeout is T_out; 0 means the paper's default of 8. DisableRecovery is
	// the off switch: set it for avoidance algorithms, which need no
	// detection, Token or Deadlock Buffer (Timeout is then ignored).
	Timeout         Cycle
	DisableRecovery bool
	// Alloc is the crossbar allocation policy (default flit-by-flit).
	Alloc AllocPolicy
	// AdaptiveTimeout makes T_out self-tuning (the paper's "programmable
	// T_out" future work): routers back off after false detections and
	// decay back toward the configured Timeout.
	AdaptiveTimeout bool
	// Recovery selects the recovery scheme once Timeout presumes deadlock:
	// Sequential (the paper's Token + Deadlock Buffer lane, the default),
	// Concurrent (token-free two-lane recovery, the paper's future-work
	// direction — see DESIGN.md) or AbortRetry (Compressionless-style kill
	// and retransmit, the alternative the paper argues against).
	Recovery RecoveryMode
	// ReceptionChannels is how many flits per cycle a node consumes
	// (default 1; the paper names raising it as a deadlock-reduction lever).
	ReceptionChannels int
	// InjectionThrottle, when positive, stops a node injecting while it has
	// this many packets outstanding (the paper's injection-limitation
	// citation, §4.3.3).
	InjectionThrottle int
	// Burst, when both fields are set, replaces Bernoulli injection with an
	// on/off bursty process of the same long-run load.
	Burst BurstConfig
	// Seed makes runs reproducible.
	Seed uint64
	// TokenHopsPerCycle is the recovery Token's speed (default 4).
	TokenHopsPerCycle int
}

// BurstConfig shapes bursty injection (mean burst and idle lengths, cycles).
type BurstConfig = traffic.BurstConfig

// Simulator is one live network simulation.
type Simulator struct {
	net *network.Network
}

// NewSimulator builds a simulator. Recovery (detection, Token, Deadlock
// Buffer) is enabled unless DisableRecovery is set.
func NewSimulator(cfg SimConfig) (*Simulator, error) {
	rc := router.PaperConfig(!cfg.DisableRecovery, cfg.Timeout, cfg.Recovery)
	rc.VCs = cfg.VCs
	rc.BufferDepth = cfg.BufferDepth
	rc.Alloc = cfg.Alloc
	rc.AdaptiveTimeout = cfg.AdaptiveTimeout
	rc.ReceptionChannels = cfg.ReceptionChannels
	n, err := network.New(network.Config{
		Topo:              cfg.Topo,
		Router:            rc,
		Algorithm:         cfg.Algorithm,
		Selection:         cfg.Selection,
		Pattern:           cfg.Pattern,
		LoadRate:          cfg.LoadRate,
		MsgLen:            cfg.MsgLen,
		Seed:              cfg.Seed,
		TokenHopsPerCycle: cfg.TokenHopsPerCycle,
		InjectionThrottle: cfg.InjectionThrottle,
		Burst:             cfg.Burst,
	})
	if err != nil {
		return nil, err
	}
	return &Simulator{net: n}, nil
}

// Run advances the simulation the given number of cycles.
func (s *Simulator) Run(cycles int) { s.net.Run(cycles) }

// Step advances one cycle.
func (s *Simulator) Step() { s.net.Step() }

// Drain stops injection and runs until the network empties or limit cycles
// pass; it reports whether the network fully drained.
func (s *Simulator) Drain(limit int) bool { return s.net.RunUntilDrained(limit) }

// Now returns the current cycle.
func (s *Simulator) Now() Cycle { return s.net.Now() }

// Counters returns network-wide totals.
func (s *Simulator) Counters() Counters { return s.net.Counters() }

// OnDeliver registers a callback invoked for every delivered packet.
func (s *Simulator) OnDeliver(f func(*Packet)) { s.net.OnDeliver = f }

// Network exposes the underlying network for analysis (wait-for-graph
// inspection); treat it as read-only.
func (s *Simulator) Network() *network.Network { return s.net }

// AnalyzeDeadlock runs the wait-for-graph analyzer on the live state.
func (s *Simulator) AnalyzeDeadlock() core.WFGResult {
	return core.AnalyzeWFG(s.net.Routers())
}

// FailLink severs the bidirectional link at node/port (fault injection).
// Disha routes around faults adaptively, and the Deadlock Buffer lane is
// re-routed over live links so recovery still reaches every destination.
// See network.FailLink for the restrictions.
func (s *Simulator) FailLink(node Node, port int) error {
	return s.net.FailLink(node, port)
}

// --- Dynamic reconfiguration ---------------------------------------------------

// ReconfigEvent is one scheduled mid-run topology or routing mutation; see
// network.ReconfigEvent and CHAOS.md.
type ReconfigEvent = network.ReconfigEvent

// ReconfigOutcome records how one reconfiguration event was applied (or why
// it was skipped) and what it cost; see network.ReconfigOutcome.
type ReconfigOutcome = network.ReconfigOutcome

// Reconfiguration event kinds.
const (
	ReconfigKillLink      = network.ReconfigKillLink
	ReconfigHealLink      = network.ReconfigHealLink
	ReconfigKillRouter    = network.ReconfigKillRouter
	ReconfigHealRouter    = network.ReconfigHealRouter
	ReconfigSwapAlgorithm = network.ReconfigSwapAlgorithm
)

// ScheduleReconfig arms a sorted schedule of reconfiguration events that the
// engine applies deterministically at their cycles; see
// network.ScheduleReconfig.
func (s *Simulator) ScheduleReconfig(events []ReconfigEvent) error {
	return s.net.ScheduleReconfig(events)
}

// KillLink severs a link immediately, dropping packets with flits committed
// to it (unlike FailLink, which refuses busy links); see network.KillLink.
func (s *Simulator) KillLink(node Node, port int) error {
	return s.net.KillLink(node, port)
}

// HealLink restores a previously killed or failed link.
func (s *Simulator) HealLink(node Node, port int) error {
	return s.net.HealLink(node, port)
}

// KillRouter removes a router and its links, dropping packets at or destined
// for it; see network.KillRouter.
func (s *Simulator) KillRouter(node Node) error {
	return s.net.KillRouter(node)
}

// HealRouter revives a killed router, reconnecting its links whose far
// endpoints are alive and not independently failed.
func (s *Simulator) HealRouter(node Node) error {
	return s.net.HealRouter(node)
}

// SwapRouting switches every router to the named routing algorithm mid-run
// (any -alg spelling: "duato", "turn", "disha-m1"); an algorithm the topology
// or VC count cannot run is an error. See network.SwapAlgorithm.
func (s *Simulator) SwapRouting(name string) error { return s.net.SwapAlgorithm(name) }

// ReconfigLog returns every reconfiguration outcome so far, in application
// order — the deterministic record a replayed run must reproduce exactly.
func (s *Simulator) ReconfigLog() []ReconfigOutcome {
	return s.net.ReconfigLog()
}

// --- Checkpoint / restore -----------------------------------------------------

// Snapshot writes a versioned binary serialization of the complete
// simulation state to w — every buffer, credit, in-flight flit, RNG stream,
// the Token and all counters. Restoring it into a simulator built with the
// identical SimConfig reproduces the exact per-cycle state fingerprints of
// an uninterrupted run (see ARCHITECTURE.md, "Checkpoint/restore").
func (s *Simulator) Snapshot(w io.Writer) error { return s.net.Snapshot(w) }

// Restore loads a Snapshot stream into this simulator. The simulator must
// be freshly built with the identical SimConfig and never stepped. On error
// the simulator is unusable and must be discarded.
func (s *Simulator) Restore(r io.Reader) error { return s.net.Restore(r) }

// SaveCheckpoint atomically writes the simulation state to a file: the
// checkpoint appears completely or not at all, so a crash mid-save can
// never corrupt an earlier checkpoint at the same path.
func (s *Simulator) SaveCheckpoint(path string) error {
	var buf bytes.Buffer
	if err := s.net.Snapshot(&buf); err != nil {
		return err
	}
	return snapshot.WriteFileAtomic(path, buf.Bytes())
}

// LoadCheckpoint restores simulation state saved by SaveCheckpoint into
// this freshly built simulator.
func (s *Simulator) LoadCheckpoint(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.net.Restore(f)
}

// Fingerprint returns a SHA-256 hex digest of the complete simulation
// state. Two simulators with equal fingerprints are in identical states;
// cmd/disha-bisect uses it to locate the first cycle two runs diverge.
func (s *Simulator) Fingerprint() string { return s.net.FingerprintHex() }

// TraceEvent is one recorded simulation event.
type TraceEvent = telemetry.Event

// Trace event kinds.
const (
	TraceInject       = telemetry.Inject
	TraceDeliver      = telemetry.Deliver
	TraceTimeout      = telemetry.Timeout
	TraceRecover      = telemetry.Recover
	TraceTokenCapture = telemetry.TokenCapture
	TraceTokenRelease = telemetry.TokenRelease
	TraceKill         = telemetry.Kill
	TraceDrop         = telemetry.Drop
)

// EnableTrace attaches a ring buffer recording the most recent capacity
// packet-level events (injections, deliveries, timeouts, recoveries, Token
// movements) and returns it.
func (s *Simulator) EnableTrace(capacity int) *telemetry.EventRing {
	return s.net.EnableTrace(capacity)
}

// --- Telemetry ---------------------------------------------------------------------------

// TelemetryOptions configures the instrumentation layer (sampling period,
// flight-recorder depth, JSONL output). With a Writer set, the stream
// carries every packet event, episode span, sample and snapshot.
type TelemetryOptions = telemetry.Options

// Telemetry bundles a simulation's registry, sampler, flight recorder and
// recovery-episode tracker.
type Telemetry = telemetry.Hub

// TelemetryWriter streams telemetry records as JSON Lines.
type TelemetryWriter = telemetry.JSONLWriter

// EpisodeSpan is one recovery episode rendered as a structured span:
// presumption, Token capture, Deadlock-Buffer routing and final delivery
// or abort, labeled true-cycle vs false-presumption by the WFG analyzer.
type EpisodeSpan = telemetry.EpisodeSpan

// Histogram is the registry's fixed-bucket distribution metric.
type Histogram = telemetry.Histogram

// NewTelemetryWriter wraps w in a buffered JSONL telemetry encoder.
func NewTelemetryWriter(w io.Writer) *TelemetryWriter { return telemetry.NewJSONLWriter(w) }

// EnableTelemetry attaches the observability layer: per-router/per-VC
// counters and gauges (Prometheus text exposition via telemetry.Handler or
// telemetry.Serve), ring-buffered time-series sampling usable with
// PlotTimeSeries, and the deadlock flight recorder. Telemetry is pull-based
// and does not change simulation results (same seed, same outcome).
func (s *Simulator) EnableTelemetry(opts TelemetryOptions) *Telemetry {
	return s.net.EnableTelemetry(opts)
}

// ServeMetrics starts an HTTP listener exposing /metrics (Prometheus text
// format) and /debug/pprof/ for the simulator's telemetry hub. It returns
// the bound address and a shutdown function. EnableTelemetry must have been
// called first.
func (s *Simulator) ServeMetrics(addr string) (string, func() error, error) {
	if s.net.Telemetry() == nil {
		return "", nil, fmt.Errorf("disha: ServeMetrics requires EnableTelemetry first")
	}
	return telemetry.Serve(addr, s.net.Telemetry().Registry)
}

// CountersMap flattens the Counters snapshot into named totals (JSONL
// export, dashboards).
func (s *Simulator) CountersMap() map[string]int64 { return s.net.CountersMap() }

// PlotTimeSeries renders the telemetry sampler's ring-buffered series as an
// ASCII value-vs-cycle chart.
func PlotTimeSeries(title string, tel *Telemetry) string {
	if tel == nil || tel.Sampler == nil {
		return title + "\n(no data)\n"
	}
	return plot.TimeSeries(title, tel.Sampler.MetricsSeries())
}

// Report summarizes the run as a human-readable block: every counter, in the
// Counters table's order, and the seizure ratio.
func (s *Simulator) Report() string {
	var sb strings.Builder
	c := s.Counters()
	c.Each(func(key string, v int64) {
		fmt.Fprintf(&sb, "%-18s %d\n", strings.ReplaceAll(key, "_", " ")+":", v)
	})
	if c.PacketsDelivered > 0 {
		fmt.Fprintf(&sb, "%-18s %.5f\n", "seizure ratio:", float64(c.TokenSeizures)/float64(c.PacketsDelivered))
	}
	return sb.String()
}

// --- Experiments -----------------------------------------------------------------------

// Experiment aliases the harness spec type for custom experiments.
type Experiment = harness.Spec

// ExperimentResult aliases the harness result type.
type ExperimentResult = harness.Result

// AlgCurve aliases one experiment curve definition.
type AlgCurve = harness.AlgSpec

// ExperimentScale sets figure reproduction sizes.
type ExperimentScale = harness.Scale

// PaperScale is the paper's simulation model (16x16 torus, 32-flit
// messages); SmallScale is a fast 8x8 configuration.
func PaperScale() ExperimentScale { return harness.PaperScale() }

// SmallScale is a fast 8x8 experiment configuration.
func SmallScale() ExperimentScale { return harness.SmallScale() }

// Figure returns the canned reproduction spec for a paper figure:
// "3a", "3b", "4", "5", "6" or "7". It returns nil for unknown names.
func Figure(name string, sc ExperimentScale) *Experiment {
	return harness.Figures(sc)[name]
}

// Figures returns all canned figure specs keyed by short name.
func Figures(sc ExperimentScale) map[string]*Experiment { return harness.Figures(sc) }

// --- Sweeps -------------------------------------------------------------------

// SweepOptions controls how an Experiment's sweep executes: how many points
// this process simulates at once (Parallel — every point is offered to the
// PointRunner, if any, at once), per-point replicas, retries, mid-point
// checkpoints and progress reporting. Run an Experiment with them via
// Experiment.RunWith; results are bit-identical for every Parallel value.
type SweepOptions = harness.RunOptions

// SweepReport summarizes a finished sweep: completed/failed/aborted points,
// retries and wall time.
type SweepReport = engine.Report

// SweepStatus is a running sweep's progress snapshot (done/total, ETA).
type SweepStatus = engine.Status

// EngineMetrics exports sweep progress (the engine_* families) through a
// telemetry registry.
type EngineMetrics = engine.Metrics

// NewEngineMetrics registers the sweep progress metrics (jobs done/total,
// ETA, retries) on a telemetry registry. Serve them with telemetry.Serve or
// the /metrics endpoint of disha-serve.
func NewEngineMetrics(reg *telemetry.Registry) *EngineMetrics { return engine.NewMetrics(reg) }

// SweepSeedFor derives the deterministic seed of the point with the given
// identity key under a base seed (exposed for tooling and tests).
func SweepSeedFor(base uint64, key string) uint64 { return engine.SeedFor(base, key) }

// PlotLatency renders an experiment's latency-vs-load curves as an ASCII
// chart (log y axis).
func PlotLatency(title string, res *ExperimentResult) string {
	return plot.Latency(title, res.Series)
}

// PlotThroughput renders an experiment's throughput-vs-load curves as an
// ASCII chart.
func PlotThroughput(title string, res *ExperimentResult) string {
	return plot.Throughput(title, res.Series)
}

// --- Cost model --------------------------------------------------------------------------

// CostComparison is one row of the Section 3.4 cost table.
type CostComparison = costmodel.Comparison

// PaperCostTable reproduces Section 3.4: *-Channels (7.0 ns) vs Disha
// (7.1 ns) on a 2D mesh with three VCs.
func PaperCostTable() []CostComparison { return costmodel.PaperTable() }

// FormatCostTable renders cost comparisons as text.
func FormatCostTable(rows []CostComparison) string { return costmodel.FormatTable(rows) }

// DishaRouterCost returns the modeled Disha router for a custom
// configuration (degree network ports, vcs virtual channels).
func DishaRouterCost(degree, vcs int) costmodel.Router { return costmodel.Disha(degree, vcs) }

// StarChannelsRouterCost returns the modeled *-Channels reference router.
func StarChannelsRouterCost(degree, vcs int) costmodel.Router {
	return costmodel.StarChannels(degree, vcs)
}

// CompareRouterCost evaluates routers under Chien's model.
func CompareRouterCost(routers ...costmodel.Router) []CostComparison {
	return costmodel.Compare(routers...)
}

// --- Metrics helpers -----------------------------------------------------------------------

// LatencyCollector accumulates latency samples with summary statistics.
type LatencyCollector = metrics.Collector

// Summary is a statistics snapshot.
type Summary = metrics.Summary
