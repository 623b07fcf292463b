// Package network assembles routers into a complete simulated interconnect
// and drives the per-cycle pipeline: traffic generation and injection,
// routing and virtual-channel allocation, switch allocation, synchronous
// transfer commit, deadlock timers, and the circulating recovery Token that
// serializes Deadlock Buffer use (the paper's sequential recovery).
package network

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Config describes one simulation instance.
type Config struct {
	Topo      topology.Graph
	Router    router.Config
	Algorithm routing.Algorithm
	Selection routing.Selection // defaults to routing.Random()
	Pattern   traffic.Pattern
	// LoadRate is the offered load as a fraction of full network capacity
	// (paper Section 4.1).
	LoadRate float64
	// MsgLen is the packet length in flits (default DefaultMsgLen).
	MsgLen int
	// Seed drives all randomness; equal seeds give identical runs.
	Seed uint64
	// TokenHopsPerCycle is how many Hamiltonian-ring hops the recovery
	// Token advances per cycle; the asynchronous token circuit the paper
	// cites "drastically reduces propagation time". Default
	// DefaultTokenHopsPerCycle.
	TokenHopsPerCycle int
	// InjectionThrottle, when positive, implements the injection-limitation
	// scheme the paper cites (§4.3.3: "throttling ... could be used to
	// reduce deadlocks even further"): a node stops injecting while it has
	// this many of its own packets outstanding in the network.
	InjectionThrottle int
	// Burst, when valid, replaces Bernoulli injection with an on/off
	// Markov-modulated process of the same long-run load (the paper's
	// conclusions claim Disha "performs well under bursty traffic").
	Burst traffic.BurstConfig
}

// The paper's message length in flits and the Token speed a zero Config field
// takes.
const (
	DefaultMsgLen            = 32
	DefaultTokenHopsPerCycle = 4
)

func (c *Config) normalize() error {
	if c.Topo == nil {
		return fmt.Errorf("network: no topology")
	}
	if c.Topo.Degree() > router.MaxDegree {
		return fmt.Errorf("network: %s has router degree %d; the crossbar supports at most %d",
			c.Topo.Name(), c.Topo.Degree(), router.MaxDegree)
	}
	if c.Algorithm == nil {
		return fmt.Errorf("network: no routing algorithm")
	}
	if c.Selection == nil {
		c.Selection = routing.Random()
	}
	if c.Pattern == nil {
		return fmt.Errorf("network: no traffic pattern")
	}
	if c.MsgLen == 0 {
		c.MsgLen = DefaultMsgLen
	}
	if c.MsgLen < 1 {
		return fmt.Errorf("network: message length %d < 1", c.MsgLen)
	}
	if c.MsgLen > math.MaxInt32 { // a router ring stores a flit's position as an int32
		return fmt.Errorf("network: message length %d > %d", c.MsgLen, math.MaxInt32)
	}
	if c.TokenHopsPerCycle == 0 {
		c.TokenHopsPerCycle = DefaultTokenHopsPerCycle
	}
	if c.TokenHopsPerCycle < 0 {
		return fmt.Errorf("network: negative token speed")
	}
	if c.LoadRate < 0 {
		return fmt.Errorf("network: negative load rate %v", c.LoadRate)
	}
	if err := c.Router.Normalize(); err != nil {
		return err
	}
	if err := Admits(c.Algorithm, c.Topo, c.Router.VCs); err != nil {
		return fmt.Errorf("network: %w", err)
	}
	return nil
}

// Admits is the one algorithm/topology/VC admission rule: construction and
// every curve of a sweep spec (harness.Spec.Normalize) ask it, so a function
// the routers cannot run is never installed, and a sweep that asks for one is
// refused before any point is scheduled.
func Admits(alg routing.Algorithm, topo topology.Graph, vcs int) error {
	need := alg.MinVCs(topo)
	if need < 0 {
		return fmt.Errorf("%s is not supported on %s (the algorithm needs cube coordinates)", alg.Name(), topo.Name())
	}
	if vcs < need {
		return fmt.Errorf("%s needs >= %d VCs on %s, have %d", alg.Name(), need, topo.Name(), vcs)
	}
	return nil
}

// ni is one node's network interface: the source queue and the packet
// currently streaming into the injection channel (one flit per cycle).
type ni struct {
	queue []*packet.Packet
	qhead int
	cur   *packet.Packet
	seq   int
}

func (q *ni) queued() int { return len(q.queue) - q.qhead }

// push and pop keep every slot outside [qhead, len) nil, so a packet the
// queue has handed on is not kept alive by it (CheckInvariants holds them
// to that). pop restarts a queue it empties at the front of its array, so
// the array grows only with the backlog; push compacts a queue that never
// empties (a saturated source) once its head is past 64 slots and half its
// length.
func (q *ni) push(p *packet.Packet) {
	if q.qhead > 64 && q.qhead*2 >= len(q.queue) {
		n := copy(q.queue, q.queue[q.qhead:])
		clear(q.queue[n:])
		q.queue = q.queue[:n]
		q.qhead = 0
	}
	q.queue = append(q.queue, p)
}

func (q *ni) peek() *packet.Packet {
	if q.queued() == 0 {
		return nil
	}
	return q.queue[q.qhead]
}

func (q *ni) pop() {
	q.queue[q.qhead] = nil
	q.qhead++
	if q.qhead == len(q.queue) {
		q.queue, q.qhead = q.queue[:0], 0
	}
}

// check reports a non-nil slot outside the live range [qhead, len), up to
// the backing array's capacity: a stale pointer that outlives its turn.
func (q *ni) check() error {
	for i, p := range q.queue[:cap(q.queue)] {
		if p != nil && (i < q.qhead || i >= len(q.queue)) {
			return fmt.Errorf("vacated source-queue slot %d (live [%d,%d)) holds packet %d", i, q.qhead, len(q.queue), p.ID)
		}
	}
	return nil
}

// Network is one simulation instance.
type Network struct {
	cfg     Config
	topo    topology.Graph
	clock   sim.Clock
	rng     *sim.RNG
	routers []*router.Router
	proc    traffic.Process  // what every source shares
	sources []traffic.Source // node i's is sources[i]
	nis     []ni
	token   *Token

	// stats is the pattern measurement New took for the injection
	// probability (see Capacity); zero at load 0, where New takes none.
	stats traffic.MeanStats

	// stageBuf is the reusable buffer holding the cycle's staged transfers
	// in router order.
	stageBuf []router.Transfer

	// Inject-phase masks, one bit per node (see inject).
	fired, pending []uint64

	// Active-set scheduler state (see activeset.go): one bit per router in
	// actMask. activeSetOff (set only by in-package tests, as the baseline
	// the active set is held to) keeps every bit set so the same loops
	// degenerate to full scans.
	actMask      []uint64
	activeSetOff bool

	// routerState is the shared struct-of-arrays buffer set every router is
	// a view over (see router.State).
	routerState *router.State

	// Reusable scratch for recovery and victim removal (distinct,
	// releaseVictims), so the steady-state Step path allocates nothing.
	presumedScratch []*packet.Packet
	victimScratch   []*packet.Packet
	seenScratch     map[*packet.Packet]bool

	nextID      packet.ID
	counters    Counters
	outstanding []int32 // per-source packets in flight, for InjectionThrottle

	// Dynamic reconfiguration state (see reconfig.go). reconfigLog records
	// every outcome so a snapshot can replay the topology's history into a
	// fresh network on restore; sched/schedNext is the armed event schedule
	// consumed by Step's prelude; linkDown holds the canonical key of every
	// individually failed link.
	reconfigLog []ReconfigOutcome
	sched       []ReconfigEvent
	schedNext   int
	linkDown    map[[2]int]bool

	// Counters() snapshot cache: aggregating per-router stats walks every
	// router, so repeated calls within one cycle reuse the last snapshot
	// (state only changes inside Step, which also advances the clock).
	countersCache Counters
	countersAt    sim.Cycle
	countersValid bool

	// OnDeliver, when set, is invoked for every packet whose tail is
	// consumed; the harness uses it to collect latency samples.
	OnDeliver func(*packet.Packet)
	// tel (EnableTelemetry) consumes the packet-event stream (see event)
	// and is driven once per cycle; nil is the one check an unobserved run
	// pays.
	tel *telemetry.Hub
	// prof, when enabled via telemetry.Options.ProfileEvery, times Step's
	// phases on sampled cycles (see profiler.go). It reads the wall clock
	// and writes histograms — never simulation state.
	prof *phaseProfiler
}

// New builds and wires a network. It returns an error for inconsistent
// configurations (e.g. fewer VCs than the routing algorithm requires).
func New(cfg Config) (*Network, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// The pattern is measured once per network: the one sample sets the
	// sources' injection probability and the full-load capacity (Capacity).
	// A network at load 0 injects nothing and measures nothing here.
	var st traffic.MeanStats
	prob := 0.0
	if cfg.LoadRate > 0 {
		st = traffic.MeasureMean(cfg.Topo, cfg.Pattern, 64)
		var err error
		if prob, err = traffic.ProbabilityFor(cfg.Topo, cfg.Pattern, st, cfg.MsgLen, cfg.LoadRate); err != nil {
			return nil, err
		}
	}

	topo := cfg.Topo
	n := &Network{
		cfg:         cfg,
		topo:        topo,
		stats:       st,
		proc:        traffic.NewProcess(cfg.Pattern, prob, cfg.MsgLen),
		rng:         sim.NewRNG(cfg.Seed),
		routers:     make([]*router.Router, topo.Nodes()),
		sources:     make([]traffic.Source, topo.Nodes()),
		nis:         make([]ni, topo.Nodes()),
		outstanding: make([]int32, topo.Nodes()),
		actMask:     make([]uint64, (topo.Nodes()+63)/64),
		fired:       make([]uint64, (topo.Nodes()+63)/64),
		pending:     make([]uint64, (topo.Nodes()+63)/64),
		linkDown:    make(map[[2]int]bool),
	}
	for i := 0; i < topo.Nodes(); i++ {
		n.setActive(i)
	}
	if cfg.Burst.Valid() {
		if err := n.proc.SetBursty(cfg.Burst); err != nil {
			return nil, err
		}
	}
	// All routers share one struct-of-arrays state, laid out router-major
	// (see router.State for the memory map), timed by the network's clock.
	n.routerState = router.NewState(topo, cfg.Router, cfg.Algorithm, cfg.Selection, &n.clock)
	for i := range n.routers {
		// Each router gets its own RNG split so adaptive-selection draws are
		// router-local: a router's draws do not depend on which other
		// routers the active set visits.
		n.routers[i] = router.NewWithState(topology.Node(i), n.rng.Split(), n.routerState)
		n.sources[i] = traffic.NewSource(*n.rng.Split())
	}
	for i := range n.routers {
		for p := 0; p < topo.Degree(); p++ {
			nb, ok := topo.Neighbor(topology.Node(i), p)
			if !ok {
				continue
			}
			// Wormhole flow control needs a paired reverse channel on every
			// link: it names the input VCs the link's flits land in, whose
			// free space is the sender's credit. A digraph with an unpaired
			// directed edge is rejected here, gracefully, rather than
			// corrupting buffer state mid-simulation.
			rev, ok := topo.ReversePortAt(topology.Node(i), p)
			if !ok {
				return nil, fmt.Errorf("network: %s link %d port %d -> %d has no reverse channel", topo.Name(), i, p, nb)
			}
			if back, ok := topo.Neighbor(nb, rev); !ok || back != topology.Node(i) {
				return nil, fmt.Errorf("network: %s reverse port %d at %d does not point back at %d", topo.Name(), rev, nb, i)
			}
			n.routers[i].Connect(p, n.routers[nb])
		}
	}
	if cfg.Router.Timeout > 0 {
		// The Token tours the recovery order; no other mode reads it.
		if cfg.Router.Recovery == router.RecoverySequential {
			if err := validRecoveryLane(topo); err != nil {
				return nil, err
			}
		}
		// The Deadlock Buffer lane must be a connected routing subfunction
		// (the paper's Lemma 1, generalized to arbitrary digraphs). Every
		// lane installed below is one by construction, given two O(links)
		// facts checked here instead of walking every (src, dst) pair:
		//   - lane rows (core.LaneRows) are reverse BFS trees toward each
		//     destination over paired live links (every link is paired,
		//     checked above), so each spans the network iff the live graph
		//     is connected: one lane may take any link, and two lanes reach
		//     every node by climbing to the root and descending its tree;
		//   - dimension order on an intact cube fixes one coordinate a hop.
		// The tests hold this to core.VerifyLaneConnected's walk.
		if !n.liveConnected() {
			return nil, fmt.Errorf("network: %s Deadlock Buffer lane fails Lemma 1: the graph is disconnected", topo.Name())
		}
		if _, cube := topology.Coordinated(topo); !cube || cfg.Router.Recovery == router.RecoveryConcurrent {
			n.useLiveLaneRows()
		}
		if cfg.Router.Recovery == router.RecoverySequential {
			n.token = NewToken(topo, cfg.TokenHopsPerCycle)
		}
	}
	return n, nil
}

// useLiveLaneRows routes the Deadlock Buffer lanes by BFS rows over the
// links live now, each built on the first hop toward its destination, and
// empties the row memo; two lanes are relabelled over the same links. Every
// BFS tree is loop-free and avoids dead links and routers, so Lemma 1 holds
// under faults.
func (n *Network) useLiveLaneRows() {
	nbr, rev := n.routerState.Wiring()
	n.routerState.SetLaneRows(core.LaneRows(len(n.routers), n.topo.Degree(), n.routers[0].DBLanes(), nbr, rev))
}

// validRecoveryLane checks that the topology's declared recovery lane
// visits every node exactly once. It serves the Token only, which
// circulates the lane; no Deadlock Buffer hop reads it.
func validRecoveryLane(topo topology.Graph) error {
	lane := topo.RecoveryLane()
	if len(lane) != topo.Nodes() {
		return fmt.Errorf("network: %s recovery lane visits %d of %d nodes", topo.Name(), len(lane), topo.Nodes())
	}
	seen := make([]bool, topo.Nodes())
	for _, node := range lane {
		if int(node) < 0 || int(node) >= topo.Nodes() || seen[node] {
			return fmt.Errorf("network: %s recovery lane is not a permutation (node %d)", topo.Name(), node)
		}
		seen[node] = true
	}
	return nil
}

// Topo returns the network's topology.
func (n *Network) Topo() topology.Graph { return n.topo }

// Capacity is the network's full load in flits per node per cycle: every
// channel busy, under the pattern's mean distance as measured by
// traffic.MeasureMean with 64 samples per node. A point's accepted traffic
// divided by it is the paper's normalized throughput (Section 4.1). It
// reuses New's measurement; at load 0, where New took none, it measures.
func (n *Network) Capacity() float64 {
	st := n.stats
	if n.cfg.LoadRate == 0 {
		st = traffic.MeasureMean(n.topo, n.cfg.Pattern, 64)
	}
	return float64(traffic.TotalChannels(n.topo)) / (float64(n.topo.Nodes()) * st.MeanDistance)
}

// Routers exposes the router array for analysis tools (wait-for-graph
// construction) and tests. Callers must not mutate router state. A router
// the active-set scheduler is skipping reads exactly as under a
// never-skipping kernel: what it would evolve is derived from the clock.
func (n *Network) Routers() []*router.Router { return n.routers }

// Now returns the current simulation cycle.
func (n *Network) Now() sim.Cycle { return n.clock.Now() }

// Counters returns a snapshot of the network-wide totals. The snapshot is
// rebuilt by aggregating every router's Stats, which is O(nodes); because
// that state only changes inside Step (which also advances the clock), the
// result is memoized per cycle and repeated calls are free
// (BenchmarkCountersSnapshot guards this).
func (n *Network) Counters() Counters {
	now := n.clock.Now()
	if n.countersValid && n.countersAt == now {
		return n.countersCache
	}
	c := n.counters
	c.Cycles = now
	for i := range n.sources {
		c.PacketsOffered += n.sources[i].Offered
	}
	for _, r := range n.routers {
		st := r.Stats()
		c.TimeoutEvents += st.TimeoutEvents
		c.FalseDetections += st.FalseDetections
		c.MisrouteHops += st.MisrouteHops
		c.Preemptions += st.Preemptions
		c.Recoveries += st.Recoveries
		c.BlockedCycles += st.BlockedCycles
	}
	if n.token != nil {
		c.TokenSeizures = n.token.Seizures()
		c.TokenTransit = n.token.TransitCycles()
		c.TokenHold = n.token.HoldCycles()
	}
	n.countersCache, n.countersAt, n.countersValid = c, now, true
	return c
}

// Token returns the recovery token, or nil when recovery is disabled.
func (n *Network) Token() *Token { return n.token }

// InFlight returns the number of packets injected but not yet delivered.
func (n *Network) InFlight() int64 {
	return n.counters.PacketsInjected - n.counters.PacketsDelivered
}

// QueuedPackets returns packets waiting in source queues. A packet being
// streamed into the network counts as injected, not queued.
func (n *Network) QueuedPackets() int64 {
	total := int64(0)
	for i := range n.nis {
		total += int64(n.nis[i].queued())
	}
	return total
}

// StopInjection halts all sources; use before draining the network.
func (n *Network) StopInjection() {
	for i := range n.sources {
		n.sources[i].Stop()
	}
}

// Drained reports whether no packet remains anywhere: source queues,
// injection streams and router buffers are all empty.
func (n *Network) Drained() bool {
	for i := range n.nis {
		if n.nis[i].queued() > 0 || n.nis[i].cur != nil {
			return false
		}
	}
	for _, r := range n.routers {
		if !r.Quiescent() {
			return false
		}
	}
	return true
}

// Step advances the simulation by one cycle through explicit phases, each
// visiting routers in fixed router order. Route-compute + switch staging (2)
// and deadlock timers (4) touch only the owning router's state; every
// cross-router effect is applied in the phases between them.
func (n *Network) Step() {
	// Prelude: apply any scheduled reconfiguration events due at the current
	// cycle (reconfig.go), before the clock ticks. One compare when no
	// schedule is armed, so chaos-free runs pay nothing.
	if n.schedNext < len(n.sched) {
		n.applyScheduled()
	}
	now := n.clock.Tick()

	// Phase profiling (off the digest path): on sampled cycles each phase
	// boundary records a wall-clock lap. t0 is dead when profiled is false.
	profiled := n.prof != nil && n.prof.begin(int64(now))
	var t0, tStart time.Time
	if profiled {
		tStart = time.Now()
		t0 = tStart
	}

	// 1. Traffic generation and injection (one flit per node per cycle).
	n.inject(now)
	if profiled {
		t0 = n.prof.lap(phaseInject, t0)
	}

	// 2. Routing computation, VC allocation and switch allocation, fused
	// per router: both stages mutate only the owning router's state (plus
	// start-of-cycle-stable reads of neighbor Deadlock Buffers).
	// Deadlock-Buffer admissions are optimistic here. Only active routers
	// are visited. On profiled cycles stage observes its two phases itself.
	n.stage(profiled)
	if profiled {
		t0 = time.Now()
	}

	// 3. Resolve the per-cycle Deadlock Buffer write-port arbitration in
	// fixed router order, then commit all surviving transfers together.
	router.ResolveDB(n.stageBuf, now)
	if profiled {
		t0 = n.prof.lap(phaseDBResolve, t0)
	}
	for i := range n.stageBuf {
		t := &n.stageBuf[i]
		router.Commit(t, n)
		if !t.Dropped && !t.Eject {
			n.setActive(int(t.To.Node()))
		}
	}
	if profiled {
		t0 = n.prof.lap(phaseCommit, t0)
	}

	// 4. Deadlock timers: router-local, active routers only (an
	// inactive router holds no flits, so it has no timers to tick).
	// Commit-phase wakes landed before this point, so a router that just
	// received its first flit ticks — and starts accruing blocked time —
	// this same cycle. Each presumption is reported as it is detected.
	n.tickAllTimers()
	if profiled {
		t0 = n.prof.lap(phaseTimers, t0)
	}
	// Episodes opened by this cycle's timeouts get their WFG verdict now,
	// while the deadlock is still intact (recovery below breaks it); this
	// cycle's flight-recorder snapshot takes the same verdict.
	var verdict *core.WFGResult
	if n.tel != nil {
		verdict = n.labelEpisodes()
	}
	if profiled {
		t0 = n.prof.lap(phaseFlush, t0)
	}

	// 5. Recovery: token-serialized (sequential), immediate (concurrent),
	// or kill-and-retransmit (abort-retry), in router order.
	if n.cfg.Router.Timeout > 0 {
		switch n.cfg.Router.Recovery {
		case router.RecoverySequential:
			if p := n.token.Step(n.routers, now); p != nil {
				n.event(telemetry.TokenCapture, n.token.Position(), p.ID)
				n.event(telemetry.Recover, n.token.Position(), p.ID)
			}
		case router.RecoveryConcurrent:
			hi := len(n.routers)
			for i := n.nextActive(0, hi); i >= 0; i = n.nextActive(i+1, hi) {
				r := n.routers[i]
				if r.PresumedHeaders() == 0 {
					continue
				}
				n.presumedScratch = r.RecoverPresumed(now, n.presumedScratch[:0])
				for _, p := range n.presumedScratch {
					n.event(telemetry.Recover, r.Node(), p.ID)
				}
			}
		case router.RecoveryAbortRetry:
			n.killPresumed()
		}
	}
	if profiled {
		t0 = n.prof.lap(phaseRecovery, t0)
	}

	// 6. Telemetry: flight-recorder frame, pending deadlock snapshot and
	// gauge sampling. One nil check when telemetry is off. Not profiled as
	// a phase: it only runs with telemetry attached, so it would distort
	// the phase breakdown the profiler exists to measure.
	if n.tel != nil {
		n.telemetryTick(now, verdict)
	}
	if profiled {
		t0 = time.Now()
	}

	// 7. Active-set maintenance: put every fully drained router to sleep.
	n.deactivateDrained()
	if profiled {
		n.prof.lap(phaseActiveSweep, t0)
		n.prof.observe(phaseStepTotal, time.Since(tStart))
	}
}

// event is the one place a packet lifecycle step is reported: it builds the
// record, stamped with the current cycle, and hands it to the telemetry hub
// (its snapshot trigger, episode tracker and JSONL stream). Unobserved runs
// return at the check.
func (n *Network) event(k telemetry.Kind, node topology.Node, id packet.ID) {
	if n.tel == nil {
		return
	}
	n.tel.Observe(telemetry.Event{Cycle: n.clock.Now(), Kind: k, Node: node, Pkt: id})
}

// Run advances the simulation by the given number of cycles.
func (n *Network) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		n.Step()
	}
}

// RunUntilDrained stops injection and steps until the network empties,
// up to limit cycles. It reports whether the network fully drained.
func (n *Network) RunUntilDrained(limit int) bool {
	n.StopInjection()
	for i := 0; i < limit; i++ {
		if n.Drained() {
			return true
		}
		n.Step()
	}
	return n.Drained()
}

// inject is phase 1 (ARCHITECTURE.md): every source's trial in one pass,
// marking the hits in fired, then a walk in node order over the nodes in
// fired or pending, a superset of those with a packet queued or streaming.
func (n *Network) inject(now sim.Cycle) {
	n.proc.Trials(n.sources, n.fired)
	for w, hit := range n.fired {
		n.fired[w] = 0
		for word := hit | n.pending[w]; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			n.injectAt(w<<6+b, hit&(1<<b) != 0, now)
		}
	}
}

// injectAt completes node i's firing, if it fired, and injects one flit;
// it clears i's pending bit once the node has nothing left to inject.
func (n *Network) injectAt(i int, fired bool, now sim.Cycle) {
	q := &n.nis[i]
	if fired {
		if p := n.proc.Fire(&n.sources[i], topology.Node(i), now, n.allocID); p != nil {
			n.enqueue(i, p)
		}
	}
	r := n.routers[i]
	if q.cur == nil {
		head := q.peek()
		if head == nil {
			n.pending[i>>6] &^= 1 << (uint(i) & 63)
			return
		}
		if n.cfg.InjectionThrottle > 0 && int(n.outstanding[i]) >= n.cfg.InjectionThrottle {
			return // throttled: too many of this node's packets in flight
		}
		if r.InjectFlit(head.Flit(0), now) {
			n.setActive(i)
			q.pop()
			n.counters.PacketsInjected++
			n.outstanding[i]++
			n.event(telemetry.Inject, head.Src, head.ID)
			if head.Length == 1 {
				return
			}
			q.cur = head
			q.seq = 1
		}
		return
	}
	if r.InjectFlit(q.cur.Flit(q.seq), now) {
		n.setActive(i)
		q.seq++
		if q.seq == q.cur.Length {
			q.cur, q.seq = nil, 0
		}
	}
}

// enqueue appends p to node i's source queue. It is the one way into a
// queue, so a queued packet always has i's pending bit set.
func (n *Network) enqueue(i int, p *packet.Packet) {
	n.nis[i].push(p)
	n.pending[i>>6] |= 1 << (uint(i) & 63)
}

func (n *Network) allocID() packet.ID {
	n.nextID++
	return n.nextID
}

// Deliver implements router.Sink: it consumes a flit at its destination's
// reception channel, releases the Token when a recovered header sinks
// (paper Assumption 6), and finalizes packet accounting on tails.
func (n *Network) Deliver(fl packet.Flit, at topology.Node) {
	p := fl.Pkt
	if at != p.Dst {
		panic(fmt.Sprintf("network: %v delivered at %d, destination %d", fl, at, p.Dst))
	}
	p.FlitsDelivered++
	n.counters.FlitsDelivered++
	if fl.IsHeader() {
		p.HeaderArrived = true
		if p.OnDB && n.token != nil {
			if n.token.Release(p, at) {
				n.event(telemetry.TokenRelease, at, p.ID)
			}
		}
	}
	if fl.IsTail() {
		p.DeliveredAt = n.clock.Now()
		n.counters.PacketsDelivered++
		n.outstanding[p.Src]--
		n.event(telemetry.Deliver, at, p.ID)
		if p.FlitsDelivered != p.Length {
			panic(fmt.Sprintf("network: %v tail delivered with %d/%d flits", p, p.FlitsDelivered, p.Length))
		}
		if n.OnDeliver != nil {
			n.OnDeliver(p)
		}
	}
}

// killPresumed implements abort-and-retry recovery (Compressionless-style):
// every presumed-deadlocked packet is killed — all its flits purged from the
// network, every channel it holds released — and requeued at its source for
// retransmission. Killed packets pay the latency penalty the paper points
// out; in exchange no Deadlock Buffer hardware is needed.
func (n *Network) killPresumed() {
	// Only active routers can hold presumed headers (a presumed header is a
	// buffered flit); the purge still visits every router, because a victim
	// can hold channel state (output VC ownership, empty-but-owned input
	// VCs) on drained, inactive routers too.
	victims := n.victimScratch[:0]
	hi := len(n.routers)
	for ri := n.nextActive(0, hi); ri >= 0; ri = n.nextActive(ri+1, hi) {
		if r := n.routers[ri]; r.PresumedHeaders() != 0 {
			victims = r.PresumedPackets(victims)
		}
	}
	for _, p := range n.distinct(victims) {
		if p.FlitsDelivered > 0 {
			panic(fmt.Sprintf("network: killing %v with delivered flits", p))
		}
		n.purge(p)
		// Reset routing state for a fresh attempt and requeue at the back
		// of the source queue (the retransmission delay).
		p.Hops, p.Misroutes, p.DimReversals = 0, 0, 0
		p.OnDeterministic = false
		p.DatelineCrossed = 0
		p.LastDim = -1
		p.InjectedAt = -1
		p.Retries++
		n.outstanding[p.Src]--
		n.counters.PacketsKilled++
		n.enqueue(int(p.Src), p)
		n.event(telemetry.Kill, p.Src, p.ID)
	}
	n.releaseVictims(victims)
}

// distinct compacts victims in place to its distinct packets, each at its
// first occurrence, through the reused seenScratch set.
func (n *Network) distinct(victims []*packet.Packet) []*packet.Packet {
	if n.seenScratch == nil {
		n.seenScratch = make(map[*packet.Packet]bool)
	}
	out := victims[:0]
	for _, p := range victims {
		if !n.seenScratch[p] {
			n.seenScratch[p] = true
			out = append(out, p)
		}
	}
	clear(n.seenScratch)
	return out
}

// releaseVictims returns the victim buffer (at its collected length) to
// victimScratch with no packet kept alive by it.
func (n *Network) releaseVictims(victims []*packet.Packet) {
	clear(victims)
	n.victimScratch = victims[:0]
}

// purge removes every flit of p from every router — input VCs, Deadlock
// Buffer lanes, and the channel state p holds — and stops its injection
// stream. It returns the number of flits removed. It is the one way a
// packet leaves the network other than by delivery: abort-retry kills
// (killPresumed) and reconfiguration drops (dropVictims) both collect
// victims, purge each distinct one, then releaseVictims.
func (n *Network) purge(p *packet.Packet) int {
	flits := 0
	for _, r := range n.routers {
		flits += r.PurgePacket(p)
	}
	n.routerState.Release(p)
	if q := &n.nis[p.Src]; q.cur == p {
		q.cur, q.seq = nil, 0
	}
	return flits
}
