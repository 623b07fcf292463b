package network

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// EnableTelemetry attaches an instrumentation hub to the network: per-router
// and per-virtual-channel counters/gauges in the Prometheus registry, Go
// runtime gauges, the sampler writing sampledFamilies (with a Writer), the
// recovery-episode tracker, the deadlock flight recorder, and (when
// ProfileEvery > 0 in opts) the kernel phase profiler. It must be called
// before the first Step; calling it again replaces the previous hub.
//
// Everything registered here is pull-based — callbacks into state the
// routers already maintain — so the simulation hot path is untouched and
// results are bit-identical with telemetry on or off (see
// TestTelemetryDeterminism). The phase profiler and the packet-event stream
// (event → Hub.Observe: snapshot trigger, episode tracker, JSONL) add
// bounded push-side work, but only wall-clock reads and span bookkeeping:
// neither touches simulation state, so the golden digests hold with both
// enabled (TestGoldenDigestsWithObservability).
func (n *Network) EnableTelemetry(opts telemetry.Options) *telemetry.Hub {
	h := telemetry.NewHub(opts)
	n.tel = h
	n.registerMetrics(h.Registry)
	telemetry.RegisterRuntimeMetrics(h.Registry)
	if h.Sampler != nil {
		for _, name := range sampledFamilies {
			if name != "disha_token_hold_cycles" || n.token != nil {
				h.Sampler.Track(name)
			}
		}
	}
	n.prof = nil
	if opts.ProfileEvery > 0 {
		n.prof = newPhaseProfiler(h.Registry, opts.ProfileEvery)
	}
	// From now on the routers report every newly presumed header as a
	// Timeout event (bookkeeping they skip on an unobserved run).
	n.routerState.SetOnTimeout(func(node topology.Node, p *packet.Packet) {
		n.event(telemetry.Timeout, node, p.ID)
	})
	return h
}

// Telemetry returns the attached hub, or nil.
func (n *Network) Telemetry() *telemetry.Hub { return n.tel }

// registerMetrics registers the exposition metrics: network-wide totals and
// per-router (plus per-router-per-VC) instrumentation.
func (n *Network) registerMetrics(reg *telemetry.Registry) {
	// Network-wide counters, from the Counters table (the per-router rows
	// are registered below, once per router).
	for _, row := range counterTable {
		if row.perRouter != nil {
			continue
		}
		reg.CounterFunc(row.metric, row.help, nil, func() int64 {
			c := n.Counters()
			return *row.field(&c)
		})
	}
	reg.CounterFunc("disha_reconfig_events_total", "Reconfiguration events applied (kills and heals).", nil,
		func() int64 {
			applied := int64(0)
			for i := range n.reconfigLog {
				if n.reconfigLog[i].Applied {
					applied++
				}
			}
			return applied
		})
	reg.GaugeFunc("disha_links_down", "Links currently failed or killed (healed links excluded).", nil,
		func() float64 { return float64(n.FailedLinks()) })
	reg.GaugeFunc("disha_packets_in_flight", "Packets injected but not yet delivered.", nil,
		func() float64 { return float64(n.InFlight()) })
	reg.GaugeFunc("disha_source_queued_packets", "Packets waiting in source queues.", nil,
		func() float64 { return float64(n.QueuedPackets()) })

	if n.token != nil {
		reg.GaugeFunc("disha_token_held", "1 while a recovering packet holds the Token.", nil,
			func() float64 {
				if n.token.Held() {
					return 1
				}
				return 0
			})
	}

	// Per-router metrics. Label cardinality is nodes (+ nodes x VCs for the
	// blocked-cycle counters): fine for the network sizes the paper uses.
	for _, r := range n.routers {
		node := telemetry.Labels{{Key: "node", Value: strconv.Itoa(int(r.Node()))}}
		reg.CounterFunc("disha_flits_forwarded_total", "Flits sent on network output ports.", node,
			func() int64 { return r.Stats().FlitsSwitched })
		reg.CounterFunc("disha_flits_ejected_total", "Flits consumed by the local reception channel(s).", node,
			func() int64 { return r.Stats().FlitsEjected })
		reg.CounterFunc("disha_db_flits_total", "Flits that transited this router's Deadlock Buffer.", node,
			func() int64 { return r.Stats().DBFlitsCarried })
		for _, row := range counterTable {
			if row.perRouter != nil {
				reg.CounterFunc(row.metric, row.help, node, func() int64 { return row.perRouter(r.Stats()) })
			}
		}
		reg.GaugeFunc("disha_blocked_headers", "Headers that failed to advance last cycle.", node,
			func() float64 { return float64(r.BlockedHeaders()) })
		reg.GaugeFunc("disha_presumed_headers", "Headers currently past T_out (presumed deadlocked).", node,
			func() float64 { return float64(r.PresumedHeaders()) })
		reg.GaugeFunc("disha_db_occupancy", "Flits currently in the Deadlock Buffer lane(s).", node,
			func() float64 { return float64(r.DBOccupancy()) })
		for v := 0; v < n.cfg.Router.VCs; v++ {
			lbl := telemetry.Labels{
				{Key: "node", Value: strconv.Itoa(int(r.Node()))},
				{Key: "vc", Value: strconv.Itoa(v)},
			}
			reg.CounterFunc("disha_vc_blocked_cycles_total",
				"Header-cycles spent blocked on this VC index (summed over input ports).", lbl,
				func() int64 { return r.BlockedCyclesVC(v) })
		}
	}
}

// sampledFamilies are the registry families the sampler writes, in
// sampling order: network-level congestion and recovery signals (the
// per-router families summed over routers) and the Go runtime gauges. The
// Token's hold cycles are tracked only when the network has a Token.
var sampledFamilies = []string{
	"disha_packets_in_flight", "disha_source_queued_packets",
	"disha_blocked_headers", "disha_presumed_headers", "disha_db_occupancy",
	"disha_recoveries_total", "disha_token_hold_cycles",
	"go_goroutines", "go_heap_alloc_bytes", "go_gc_pause_total_seconds",
}

// telemetryTick runs at the end of every Step while telemetry is attached:
// it captures a sparse flight-recorder frame, dumps a snapshot if this
// cycle presumed a new deadlock (throttled by the recorder's cooldown), and
// ticks the hub, which samples and publishes on its period.
//
// It runs after the timer phase and before the deactivation sweep, so every
// router that ran this cycle is still active, and an inactive one missed
// this cycle's timer pass: it reads 0 blocked, 0 presumed and (drained) 0
// Deadlock Buffer flits, which is the frame's "absent". The frame therefore
// walks the active set; the snapshot and the sampled families read every
// router. verdict is this cycle's WFG analysis, if labelEpisodes ran one.
func (n *Network) telemetryTick(now sim.Cycle, verdict *core.WFGResult) {
	h, rec := n.tel, n.tel.Recorder
	fr := rec.BeginFrame(int64(now))
	hi := len(n.routers)
	for i := n.nextActive(0, hi); i >= 0; i = n.nextActive(i+1, hi) {
		r := n.routers[i]
		b, p, d := r.BlockedHeaders(), r.PresumedHeaders(), r.DBOccupancy()
		if b == 0 && p == 0 && d == 0 {
			continue
		}
		fr.Routers = append(fr.Routers, telemetry.RouterFrame{
			Node: int32(i), Blocked: int32(b), Presumed: int32(p), DBOcc: int32(d),
		})
	}
	if node, pkt, ok := h.TakeTrigger(); ok && rec.ShouldSnapshot(int64(now)) {
		snap := n.buildSnapshot(now, node, pkt, verdict)
		rec.AddSnapshot(snap)
		if h.Writer != nil {
			h.Writer.WriteSnapshot(snap)
		}
	}
	h.Tick(int64(now))
}

// labelEpisodes applies the WFG verdict to every recovery episode opened
// this cycle and returns the analysis, or nil when no episode opened. It
// runs right after the timer phase — before recovery mutates the wait-for
// graph — so the analysis sees the deadlock the presumption fired on. The
// flight-recorder snapshot built later the same cycle (whose trigger was
// armed by the same presumption) takes the returned analysis, which both
// saves the second analysis and makes the episode labels agree with the
// snapshot's TrueDeadlock verdict by construction.
func (n *Network) labelEpisodes() *core.WFGResult {
	ep := n.tel.Episodes
	if !ep.HasPending() {
		return nil
	}
	w := core.AnalyzeWFG(n.routers)
	ep.LabelPending(w.TrueDeadlock(), w.DeadlockedIDs())
	return &w
}

// buildSnapshot assembles a flight-recorder dump: the retained frames plus
// the instantaneous wait-for-graph (who waits on whom, and whether the
// blocked set contains a true deadlocked configuration). The graph is
// verdict, this cycle's episode-labelling analysis, when labelEpisodes ran
// one (recovery runs between the two, but it only moves already-presumed
// packets onto the Deadlock Buffer — the pre-recovery graph is the one
// worth recording); otherwise the graph is analysed now.
func (n *Network) buildSnapshot(now sim.Cycle, trigNode int, trigPkt int64, verdict *core.WFGResult) *telemetry.Snapshot {
	snap := &telemetry.Snapshot{
		Cycle:       int64(now),
		TriggerNode: trigNode,
		TriggerPkt:  trigPkt,
		Frames:      n.tel.Recorder.Frames(),
	}
	w := verdict
	if w == nil {
		a := core.AnalyzeWFG(n.routers)
		w = &a
	}
	deadlocked := w.DeadlockedIDs()
	for _, bh := range w.Blocked {
		node := telemetry.WFGNode{
			Node:       int(bh.Router.Node()),
			Pkt:        int64(bh.Pkt.ID),
			Deadlocked: deadlocked[int64(bh.Pkt.ID)],
		}
		for _, wp := range bh.WaitsOn {
			node.WaitsOn = append(node.WaitsOn, int64(wp.ID))
		}
		snap.WFG = append(snap.WFG, node)
	}
	snap.TrueDeadlock = w.TrueDeadlock()
	return snap
}
