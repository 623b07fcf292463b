package network

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// EnableTelemetry attaches an instrumentation hub to the network: per-router
// and per-virtual-channel counters/gauges in the Prometheus registry, Go
// runtime gauges, a set of default sampler probes, the recovery-episode
// tracker, the deadlock flight recorder, and (when ProfileEvery > 0 in
// opts) the kernel phase profiler. It must be called before the first
// Step; calling it again replaces the previous hub.
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
		n.registerProbes(h.Sampler)
		telemetry.AddRuntimeProbes(h.Sampler)
	}
	n.prof = nil
	if opts.ProfileEvery > 0 {
		n.prof = newPhaseProfiler(h.Registry, opts.ProfileEvery)
	}
	n.observe()
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
	reg.CounterFunc("disha_reconfig_events_total", "Reconfiguration events applied (kills, heals, routing swaps).", nil,
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
		func() float64 { return float64(n.failedLinks) })
	reg.GaugeFunc("disha_routers_dead", "Routers currently killed.", nil,
		func() float64 { return float64(n.deadCount) })
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
		node := telemetry.Labels{{Key: "node", Value: strconv.Itoa(int(r.NodeID()))}}
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
				{Key: "node", Value: strconv.Itoa(int(r.NodeID()))},
				{Key: "vc", Value: strconv.Itoa(v)},
			}
			reg.CounterFunc("disha_vc_blocked_cycles_total",
				"Header-cycles spent blocked on this VC index (summed over input ports).", lbl,
				func() int64 { return r.BlockedCyclesVC(v) })
		}
	}
}

// registerProbes installs the default sampled time series: network-level
// congestion and recovery signals cheap enough to evaluate every tick.
func (n *Network) registerProbes(s *telemetry.Sampler) {
	s.AddProbe(telemetry.Probe{Name: "disha_packets_in_flight", Fn: func() float64 {
		return float64(n.InFlight())
	}})
	s.AddProbe(telemetry.Probe{Name: "disha_source_queued_packets", Fn: func() float64 {
		return float64(n.QueuedPackets())
	}})
	s.AddProbe(telemetry.Probe{Name: "disha_blocked_headers", Fn: func() float64 {
		total := 0
		for _, r := range n.routers {
			total += r.BlockedHeaders()
		}
		return float64(total)
	}})
	s.AddProbe(telemetry.Probe{Name: "disha_presumed_headers", Fn: func() float64 {
		total := 0
		for _, r := range n.routers {
			total += r.PresumedHeaders()
		}
		return float64(total)
	}})
	s.AddProbe(telemetry.Probe{Name: "disha_db_occupancy", Fn: func() float64 {
		total := 0
		for _, r := range n.routers {
			total += r.DBOccupancy()
		}
		return float64(total)
	}})
	s.AddProbe(telemetry.Probe{Name: "disha_recoveries_total", Fn: func() float64 {
		return float64(n.Counters().Recoveries)
	}})
	if n.token != nil {
		s.AddProbe(telemetry.Probe{Name: "disha_token_hold_cycles", Fn: func() float64 {
			return float64(n.token.HoldCycles())
		}})
	}
}

// telemetryTick runs at the end of every Step while telemetry is attached:
// it captures a sparse flight-recorder frame, dumps a snapshot if this
// cycle presumed a new deadlock (throttled by the recorder's cooldown), and
// fires the sampler on its period.
func (n *Network) telemetryTick(now sim.Cycle) {
	// Telemetry observes routers the active-set scheduler may be skipping
	// (per-router gauges, probe totals, flight-recorder frames); fast-forward
	// them so every reading matches a kernel that never skips.
	n.syncIdle()
	h := n.tel
	if rec := h.Recorder; rec != nil {
		fr := rec.BeginFrame(int64(now))
		for i, r := range n.routers {
			b, p, d := r.BlockedHeaders(), r.PresumedHeaders(), r.DBOccupancy()
			if b == 0 && p == 0 && d == 0 {
				continue
			}
			fr.Routers = append(fr.Routers, telemetry.RouterFrame{
				Node: int32(i), Blocked: int32(b), Presumed: int32(p), DBOcc: int32(d),
			})
		}
		if node, pkt, ok := h.TakeTrigger(); ok && rec.ShouldSnapshot(int64(now)) {
			snap := n.buildSnapshot(now, node, pkt)
			rec.AddSnapshot(snap)
			if h.Writer != nil {
				h.Writer.WriteSnapshot(snap)
			}
		}
	} else {
		h.TakeTrigger() // keep the trigger from going stale
	}
	if s := h.Sampler; s != nil && s.Due(int64(now)) {
		s.Sample(int64(now))
		h.Registry.Publish()
	}
}

// labelEpisodes applies the WFG verdict to every recovery episode opened
// this cycle. It runs right after the timeout flush — before recovery
// mutates the wait-for graph — so the analysis sees the deadlock the
// presumption fired on. The result is cached on the network: the
// flight-recorder snapshot built later the same cycle (whose trigger was
// armed by the same presumption) reuses it, which both saves the second
// analysis and makes the episode labels agree with the snapshot's
// TrueDeadlock verdict by construction.
func (n *Network) labelEpisodes(now sim.Cycle) {
	ep := n.tel.Episodes
	if !ep.HasPending() {
		return
	}
	// The analyzer walks every router; fast-forward the ones the
	// active-set scheduler is skipping so it sees canonical state.
	n.syncIdle()
	w := core.AnalyzeWFG(n.routers)
	n.wfgCache, n.wfgCacheAt, n.wfgCacheOK = w, now, true
	ep.LabelPending(w.TrueDeadlock(), w.DeadlockedIDs())
}

// buildSnapshot assembles a flight-recorder dump: the retained frames plus
// the instantaneous wait-for-graph (who waits on whom, and whether the
// blocked set contains a true deadlocked configuration). The graph is
// reused from this cycle's episode labeling when available (recovery runs
// between the two, but it only moves already-presumed packets onto the
// Deadlock Buffer — the pre-recovery graph is the one worth recording).
func (n *Network) buildSnapshot(now sim.Cycle, trigNode int, trigPkt int64) *telemetry.Snapshot {
	snap := &telemetry.Snapshot{
		Cycle:       int64(now),
		TriggerNode: trigNode,
		TriggerPkt:  trigPkt,
		Frames:      n.tel.Recorder.Frames(),
	}
	var w core.WFGResult
	if n.wfgCacheOK && n.wfgCacheAt == now {
		w = n.wfgCache
	} else {
		w = core.AnalyzeWFG(n.routers)
	}
	deadlocked := w.DeadlockedIDs()
	for _, bh := range w.Blocked {
		node := telemetry.WFGNode{
			Node:       int(bh.Router.NodeID()),
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
