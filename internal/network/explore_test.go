package network

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The exhaustive small-instance explorer runs the production kernel,
// unmodified, from every initial load of a 4-node network until the network
// drains or wedges, and checks every state it visits.
//
// Injection is the kernel's only nondeterminism, so the explorer branches
// on the initial load rather than on every cycle: each node's source queue
// starts with up to two 2-flit packets to any other nodes (1 + 3 + 9 = 13
// choices per node, 13^4 = 28 561 loads), no source generates anything
// after cycle 0, and a run is then a function of (load, seed). Branching on
// injection every cycle instead reached 60 000 states by depth 5 on
// torus-4 without a single presumption at T_out 4.
//
// In every visited state CheckInvariants holds. With sequential recovery
// armed every run drains (the paper's appendix theorem), and a presumed
// header never waits longer than one Token tour while the Token is free
// (Assumption 4: the Token visits every router). With concurrent recovery
// armed every run drains too: its two ascend-then-descend lanes never
// wedge, however many packets recover at once. With recovery off
// the run ends drained or wedged, and core.AnalyzeWFG is held to ground
// truth in the one direction that holds cycle by cycle: a packet it flags
// never moves again. The converse fails mid-run (a blocked header whose
// knot closes only later is rightly unflagged when it is first stuck), so
// it is checked only at the wedged fixed point, where the flagged set must
// equal the stuck set. Avoidance baselines, at the VC count Admits asks
// for, never wedge.

const (
	exploreMsgLen = 2
	exploreTout   = 4
	// exploreLimit bounds a run; every draining run on these instances
	// takes a few dozen cycles.
	exploreLimit = 400
	// exploreStill is how many consecutive cycles without a flit moving make
	// a run with recovery off a wedge. With no Deadlock Buffer and no
	// injection left, a cycle in which nothing moves grants no route either
	// (a granted header holds an empty downstream VC, so it moves in the
	// cycle it is granted), and the next cycle starts from the same buffers,
	// owners and credits: one still cycle is already a fixed point, and the
	// second is margin.
	exploreStill = 2
)

// exploreCase is one kernel configuration the explorer enumerates every load
// of, once per seed.
type exploreCase struct {
	name     string
	topo     topology.Graph
	alg      routing.Algorithm
	vcs      int
	recovery bool                // recovery in mode at T_out exploreTout, or none
	mode     router.RecoveryMode // sequential or concurrent
	seeds    []uint64
	// presumes: the case must presume a deadlock in some run (recovery
	// armed) or wedge in some run (recovery off); otherwise it is vacuous.
	presumes bool
	// avoidance: a deadlock-avoidance baseline, which must never wedge.
	avoidance bool
}

func exploreCases() []exploreCase {
	torus4 := topology.MustTorus(4)
	torus2x2 := topology.MustTorus(2, 2)
	fullmesh4 := topology.MustFullMesh(4)
	seeds := []uint64{1, 2}
	var cases []exploreCase
	for _, in := range []struct {
		name     string
		topo     topology.Graph
		alg      routing.Algorithm
		presumes bool
		// concurrent: also explore concurrent recovery, on the instances
		// whose runs presume most.
		concurrent bool
	}{
		{"torus-4", torus4, routing.Disha(0), true, true},
		{"torus-2x2", torus2x2, routing.Disha(0), true, false},
		// Minimal routing on a full mesh is one hop, so M=0 never presumes;
		// only M=1 puts packets on the BFS Deadlock Buffer lane table.
		{"fullmesh-4-m0", fullmesh4, routing.Disha(0), false, false},
		{"fullmesh-4-m1", fullmesh4, routing.Disha(1), true, true},
	} {
		cases = append(cases,
			exploreCase{in.name + "/sequential", in.topo, in.alg, 1, true, router.RecoverySequential, seeds, in.presumes, false},
			// Only torus-4 must wedge: the other instances' runs are
			// checked the same way, but need not deadlock at all.
			exploreCase{in.name + "/off", in.topo, in.alg, 1, false, router.RecoverySequential, seeds, in.name == "torus-4", false})
		if in.concurrent {
			cases = append(cases, exploreCase{in.name + "/concurrent", in.topo, in.alg, 1, true, router.RecoveryConcurrent, seeds, true, false})
		}
	}
	for _, topo := range []topology.Graph{torus4, torus2x2} {
		for _, alg := range []routing.Algorithm{routing.DOR(), routing.NegativeFirst(), routing.DallyAoki(), routing.Duato()} {
			cases = append(cases, exploreCase{topo.Name() + "/" + alg.Name(), topo, alg, alg.MinVCs(topo), false, router.RecoverySequential, []uint64{1}, false, true})
		}
	}
	return cases
}

// exploreStats is what a case reports about its coverage.
type exploreStats struct {
	runs, states int
	// endStates holds the fingerprint of every run's final state (its first
	// 8 bytes): fingerprinting every visited state would double the run time.
	endStates  map[uint64]struct{}
	presumed   int   // runs with at least one timeout
	seizures   int64 // Token seizures over all runs
	recoveries int64 // packets recovered over all runs
	wedged     int   // runs that ended at a fixed point with packets left
	peakHeap   uint64
}

// TestExplore runs every case of exploreCases over every load and seed.
func TestExplore(t *testing.T) {
	if raceEnabled {
		t.Skip("exhaustive: CI runs it without the race detector")
	}
	for _, ec := range exploreCases() {
		ec := ec
		t.Run(ec.name, func(t *testing.T) {
			t.Parallel()
			st := exploreStats{endStates: make(map[uint64]struct{})}
			start := time.Now()
			loads := exploreLoadCount(ec.topo.Nodes())
			for _, seed := range ec.seeds {
				for load := 0; load < loads; load++ {
					exploreRun(t, ec, seed, load, &st)
					if st.runs%4096 == 0 {
						st.samplePeakHeap()
					}
				}
			}
			st.samplePeakHeap()
			secs := time.Since(start).Seconds()
			t.Logf("%d runs, %d states, %d distinct end-state fingerprints, %.0f states/s, %.1f s, peak heap %.1f MB; %d runs presume, %d recoveries, %d Token seizures, %d wedge",
				st.runs, st.states, len(st.endStates), float64(st.states)/secs, secs, float64(st.peakHeap)/(1<<20),
				st.presumed, st.recoveries, st.seizures, st.wedged)
			switch {
			case ec.presumes && ec.recovery && st.presumed == 0:
				t.Error("no run presumed a deadlock; the recovery check is vacuous")
			case ec.presumes && !ec.recovery && st.wedged == 0:
				t.Error("no run wedged with recovery off; the WFG check is vacuous")
			}
		})
	}
}

func (st *exploreStats) samplePeakHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.peakHeap = max(st.peakHeap, ms.HeapAlloc)
}

// exploreLoadCount is the number of initial loads on an n-node network: per
// node, no packet, one of n-1 destinations, or an ordered pair of them.
func exploreLoadCount(n int) int {
	per := 1 + (n - 1) + (n-1)*(n-1)
	total := 1
	for i := 0; i < n; i++ {
		total *= per
	}
	return total
}

// exploreQueue fills every source queue of the fresh network n with load, a
// base-13 number on four nodes with one digit per node, and returns the
// queued destinations per source.
func exploreQueue(n *Network, load int) [][]topology.Node {
	nodes := n.topo.Nodes()
	m := nodes - 1
	per := 1 + m + m*m
	queued := make([][]topology.Node, nodes)
	for src := range queued {
		d := load % per
		load /= per
		var dsts []int // indices among the other nodes
		switch {
		case d == 0:
		case d <= m:
			dsts = []int{d - 1}
		default:
			dsts = []int{(d - 1 - m) / m, (d - 1 - m) % m}
		}
		for _, k := range dsts {
			dst := topology.Node(k)
			if k >= src {
				dst++ // skip the source itself
			}
			n.enqueue(src, packet.New(n.allocID(), topology.Node(src), dst, exploreMsgLen, 0))
			queued[src] = append(queued[src], dst)
		}
	}
	return queued
}

// exploreRun runs one (load, seed) of ec to its end and checks it.
func exploreRun(t *testing.T, ec exploreCase, seed uint64, load int, st *exploreStats) {
	t.Helper()
	cfg := testConfig(ec.topo, ec.alg, 0, seed)
	cfg.MsgLen = exploreMsgLen
	cfg.Router.VCs = ec.vcs
	cfg.Router.BufferDepth = 1
	cfg.Router.Timeout = exploreTout
	cfg.Router.Recovery = ec.mode
	if !ec.recovery {
		cfg.Router.Timeout = 0
	}
	n := mustNet(t, cfg)
	queued := exploreQueue(n, load)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d, destinations queued per source %v, cycle %d: %s", seed, queued, n.Now(), fmt.Sprintf(format, args...))
	}
	visit := func() {
		if err := n.CheckInvariants(); err != nil {
			fail("%v", err)
		}
		st.states++
	}
	st.runs++
	defer func() {
		fp := n.Fingerprint()
		st.endStates[binary.LittleEndian.Uint64(fp[:8])] = struct{}{}
	}()

	if ec.recovery {
		// A free Token visits TokenHopsPerCycle routers a cycle, so it
		// passes every router within tour cycles (paper Assumption 4): a
		// presumed header may not wait longer than that while it is free.
		hops := n.cfg.TokenHopsPerCycle
		tour := (len(n.routers) + hops - 1) / hops
		unserved := 0
		for !n.Drained() {
			if n.Now() >= exploreLimit {
				fail("%s recovery has not drained the network", ec.mode)
			}
			n.Step()
			visit()
			if n.token != nil && exploreTokenIdle(n) {
				unserved++
			} else {
				unserved = 0
			}
			if unserved > tour {
				fail("a presumed header waited %d cycles while the Token was free", unserved)
			}
		}
		c := n.Counters()
		if c.TimeoutEvents > 0 {
			st.presumed++
		}
		st.seizures += c.TokenSeizures
		st.recoveries += c.Recoveries
		return
	}

	// Recovery off: remember where each packet was when the analyzer first
	// flagged it, and run to a drain or a fixed point.
	type where struct {
		node     topology.Node
		port, vc int
		hops     int
	}
	flaggedAt := make(map[*packet.Packet]where)
	var wfg core.WFGResult
	still := 0
	for !n.Drained() && still < exploreStill {
		if n.Now() >= exploreLimit {
			fail("recovery off: neither drained nor wedged")
		}
		before := exploreMotion(n)
		n.Step()
		visit()
		wfg = core.AnalyzeWFG(n.Routers())
		for _, bh := range wfg.Deadlocked {
			if _, ok := flaggedAt[bh.Pkt]; !ok {
				flaggedAt[bh.Pkt] = where{bh.Router.Node(), bh.Port, bh.VC, bh.Pkt.Hops}
			}
		}
		if exploreMotion(n) == before {
			still++
		} else {
			still = 0
		}
	}
	for p, w := range flaggedAt {
		node, port, vc, ok := headerSlot(n, p)
		if !ok || p.FlitsDelivered > 0 || p.Hops != w.hops || node != w.node || port != w.port || vc != w.vc {
			fail("packet %d flagged deadlocked at node %d input (%d,%d) moved again", p.ID, w.node, w.port, w.vc)
		}
	}
	if n.Drained() {
		return
	}
	st.wedged++
	if ec.avoidance {
		fail("deadlock-avoidance routing wedged")
	}
	flagged := make(map[packet.ID]bool)
	for _, bh := range wfg.Deadlocked {
		flagged[bh.Pkt.ID] = true
	}
	stuck := make(map[packet.ID]bool)
	for _, r := range n.Routers() {
		for p := 0; p < r.InputPorts(); p++ {
			for v := 0; v < r.InputVCCount(p); v++ {
				if r.InputOccupancy(p, v) > 0 {
					stuck[r.InputOwner(p, v).ID] = true
				}
			}
		}
	}
	if !sameIDs(flagged, stuck) {
		fail("wedged with packets %v in the network, AnalyzeWFG flags %v", sortedIDs(stuck), sortedIDs(flagged))
	}
}

// exploreTokenIdle reports whether the Token is free while some router holds
// a presumed-deadlocked header.
func exploreTokenIdle(n *Network) bool {
	if n.token.Held() {
		return false
	}
	for _, r := range n.routers {
		if _, _, ok := r.MostStarved(); ok {
			return true
		}
	}
	return false
}

// exploreMotion changes in every cycle in which a flit is injected, switched
// or ejected anywhere.
func exploreMotion(n *Network) [3]int64 {
	var m [3]int64
	for _, r := range n.routers {
		s := r.Stats()
		m[0] += s.FlitsSwitched
		m[1] += s.FlitsEjected
		m[2] += int64(r.FlitCount())
	}
	return m
}

// headerSlot finds the input VC whose buffer head is p's header.
func headerSlot(n *Network, p *packet.Packet) (node topology.Node, port, vc int, ok bool) {
	for _, r := range n.Routers() {
		for port := 0; port < r.InputPorts(); port++ {
			for vc := 0; vc < r.InputVCCount(port); vc++ {
				if head, ok := r.InputHead(port, vc); ok && head.Pkt == p && head.IsHeader() {
					return r.Node(), port, vc, true
				}
			}
		}
	}
	return 0, 0, 0, false
}

func sameIDs(a, b map[packet.ID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

func sortedIDs(m map[packet.ID]bool) []packet.ID {
	ids := make([]packet.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
