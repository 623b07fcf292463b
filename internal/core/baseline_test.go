package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The avoidance baselines are proved deadlock-free from the code the
// simulator runs: the dependency graph below is derived from each
// algorithm's own Route, every candidate applied by router.HeaderHop, the
// kernel's header update. A cycle in a graph means "not proved", never
// "deadlocks": whether a cyclic configuration is reachable is the
// explorer's question (TestExplore).

// hopState is a header at node, holding the output VC held (the channel it
// arrived on; injected at the source), with the header fields Route reads.
type hopState struct {
	held      core.Channel
	node, dst topology.Node
	misroutes int
	reversals int
	lastDim   int
	onDet     bool
	crossed   uint64
}

// injected marks a header still in its source's injection channel.
var injected = core.Channel{Port: -1, VC: -1}

func (s hopState) packet() *packet.Packet {
	return &packet.Packet{Dst: s.dst, Misroutes: s.misroutes, DimReversals: s.reversals,
		LastDim: s.lastDim, OnDeterministic: s.onDet, DatelineCrossed: s.crossed}
}

// stubView is a router where every output VC is free or, with held, every
// one is held by an occupant of dimension-reversal count dr.
type stubView struct {
	g    topology.Graph
	node topology.Node
	vcs  int
	held bool
	dr   int
}

func (v stubView) Node() topology.Node  { return v.node }
func (v stubView) Topo() topology.Graph { return v.g }
func (v stubView) VCs() int             { return v.vcs }
func (v stubView) LinkExists(port int) bool {
	_, ok := v.g.Neighbor(v.node, port)
	return ok
}
func (v stubView) OutputVCFree(int, int) bool                { return !v.held }
func (v stubView) OccupantDimReversals(int, int) (int, bool) { return v.dr, v.held }
func (v stubView) FreeVCs(int) int {
	if v.held {
		return 0
	}
	return v.vcs
}

// move is one candidate Route offers in a state, and the state it leads to
// (-1 where the hop delivers the header).
type move struct {
	cand routing.Candidate
	ch   core.Channel
	next int
}

// derivation is every header state reachable from every (src, dst)
// injection under alg with vcs VCs per link, the moves out of each, and the
// channel dependency graph they project to: an arc from each state's held
// channel to each channel it may request.
type derivation struct {
	states []hopState
	moves  [][]move
	cdg    *core.Graph
}

func derive(g topology.Graph, alg routing.Algorithm, vcs int) *derivation {
	ctopo, _ := topology.Coordinated(g)
	w := &derivation{cdg: core.NewGraph()}
	index := map[hopState]int{}
	visit := func(s hopState) int {
		i, ok := index[s]
		if !ok {
			i = len(w.states)
			index[s] = i
			w.states = append(w.states, s)
		}
		return i
	}
	for src := range g.Nodes() {
		for dst := range g.Nodes() {
			if src != dst {
				visit(hopState{held: injected, node: topology.Node(src), dst: topology.Node(dst), lastDim: -1})
			}
		}
	}
	var buf []routing.Candidate
	for i := 0; i < len(w.states); i++ {
		s := w.states[i]
		// Every VC free gives Route's whole candidate set; every VC held by
		// an equal dimension-reversal count adds Dally & Aoki's forced move
		// to the deterministic class. The router drops a candidate whose
		// link does not exist.
		var cands []routing.Candidate
		for _, v := range []stubView{{g: g, node: s.node, vcs: vcs}, {g: g, node: s.node, vcs: vcs, held: true, dr: s.reversals}} {
			buf = alg.Route(v, s.packet(), buf[:0])
			for _, c := range buf {
				if v.LinkExists(c.Port) && !slices.Contains(cands, c) {
					cands = append(cands, c)
				}
			}
		}
		var moves []move
		for _, c := range cands {
			p := s.packet()
			p.OnDeterministic = p.OnDeterministic || c.ToDeterministic
			to, _ := g.Neighbor(s.node, c.Port)
			router.HeaderHop(g, ctopo, p, s.node, c.Port, to)
			ch := core.Channel{From: s.node, Port: c.Port, VC: c.VC}
			w.cdg.AddChannel(ch)
			if s.held != injected {
				w.cdg.AddDep(s.held, ch)
			}
			next := -1
			if to != s.dst {
				next = visit(hopState{held: ch, node: to, dst: s.dst, misroutes: p.Misroutes, reversals: p.DimReversals,
					lastDim: p.LastDim, onDet: p.OnDeterministic, crossed: p.DatelineCrossed})
			}
			moves = append(moves, move{cand: c, ch: ch, next: next})
		}
		w.moves = append(w.moves, moves)
	}
	return w
}

// stuck returns a reachable state in which Route offers no candidate.
func (w *derivation) stuck() (hopState, bool) {
	for i, m := range w.moves {
		if len(m) == 0 {
			return w.states[i], true
		}
	}
	return hopState{}, false
}

// proveEscape is Duato's condition for the escape subfunction, the moves
// escape picks out:
//   - escape channels carry only escape moves;
//   - from every reachable state, escape moves alone always reach the
//     destination (the subfunction is connected);
//   - the extended dependency graph over escape channels is acyclic. Its
//     arcs run from each state's held escape channel to every escape
//     channel requested from it directly, or indirectly after adaptive
//     moves.
//
// It returns the extended graph, or an error naming the first violation.
func (w *derivation) proveEscape(escape func(s hopState, m move) bool) (*core.Graph, error) {
	isEsc := map[core.Channel]bool{}
	for i, ms := range w.moves {
		for _, m := range ms {
			if escape(w.states[i], m) {
				isEsc[m.ch] = true
			}
		}
	}
	for i, ms := range w.moves {
		for _, m := range ms {
			if isEsc[m.ch] && !escape(w.states[i], m) {
				return nil, fmt.Errorf("adaptive move %+v takes escape channel %v", m.cand, m.ch)
			}
		}
	}

	const proving, proved = 1, 2
	mark := make([]int8, len(w.states))
	var reaches func(i int) error
	reaches = func(i int) error {
		switch mark[i] {
		case proving:
			return fmt.Errorf("escape moves loop through %+v", w.states[i])
		case proved:
			return nil
		}
		mark[i] = proving
		offered := false
		for _, m := range w.moves[i] {
			if !escape(w.states[i], m) {
				continue
			}
			offered = true
			if m.next >= 0 {
				if err := reaches(m.next); err != nil {
					return err
				}
			}
		}
		if !offered {
			return fmt.Errorf("no escape candidate in %+v", w.states[i])
		}
		mark[i] = proved
		return nil
	}
	for i := range w.states {
		if err := reaches(i); err != nil {
			return nil, err
		}
	}

	ext := core.NewGraph()
	seen := make([]int, len(w.states)) // seen[j] == i+1: state j queued from state i
	for i, s := range w.states {
		if !isEsc[s.held] {
			continue
		}
		ext.AddChannel(s.held)
		queue := []int{i}
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			for _, m := range w.moves[j] {
				switch {
				case escape(w.states[j], m):
					ext.AddDep(s.held, m.ch)
				case m.next >= 0 && seen[m.next] != i+1:
					seen[m.next] = i + 1
					queue = append(queue, m.next)
				}
			}
		}
	}
	if cycle := ext.FindCycle(); cycle != nil {
		return ext, fmt.Errorf("extended escape dependency cycle %v", cycle)
	}
	return ext, nil
}

// duatoEscape is Duato's escape class; dallyAokiDeterministic is Dally &
// Aoki's deterministic class, which a packet enters for good.
func duatoEscape(_ hopState, m move) bool { return m.cand.Class == 1 }

func dallyAokiDeterministic(s hopState, m move) bool { return s.onDet || m.cand.ToDeterministic }

// TestAvoidanceBaselinesDeadlockFree proves each avoidance baseline
// deadlock-free at the VC count its MinVCs states, one more and the paper's
// 4, from the graph its own Route induces:
//   - DOR and negative-first: the graph is acyclic, and every reachable
//     state offers a candidate;
//   - Duato and its strict variant: Duato's condition on the escape class
//     (proveEscape);
//   - Dally & Aoki: the same condition on the deterministic class, which
//     has no indirect dependencies since a packet never leaves it. The
//     adaptive class is safe by the dimension-reversal wait rule (a packet
//     waits only on an occupant with a strictly higher count, so waits
//     cannot close a cycle), not by a dependency graph; that argument is
//     left to the reachability explorer.
//
// Disha's graph is cyclic, which is the paper's point: it is not proved
// here (the test logs one cycle). Its Token-serialized recovery lane is
// proved instead: connected (Lemma 1), which is all one lane needs.
func TestAvoidanceBaselinesDeadlockFree(t *testing.T) {
	cases := []struct {
		alg    routing.Algorithm
		escape func(hopState, move) bool // nil: the whole graph must be acyclic
		topos  []string
	}{
		{routing.DOR(), nil, []string{"torus-4x4", "torus-4x4x4", "mesh-4x4", "hypercube-3"}},
		{routing.NegativeFirst(), nil, []string{"mesh-4x4", "torus-4x4"}},
		{routing.Duato(), duatoEscape, []string{"torus-4x4", "torus-5x5", "mesh-4x4"}},
		{routing.DuatoStrict(), duatoEscape, []string{"torus-4x4", "torus-5x5", "mesh-4x4"}},
		{routing.DallyAoki(), dallyAokiDeterministic, []string{"torus-4x4", "torus-5x5", "mesh-4x4"}},
	}
	for _, tc := range cases {
		for _, name := range tc.topos {
			g, err := topology.Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			// MinVCs, one more, and the paper's 4.
			min := tc.alg.MinVCs(g)
			counts := []int{min, min + 1}
			if min+1 < 4 {
				counts = append(counts, 4)
			}
			for _, vcs := range counts {
				t.Run(fmt.Sprintf("%s/%s/vcs=%d", tc.alg.Name(), name, vcs), func(t *testing.T) {
					w := derive(g, tc.alg, vcs)
					var ext *core.Graph
					var err error
					if tc.escape != nil {
						ext, err = w.proveEscape(tc.escape)
					} else if s, ok := w.stuck(); ok {
						err = fmt.Errorf("no candidate in %+v", s)
					} else if cycle := w.cdg.FindCycle(); cycle != nil {
						err = fmt.Errorf("dependency cycle %v", cycle)
					}
					if err != nil {
						t.Fatalf("not proved (%d states, %d channels, %d dependencies): %v",
							len(w.states), w.cdg.Channels(), w.cdg.Deps(), err)
					}
					t.Logf("proved: %d states, %d channels, %d dependencies", len(w.states), w.cdg.Channels(), w.cdg.Deps())
					if ext != nil {
						t.Logf("escape class: %d channels, %d extended dependencies", ext.Channels(), ext.Deps())
					}
				})
			}
		}
	}

	t.Run("disha-m3/torus-4x4", func(t *testing.T) {
		topo := topology.MustTorus(4, 4)
		w := derive(topo, routing.Disha(3), 1)
		cycle := w.cdg.FindCycle()
		if cycle == nil {
			t.Fatal("Disha's true fully adaptive graph is acyclic")
		}
		t.Logf("not proved, as expected (%d states, %d channels, %d dependencies): cycle %v",
			len(w.states), w.cdg.Channels(), w.cdg.Deps(), cycle)
		if err := core.VerifyLaneConnected(topo, core.DORLane(topo)); err != nil {
			t.Fatalf("recovery lane: %v", err)
		}
	})
}

// TestBaselinesBelowMinVCs records what happens one VC below MinVCs, where
// Route runs at all (DESIGN.md's table). DOR on a torus is stuck: dateline
// class 0 owns no VC, so no injected header has a candidate. Duato and
// Dally & Aoki have no adaptive VC left and prove deadlock-free as plain
// DOR on their escape or deterministic class: for them MinVCs is the count
// that gives any adaptivity, not the count that gives safety.
func TestBaselinesBelowMinVCs(t *testing.T) {
	torus, mesh := topology.MustTorus(4, 4), topology.MustMesh(4, 4)
	w := derive(torus, routing.DOR(), 1)
	stuck := 0
	for i, m := range w.moves {
		if len(m) == 0 && w.states[i].held == injected {
			stuck++
		}
	}
	if want := torus.Nodes() * (torus.Nodes() - 1); stuck != want || len(w.states) != want {
		t.Fatalf("dor at 1 VC on %s: %d of %d states stuck at injection, want all %d", torus.Name(), stuck, len(w.states), want)
	}

	for _, tc := range []struct {
		alg    routing.Algorithm
		topo   topology.Topology
		escape func(hopState, move) bool
	}{
		{routing.Duato(), torus, duatoEscape},
		{routing.Duato(), mesh, duatoEscape},
		{routing.DallyAoki(), torus, dallyAokiDeterministic},
		{routing.DallyAoki(), mesh, dallyAokiDeterministic},
	} {
		vcs := tc.alg.MinVCs(tc.topo) - 1
		w := derive(tc.topo, tc.alg, vcs)
		for i, ms := range w.moves {
			for _, m := range ms {
				if !tc.escape(w.states[i], m) {
					t.Fatalf("%s at %d VCs on %s: adaptive move %+v", tc.alg.Name(), vcs, tc.topo.Name(), m.cand)
				}
			}
		}
		if _, err := w.proveEscape(tc.escape); err != nil {
			t.Fatalf("%s at %d VCs on %s: %v", tc.alg.Name(), vcs, tc.topo.Name(), err)
		}
	}
}
