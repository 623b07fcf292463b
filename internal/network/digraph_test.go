package network

import (
	"strings"
	"testing"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// badLaneGraph overrides a sound topology's declared recovery lane, so the
// constructor's lane validation can be exercised in isolation.
type badLaneGraph struct {
	topology.Graph
	lane []topology.Node
}

func (b badLaneGraph) RecoveryLane() []topology.Node {
	out := make([]topology.Node, len(b.lane))
	copy(out, b.lane)
	return out
}

// TestRejectsUnpairedLinks pins the graceful rejection of digraphs whose
// links have no antiparallel twin: wormhole credits and purges flow along
// the reverse channel, so wiring such a topology used to corrupt credit
// state (or panic) instead of failing construction.
func TestRejectsUnpairedLinks(t *testing.T) {
	uniring, err := topology.NewDigraph("uniring-4", [][]int{{1}, {2}, {3}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(testConfig(uniring, routing.Disha(0), 0.2, 1))
	if err == nil || !strings.Contains(err.Error(), "no reverse channel") {
		t.Fatalf("unpaired digraph: err = %v, want reverse-channel rejection", err)
	}
}

// TestRejectsOversizedDegree pins that a topology with more ports per router
// than the switch allocators' fixed arrays hold (e.g. `-topo fullmesh-256`)
// is a construction error; it used to build and then panic on the first Step.
func TestRejectsOversizedDegree(t *testing.T) {
	if _, err := New(testConfig(topology.MustFullMesh(64), routing.Disha(0), 0.01, 1)); err != nil {
		t.Fatalf("fullmesh-64 (degree 63): %v", err)
	}
	_, err := New(testConfig(topology.MustFullMesh(65), routing.Disha(0), 0.01, 1))
	if err == nil || !strings.Contains(err.Error(), "router degree 64") {
		t.Fatalf("fullmesh-65: err = %v, want a router-degree rejection", err)
	}
}

// TestRejectsBadRecoveryLane pins the constructor-time validation of the
// declared recovery lane. A lane that skips nodes, repeats a node, or (for
// concurrent recovery) steps between unlinked nodes used to panic deep in
// wiring; every shape must now surface as an error from New. The last is the
// Lemma 1 gate's: the lane table derived from such an order gets stuck.
func TestRejectsBadRecoveryLane(t *testing.T) {
	base := topology.MustHypercube(2)
	cases := []struct {
		name string
		lane []topology.Node
		mode router.RecoveryMode
		want string
	}{
		{"truncated", []topology.Node{0, 1}, router.RecoverySequential, "visits 2 of 4"},
		{"duplicate", []topology.Node{0, 1, 1, 2}, router.RecoverySequential, "not a permutation"},
		// 0,1,2,3 is a permutation, but 1->2 flips two bits: not a
		// hypercube link, which only concurrent recovery requires.
		{"unlinked step", []topology.Node{0, 1, 2, 3}, router.RecoveryConcurrent, "fails Lemma 1: core: lane stuck"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig(badLaneGraph{base, c.lane}, routing.Disha(0), 0.2, 1)
			cfg.Router.Recovery = c.mode
			_, err := New(cfg)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
		})
	}
	// The identity lane 0,1,2,3 is fine for Token-serialized recovery,
	// which puts no adjacency requirement on the lane.
	cfg := testConfig(badLaneGraph{base, []topology.Node{0, 1, 2, 3}}, routing.Disha(0), 0.2, 1)
	cfg.Router.Recovery = router.RecoverySequential
	if _, err := New(cfg); err != nil {
		t.Fatalf("identity lane rejected for sequential recovery: %v", err)
	}
}

// TestDigraphTopologiesDrain runs DISHA with Token recovery end-to-end on
// each non-cube constructor: inject, deliver, drain, and keep every
// structural invariant intact.
func TestDigraphTopologiesDrain(t *testing.T) {
	for _, g := range []topology.Graph{
		topology.MustFullMesh(8),
		topology.MustDragonfly(2, 1),
		topology.MustFatTree(4),
	} {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			cfg := testConfig(g, routing.Disha(1), 0.2, 11)
			cfg.Router.VCs = 2
			cfg.Router.BufferDepth = 2
			cfg.Router.Timeout = 8
			n := mustNet(t, cfg)
			drain(t, n, 400, 20000)
			if n.Counters().PacketsDelivered == 0 {
				t.Fatal("no packets delivered")
			}
			if err := n.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDigraphRejectsCoordinateAlgorithms pins the MinVCs gate: the DOR
// family needs cube coordinates and must be refused on a digraph with a
// clear error instead of a type-assertion panic at routing time.
func TestDigraphRejectsCoordinateAlgorithms(t *testing.T) {
	g := topology.MustFullMesh(8)
	for _, alg := range []routing.Algorithm{
		routing.DOR(), routing.NegativeFirst(), routing.DallyAoki(), routing.Duato(),
	} {
		_, err := New(testConfig(g, alg, 0.2, 1))
		if err == nil || !strings.Contains(err.Error(), "not supported on") {
			t.Fatalf("%s on %s: err = %v, want coordinate rejection", alg.Name(), g.Name(), err)
		}
	}
}
