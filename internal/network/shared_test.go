package network

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestConcurrentFirstCallersBuildOnce builds networks on one dragonfly and
// one fat tree from many goroutines at once: every network reaches the same
// state.
func TestConcurrentFirstCallersBuildOnce(t *testing.T) {
	for _, name := range []string{"dragonfly-4x3", "fattree-6"} {
		t.Run(name, func(t *testing.T) {
			prints := make([][32]byte, 8)
			errs := make([]error, len(prints))
			var wg sync.WaitGroup
			for i := range prints {
				wg.Add(1)
				go func() {
					defer wg.Done()
					g, err := topology.Parse(name)
					if err != nil {
						errs[i] = err
						return
					}
					n, err := New(testConfig(g, routing.Disha(0), 0.3, 5))
					if err != nil {
						errs[i] = err
						return
					}
					n.Run(300)
					prints[i] = n.Fingerprint()
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			for i, p := range prints {
				if p != prints[0] {
					t.Fatalf("network %d fingerprint %x, network 0 %x", i, p, prints[0])
				}
			}
		})
	}
}

// TestNewDigraphVerifiesEveryNetwork builds networks on a full mesh and on
// two NewDigraph graphs that borrow its canonical name: a name does not fix
// a graph's links, so each verdict follows the links of its own graph.
func TestNewDigraphVerifiesEveryNetwork(t *testing.T) {
	mustNet(t, testConfig(topology.MustFullMesh(4), routing.Disha(0), 0.3, 1))
	ring, err := topology.NewDigraph("fullmesh-4", [][]int{{1, 3}, {2, 0}, {3, 1}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	mustNet(t, testConfig(ring, routing.Disha(0), 0.3, 1))
	pairs, err := topology.NewDigraph("fullmesh-4", [][]int{{1}, {0}, {3}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(testConfig(pairs, routing.Disha(0), 0.3, 1)); err == nil || !strings.Contains(err.Error(), "fails Lemma 1") {
		t.Fatalf("two disjoint links named fullmesh-4: err = %v, want a Lemma 1 refusal", err)
	}
}

// liveLink is where port p of v leads now, in core.BFSLaneTableOver's
// shape.
func (n *Network) liveLink(v topology.Node, p int) (topology.Node, int, bool) {
	nb := n.routers[v].Neighbor(p)
	if nb == nil {
		return 0, 0, false
	}
	rev := n.routers[v].ReverseAt(p)
	return nb.Node(), rev, rev >= 0
}

// checkLaneRows asserts that every row n has memoised, and every row it
// would build now, is the row of BFSLaneTableOver over its live links. It
// returns how many rows the memo holds.
func checkLaneRows(t *testing.T, n *Network, what string) int {
	t.Helper()
	nodes := len(n.routers)
	live := core.BFSLaneTableOver(nodes, n.topo.Degree(), n.liveLink)
	row := make([]int16, nodes)
	held := 0
	for d := 0; d < nodes; d++ {
		want := live[d*nodes : (d+1)*nodes]
		if rows := n.routerState.LaneRows(); rows != nil && rows[d] != nil {
			held++
			if !slices.Equal(rows[d], want) {
				t.Fatalf("%s: memoised row toward %d is %v, live links give %v", what, d, rows[d], want)
			}
		}
		n.routerState.BuildLaneRow(topology.Node(d), row)
		if !slices.Equal(row, want) {
			t.Fatalf("%s: row toward %d is %v, live links give %v", what, d, row, want)
		}
	}
	return held
}

// TestReconfiguredRowsFollowLiveLinks cuts and heals a link of one network
// and restores a faulted snapshot into another, on one dragonfly at one
// virtual channel, where recoveries are frequent: after each, and after
// running on, every lane row the network builds is the row
// BFSLaneTableOver gives over its live links.
func TestReconfiguredRowsFollowLiveLinks(t *testing.T) {
	g, err := topology.Parse("dragonfly-4x2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(g, routing.Disha(0), 0.6, 3)
	cfg.Router.VCs = 1
	held := 0
	step := func(n *Network, what string) {
		t.Helper()
		checkLaneRows(t, n, what)
		n.Run(300)
		held = max(held, checkLaneRows(t, n, what+", then 300 cycles"))
	}

	a := mustNet(t, cfg)
	step(a, "construction")
	if err := a.KillLink(0, 0); err != nil {
		t.Fatal(err)
	}
	step(a, "KillLink")
	var snap bytes.Buffer
	if err := a.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := a.HealLink(0, 0); err != nil {
		t.Fatal(err)
	}
	step(a, "HealLink")

	b := mustNet(t, cfg)
	if err := b.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	step(b, "restore with a dead link")
	if held == 0 {
		t.Fatal("no Deadlock Buffer hop built a row; the check saw no memoised row")
	}
}

// TestLaneRowsBuiltOnFirstUse pins the row memo's lifecycle: a fresh
// network on the benchmark's dragonfly holds no row, and rows appear only
// for destinations a Deadlock Buffer hop has needed.
func TestLaneRowsBuiltOnFirstUse(t *testing.T) {
	n := mustNet(t, testConfig(topology.MustDragonfly(16, 8), routing.Disha(0), 0.01, 1))
	if rows := n.routerState.LaneRows(); rows != nil {
		t.Fatalf("a fresh network holds %d row slots", len(rows))
	}
	small := testConfig(topology.MustDragonfly(4, 2), routing.Disha(0), 0.6, 3)
	small.Router.VCs = 1
	m := mustNet(t, small)
	dsts := map[topology.Node]bool{}
	for m.Counters().Recoveries == 0 && m.Now() < 5000 {
		m.Step()
	}
	for _, r := range m.Routers() {
		for l := 0; l < r.DBLanes(); l++ {
			if r.DBLaneLen(l) > 0 {
				dsts[r.DBFlitAt(l, 0).Pkt.Dst] = true
			}
		}
	}
	held := 0
	for d, row := range m.routerState.LaneRows() {
		if row != nil {
			held++
		}
		if row == nil && dsts[topology.Node(d)] {
			t.Fatalf("a Deadlock Buffer holds a flit for %d but no row toward it was built", d)
		}
	}
	if held == 0 || held == m.topo.Nodes() {
		t.Fatalf("%d of %d rows built after the first recovery", held, m.topo.Nodes())
	}
}

// TestConcurrentNetworksShareTables steps two networks on one dragonfly in
// two goroutines at once: they read the graph together, each builds lane
// rows only in its own State, and each reaches the fingerprint it reaches
// when the two are stepped one after the other.
// Run under -race it is also the data-race check on that sharing.
func TestConcurrentNetworksShareTables(t *testing.T) {
	g, err := topology.Parse("dragonfly-4x2")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{3, 9}
	build := func() []*Network {
		nets := make([]*Network, len(seeds))
		for i, seed := range seeds {
			cfg := testConfig(g, routing.Disha(0), 0.4, seed)
			cfg.Router.VCs = 1
			nets[i] = mustNet(t, cfg)
		}
		return nets
	}
	var serial, concurrent [2][32]byte
	for i, n := range build() {
		n.Run(500)
		serial[i] = n.Fingerprint()
	}
	var wg sync.WaitGroup
	nets := build()
	for i, n := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Run(500)
			concurrent[i] = n.Fingerprint()
		}()
	}
	wg.Wait()
	if serial[0] == serial[1] {
		t.Fatal("both seeds reach one state; the comparison would not tell the networks apart")
	}
	if concurrent != serial {
		t.Fatalf("concurrent fingerprints %x, serial %x", concurrent, serial)
	}
	for i, n := range nets {
		if n.routerState.LaneRows() == nil {
			t.Fatalf("network %d built no lane row; the networks shared nothing but the graph", i)
		}
	}
}
