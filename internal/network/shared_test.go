package network

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestColdAndWarmBuildsAgree runs one configuration on a graph built from an
// empty cache and again on the cached graph and lane table: after 500 cycles
// both reach the same state.
func TestColdAndWarmBuildsAgree(t *testing.T) {
	for _, name := range []string{"dragonfly-4x2", "fattree-4", "fullmesh-8"} {
		t.Run(name, func(t *testing.T) {
			topology.FlushSharedTables()
			t.Cleanup(topology.FlushSharedTables)
			var prints [2][32]byte
			for i := range prints {
				g, err := topology.Parse(name)
				if err != nil {
					t.Fatal(err)
				}
				n := mustNet(t, testConfig(g, routing.Disha(0), 0.3, 7))
				n.Run(500)
				prints[i] = n.Fingerprint()
			}
			if prints[0] != prints[1] {
				t.Fatalf("cold build %x, warm build %x", prints[0], prints[1])
			}
		})
	}
}

// TestReconfigurationLeavesSharedTableIntact cuts and heals a link of one
// network and restores a faulted snapshot into another, all on one cached
// dragonfly: each installs a lane table of its own, and a third network on
// the graph is still handed the shared table, byte for byte as first built.
func TestReconfigurationLeavesSharedTableIntact(t *testing.T) {
	g, err := topology.Parse("dragonfly-4x2")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := core.BFSLane(g)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(shared)
	cfg := testConfig(g, routing.Disha(0), 0.3, 3)
	ownsTable := func(n *Network, what string) {
		t.Helper()
		if &n.routerState.LaneTable()[0] == &shared[0] {
			t.Fatalf("%s: the network still routes by the shared table", what)
		}
		if !slices.Equal(shared, want) {
			t.Fatalf("%s wrote into the shared lane table", what)
		}
	}

	a := mustNet(t, cfg)
	a.Run(300)
	if err := a.KillLink(0, 0); err != nil {
		t.Fatal(err)
	}
	ownsTable(a, "KillLink")
	a.Run(300)
	var snap bytes.Buffer
	if err := a.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := a.HealLink(0, 0); err != nil {
		t.Fatal(err)
	}
	ownsTable(a, "HealLink")
	if err := a.FailLink(1, 0); err != nil {
		t.Fatal(err)
	}
	ownsTable(a, "FailLink")

	b := mustNet(t, cfg)
	if err := b.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	ownsTable(b, "restore with a dead link")
	b.Run(300)

	c := mustNet(t, cfg)
	if &c.routerState.LaneTable()[0] != &shared[0] {
		t.Fatal("a new network on the graph built its own lane table")
	}
}

// TestConcurrentNetworksShareTables steps two networks on one cached
// dragonfly in two goroutines at once: they read the graph's distance and
// lane tables together, each writes only its own State (its scratch
// included), and each reaches the fingerprint it reaches when the two are
// stepped one after the other. Run under -race it is also the data-race
// check on that sharing.
func TestConcurrentNetworksShareTables(t *testing.T) {
	g, err := topology.Parse("dragonfly-4x2")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{3, 9}
	build := func() []*Network {
		nets := make([]*Network, len(seeds))
		for i, seed := range seeds {
			nets[i] = mustNet(t, testConfig(g, routing.Disha(0), 0.4, seed))
		}
		if &nets[0].routerState.LaneTable()[0] != &nets[1].routerState.LaneTable()[0] {
			t.Fatal("the two networks do not share the graph's lane table")
		}
		return nets
	}
	var serial, concurrent [2][32]byte
	for i, n := range build() {
		n.Run(500)
		serial[i] = n.Fingerprint()
	}
	var wg sync.WaitGroup
	for i, n := range build() {
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
}
