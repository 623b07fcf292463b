package network

import (
	"bytes"
	"slices"
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
