package topology_test

import (
	"sync"
	"testing"

	disha "repro"
	"repro/internal/topology"
)

// TestConcurrentSimulatorsShareOneBuild starts simulators on one dragonfly
// and one fat tree from many goroutines at once, with the process cache
// empty: each graph and its Deadlock Buffer lane table are built exactly
// once, and every simulator reaches the same state.
func TestConcurrentSimulatorsShareOneBuild(t *testing.T) {
	for _, name := range []string{"dragonfly-4x3", "fattree-6"} {
		t.Run(name, func(t *testing.T) {
			topology.FlushSharedTables()
			t.Cleanup(topology.FlushSharedTables)
			before := topology.SharedTableStats()
			prints := make([]string, 8)
			errs := make([]error, len(prints))
			var wg sync.WaitGroup
			for i := range prints {
				wg.Add(1)
				go func() {
					defer wg.Done()
					g, err := disha.ParseTopology(name)
					if err != nil {
						errs[i] = err
						return
					}
					sim, err := disha.NewSimulator(disha.SimConfig{
						Topo:      g,
						Algorithm: disha.DishaRouting(0),
						Pattern:   disha.Uniform(g),
						LoadRate:  0.3,
						MsgLen:    8,
						Seed:      5,
					})
					if err != nil {
						errs[i] = err
						return
					}
					sim.Run(300)
					prints[i] = sim.Fingerprint()
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			after := topology.SharedTableStats()
			if g, l := after.GraphBuilds-before.GraphBuilds, after.LaneBuilds-before.LaneBuilds; g != 1 || l != 1 {
				t.Fatalf("%d graph builds and %d lane-table builds, want 1 and 1", g, l)
			}
			for i, p := range prints {
				if p != prints[0] {
					t.Fatalf("simulator %d fingerprint %s, simulator 0 %s", i, p, prints[0])
				}
			}
		})
	}
}
