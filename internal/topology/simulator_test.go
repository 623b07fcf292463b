package topology_test

import (
	"sync"
	"testing"

	disha "repro"
)

// TestConcurrentSimulatorsShareOneBuild starts simulators on one dragonfly
// and one fat tree from many goroutines at once: every simulator reaches the
// same state. They share the graph's one Lemma 1 verdict
// (internal/network's TestConcurrentFirstCallersBuildOnce counts its walks)
// and each builds its own Deadlock Buffer lane rows.
func TestConcurrentSimulatorsShareOneBuild(t *testing.T) {
	for _, name := range []string{"dragonfly-4x3", "fattree-6"} {
		t.Run(name, func(t *testing.T) {
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
			for i, p := range prints {
				if p != prints[0] {
					t.Fatalf("simulator %d fingerprint %s, simulator 0 %s", i, p, prints[0])
				}
			}
		})
	}
}
