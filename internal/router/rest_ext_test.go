package router_test

import (
	"testing"

	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestSnapshotListingMatchesRestingBytes runs the golden suite's deadlock-prone
// DISHA settings on a torus, a full mesh and two dragonflies, the torus once
// per allocation and recovery mode, and every 10th cycle holds every
// router to Router.CheckRest: a slot the snapshot walk leaves out of its
// listing is exactly one whose walk codes a resting slot's bytes.
func TestSnapshotListingMatchesRestingBytes(t *testing.T) {
	tight := func(topo topology.Graph, alg routing.Algorithm, load float64, depth int, mode func(*router.Config)) network.Config {
		rc := router.Default()
		rc.VCs, rc.BufferDepth, rc.Timeout = 2, depth, 4
		mode(&rc)
		return network.Config{Topo: topo, Router: rc, Algorithm: alg, Pattern: traffic.Uniform(topo), LoadRate: load, MsgLen: 8, Seed: 42}
	}
	same := func(*router.Config) {}
	torus := topology.MustTorus(8, 8)
	for name, cfg := range map[string]network.Config{
		"torus":             tight(torus, routing.Disha(0), 0.6, 1, same),
		"torus/concurrent":  tight(torus, routing.Disha(0), 0.6, 1, func(c *router.Config) { c.Recovery = router.RecoveryConcurrent }),
		"torus/abort-retry": tight(torus, routing.Disha(0), 0.6, 1, func(c *router.Config) { c.Recovery = router.RecoveryAbortRetry }),
		"torus/pbp":         tight(torus, routing.Disha(0), 0.6, 1, func(c *router.Config) { c.Alloc = router.PacketByPacket }),
		"fullmesh":          tight(topology.MustFullMesh(16), routing.Disha(1), 0.4, 1, same),
		"dragonfly":         tight(topology.MustDragonfly(4, 2), routing.Disha(2), 0.5, 2, same),
		"dragonfly-67":      tight(topology.MustDragonfly(8, 4), routing.Disha(2), 0.5, 2, func(c *router.Config) { c.VCs = 6 }),
	} {
		t.Run(name, func(t *testing.T) {
			n, err := network.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for c := 1; c <= 600; c++ {
				n.Step()
				if c%10 != 0 {
					continue
				}
				for _, r := range n.Routers() {
					if err := r.CheckRest(); err != nil {
						t.Fatalf("cycle %d: %v", c, err)
					}
				}
			}
		})
	}
}
