package network

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Regenerate the golden digests after an intentional behavior change with:
//
//	go test ./internal/network -run TestGoldenDigests -update-golden
//
// Then inspect the diff of testdata/golden_digests.json and explain the
// change in the commit message: a digest change means every simulation
// result in results/ shifts too.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.json from the current kernel")

const goldenFile = "testdata/golden_digests.json"

// goldenCase is one pinned simulation: a routing algorithm on an 8x8
// network, fixed seed, fixed cycle count. The DISHA case is tuned to be
// deadlock-prone (tight buffers, low T_out, high load) so the digest also
// pins detection and Token-recovery behavior, not just benign routing.
type goldenCase struct {
	name   string
	cycles int
	build  func() Config
}

func goldenCases() []goldenCase {
	seqRecovery := func(alg routing.Algorithm, topo topology.Topology, load float64) Config {
		cfg := testConfig(topo, alg, load, 42)
		return cfg
	}
	return []goldenCase{
		{
			name:   "disha",
			cycles: 600,
			build: func() Config {
				cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.6, 42)
				cfg.Router.VCs = 2
				cfg.Router.BufferDepth = 1
				cfg.Router.Timeout = 4
				return cfg
			},
		},
		{
			name:   "dor",
			cycles: 600,
			build:  func() Config { return seqRecovery(routing.DOR(), topology.MustTorus(8, 8), 0.4) },
		},
		{
			name:   "negfirst",
			cycles: 600,
			build:  func() Config { return seqRecovery(routing.NegativeFirst(), topology.MustMesh(8, 8), 0.4) },
		},
		{
			name:   "dallyaoki",
			cycles: 600,
			build:  func() Config { return seqRecovery(routing.DallyAoki(), topology.MustTorus(8, 8), 0.4) },
		},
		{
			name:   "duato",
			cycles: 600,
			build:  func() Config { return seqRecovery(routing.Duato(), topology.MustTorus(8, 8), 0.5) },
		},
		// Non-cube digraph topologies route the Deadlock Buffer lane by the
		// BFS next-hop table instead of dimension order; these cases pin
		// that machinery (and Token circulation over a declared, non-
		// serpentine lane) with the same tight deadlock-prone knobs.
		{
			name:   "fullmesh",
			cycles: 600,
			build: func() Config {
				cfg := testConfig(topology.MustFullMesh(16), routing.Disha(1), 0.4, 42)
				cfg.Router.VCs = 2
				cfg.Router.BufferDepth = 1
				cfg.Router.Timeout = 4
				return cfg
			},
		},
		{
			name:   "dragonfly",
			cycles: 600,
			build: func() Config {
				cfg := testConfig(topology.MustDragonfly(4, 2), routing.Disha(2), 0.5, 42)
				cfg.Router.VCs = 2
				cfg.Router.BufferDepth = 2
				cfg.Router.Timeout = 8
				return cfg
			},
		},
		{
			name:   "fattree",
			cycles: 600,
			build: func() Config {
				cfg := testConfig(topology.MustFatTree(4), routing.Disha(1), 0.5, 42)
				cfg.Router.VCs = 2
				cfg.Router.BufferDepth = 2
				cfg.Router.Timeout = 8
				return cfg
			},
		},
		// Packet-by-packet allocation has no reference twin, so this digest
		// is what pins it: held connections, Deadlock Buffer preemption and
		// the reconfiguration buffer under the same deadlock-prone knobs.
		{
			name:   "pbp",
			cycles: 600,
			build: func() Config {
				cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(1), 0.6, 42)
				cfg.Router.VCs = 2
				cfg.Router.BufferDepth = 2
				cfg.Router.Timeout = 4
				cfg.Router.Alloc = router.PacketByPacket
				return cfg
			},
		},
	}
}

// runCase steps a fresh network for the case's cycle budget, checking
// structural invariants along the way, and returns the final state
// fingerprint. A non-nil prepare (useReferenceScan, useFullScan) is applied
// to the network before its first Step; every scan path must land on the
// same committed digest.
func runCase(t *testing.T, gc goldenCase, prepare func(testing.TB, *Network)) string {
	t.Helper()
	n := mustNet(t, gc.build())
	if prepare != nil {
		prepare(t, n)
	}
	for i := 0; i < gc.cycles; i++ {
		n.Step()
		if i%50 == 49 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", i+1, err)
			}
		}
	}
	return n.FingerprintHex()
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	var m map[string]string
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	return m
}

// TestGoldenDigests pins the simulation's full observable behavior — five
// routing algorithms on cubes plus DISHA on the three non-cube digraph
// topologies, fixed seeds — against committed SHA-256 digests.
func TestGoldenDigests(t *testing.T) {
	digests := make(map[string]string)
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			digests[gc.name] = runCase(t, gc, nil)
		})
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(digests, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenFile)
		return
	}

	want := readGolden(t)
	for name, got := range digests {
		if want[name] == "" {
			t.Errorf("%s: no golden digest committed (run with -update-golden)", name)
		} else if got != want[name] {
			t.Errorf("%s: digest %s, golden %s — simulation behavior changed; if intentional, regenerate with -update-golden", name, got, want[name])
		}
	}
}

// TestGoldenKernelVariants holds the two test-only reference kernels to the
// same committed goldens: the retained reference scan path and the full scan
// (active-set scheduler off) must land on the digests the production kernel
// produced. A divergence here with TestGoldenDigests green means a reference
// and the optimized kernel have drifted apart — exactly the regression the
// conformance layer exists to catch.
func TestGoldenKernelVariants(t *testing.T) {
	if *updateGolden {
		t.Skip("golden digests are updated by TestGoldenDigests")
	}
	want := readGolden(t)
	variants := []struct {
		name    string
		prepare func(testing.TB, *Network)
	}{
		{"reference", useReferenceScan},
		{"full-scan", useFullScan},
	}
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			for _, v := range variants {
				if got := runCase(t, gc, v.prepare); got != want[gc.name] {
					t.Errorf("%s: digest %s, golden %s", v.name, got, want[gc.name])
				}
			}
		})
	}
}

// TestGoldenDishaExercisesRecovery guards the DISHA and packet-by-packet
// golden cases against silently degenerating into benign traffic: the digest
// only pins recovery behavior if deadlocks actually occur, and the
// packet-by-packet allocator's preemption path only if the Deadlock Buffer
// actually preempts a held connection.
func TestGoldenDishaExercisesRecovery(t *testing.T) {
	for _, gc := range goldenCases() {
		if gc.name != "disha" && gc.name != "pbp" {
			continue
		}
		n := mustNet(t, gc.build())
		n.Run(gc.cycles)
		c := n.Counters()
		if c.TimeoutEvents == 0 || c.TokenSeizures == 0 {
			t.Errorf("golden %s case is not deadlock-prone: timeouts=%d seizures=%d", gc.name, c.TimeoutEvents, c.TokenSeizures)
		}
		if gc.name == "pbp" && c.Preemptions == 0 {
			t.Errorf("golden pbp case never preempts a crossbar connection")
		}
	}
}
