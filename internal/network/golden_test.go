package network

import (
	"encoding/json"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Regenerate the golden digests after an intentional behavior change with:
//
//	go test ./internal/network -run 'TestGoldenDigests$|TestDifferentialLockstep' -update-golden
//
// Then inspect the diff of testdata/golden_digests.json and explain the
// change in the commit message: a digest change means every simulation
// result in results/ shifts too.
var updateGolden = flag.Bool("update-golden", false, "rewrite the digests of the tests run in testdata/golden_digests.json from the current kernel")

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
		// Radix 11 with 6 VCs: 67 input slots per router, the only golden
		// case whose slot masks span two words.
		{
			name:   "dragonfly-67",
			cycles: 600,
			build: func() Config {
				cfg := testConfig(topology.MustDragonfly(8, 4), routing.Disha(2), 0.5, 42)
				cfg.Router.VCs = 6
				cfg.Router.BufferDepth = 1
				cfg.Router.Timeout = 4
				return cfg
			},
		},
		// Packet-by-packet allocation: held connections, Deadlock Buffer
		// preemption and the reconfiguration buffer under the same
		// deadlock-prone knobs.
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

// lockstepCases are the 300-cycle runs of every diffCase under every
// diffTraffic, named "case/traffic"; TestDifferentialLockstep holds each to
// the golden entry "lockstep/case/traffic".
func lockstepCases() []goldenCase {
	var out []goldenCase
	for _, dc := range diffCases() {
		for _, tr := range diffTraffics(dc.build().Topo) {
			dc, tr := dc, tr
			out = append(out, goldenCase{
				name:   dc.name + "/" + tr.name,
				cycles: 300,
				build: func() Config {
					cfg := dc.build()
					tr.apply(&cfg)
					return cfg
				},
			})
		}
	}
	return out
}

// runCase steps a fresh network for the case's cycle budget, checking
// structural invariants along the way, and returns the final state
// fingerprint. A non-nil prepare (useFullScan) is applied to the network
// before its first Step; it must land on the same committed digest.
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
	checkGolden(t, "", goldenCases())
}

// checkGolden runs each case in a subtest and compares its final
// fingerprint with the golden entry prefix+name. Under -update-golden it
// writes those entries instead and leaves every other entry as it was.
func checkGolden(t *testing.T, prefix string, cases []goldenCase) {
	digests := make(map[string]string)
	for _, gc := range cases {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			digests[prefix+gc.name] = runCase(t, gc, nil)
		})
	}

	if *updateGolden {
		all := make(map[string]string)
		if raw, err := os.ReadFile(goldenFile); err == nil {
			if err := json.Unmarshal(raw, &all); err != nil {
				t.Fatalf("corrupt golden file: %v", err)
			}
		}
		maps.Copy(all, digests)
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %d entries of %s", len(digests), goldenFile)
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

// TestGoldenKernelVariants holds the full scan (active-set scheduler off),
// the kernel the active set is defined against, to the committed digests of
// the golden and lockstep cases: skipping idle routers must not change a
// run.
func TestGoldenKernelVariants(t *testing.T) {
	if *updateGolden {
		t.Skip("golden digests are updated by TestGoldenDigests and TestDifferentialLockstep")
	}
	want := readGolden(t)
	for _, set := range []struct {
		prefix string
		cases  []goldenCase
	}{{"", goldenCases()}, {"lockstep/", lockstepCases()}} {
		for _, gc := range set.cases {
			gc, key := gc, set.prefix+gc.name
			t.Run(key, func(t *testing.T) {
				if got := runCase(t, gc, useFullScan); got != want[key] {
					t.Errorf("full scan: digest %s, golden %s", got, want[key])
				}
			})
		}
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
