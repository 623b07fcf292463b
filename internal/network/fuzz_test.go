package network

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// FuzzConfigNormalize drives Config validation (and the constructors behind
// it) with arbitrary parameters: New must either reject the configuration
// with an error or return a network that survives a short run with sound
// invariants — never panic. The algorithm/recovery/allocation selectors are
// decoded modulo their domains so the fuzzer reaches every combination,
// including degenerate VC/buffer settings.
func FuzzConfigNormalize(f *testing.F) {
	f.Add(int8(4), int8(4), uint8(0), int8(4), int8(2), int16(8), uint8(0), uint8(0), int16(8), uint16(100))
	f.Add(int8(8), int8(8), uint8(1), int8(1), int8(1), int16(4), uint8(1), uint8(0), int16(32), uint16(300))
	f.Add(int8(3), int8(5), uint8(2), int8(2), int8(1), int16(1), uint8(2), uint8(1), int16(1), uint16(50))
	f.Add(int8(2), int8(0), uint8(3), int8(0), int8(0), int16(0), uint8(0), uint8(1), int16(0), uint16(10))
	f.Add(int8(4), int8(4), uint8(4), int8(-2), int8(-1), int16(-8), uint8(2), uint8(0), int16(-1), uint16(120))
	f.Fuzz(func(t *testing.T, kx, ky int8, algSel uint8, vcs, depth int8,
		timeout int16, recovery, alloc uint8, msgLen int16, cycles uint16) {
		// Fold the numeric knobs into small ranges that still include
		// invalid values (negatives, zeros): rejection paths stay reachable
		// while valid configurations remain cheap enough to actually step.
		fold := func(v int8, span int) int { return int(v)%span - 1 }
		topo, err := topology.NewTorus(fold(kx, 10), fold(ky, 10))
		if err != nil {
			return
		}
		vcs = int8(fold(vcs, 10))
		depth = int8(fold(depth, 7))
		msgLen = int16(fold(int8(msgLen%64), 34))
		algs := []routing.Algorithm{
			routing.Disha(0), routing.Disha(3), routing.DOR(),
			routing.NegativeFirst(), routing.DallyAoki(), routing.Duato(),
		}
		cfg := Config{
			Topo:      topo,
			Algorithm: algs[int(algSel)%len(algs)],
			Pattern:   traffic.Uniform(topo),
			LoadRate:  0.4,
			MsgLen:    int(msgLen),
			Seed:      1,
			Router: router.Config{
				VCs:         int(vcs),
				BufferDepth: int(depth),
				Timeout:     sim.Cycle(timeout),
				Recovery:    router.RecoveryMode(int(recovery) % 4),
				Alloc:       router.AllocPolicy(int(alloc) % 3),
			},
		}
		n, err := New(cfg)
		if err != nil {
			return
		}
		steps := int(cycles) % 200
		for i := 0; i < steps; i++ {
			n.Step()
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("after %d cycles: %v", steps, err)
		}
		c := n.Counters()
		if c.PacketsDelivered > c.PacketsInjected {
			t.Fatalf("delivered %d > injected %d", c.PacketsDelivered, c.PacketsInjected)
		}
	})
}

// FuzzSoALayout drives the struct-of-arrays layout through arbitrary
// geometries — topology class, radix, VC count, buffer depth, load, seed —
// and steps the production kernel in lockstep with the full scan (every
// router visited every cycle) over a short run, with
// CheckInvariants on the production kernel every cycle. That includes the
// per-router CheckState, which verifies every slot-mask bit against the
// arrays it summarizes, so a mask the scans would misread fails on the cycle
// it goes stale. topoSel%3 picks a torus (kx × ky), a full mesh of kx%23
// nodes or a dragonfly(kx%5+1, ky%4+1); the two digraphs reach degrees up to
// 21, where the switch allocator's per-output masks are longest. topoSel/3
// picks the crossbar allocation and recovery mode (fuzzModes), so the
// packet-by-packet crossbar, concurrent recovery's two lanes and
// abort-and-retry's purges run too; every entry with topoSel < 3 keeps the
// flit-by-flit sequential mode it always ran. The committed
// corpus pins the shapes most likely to break slot arithmetic: 2-ary tori
// (every port a wraparound), odd radices, 1-VC configurations where the
// injection slot comes immediately after a single-VC port block, and full
// meshes whose routers have exactly 64 and 65 input slots (one mask word,
// and the injection slot alone in the second).
func FuzzSoALayout(f *testing.F) {
	for _, a := range soaSeeds {
		f.Add(a.kx, a.ky, a.algSel, a.vcs, a.depth, a.loadPct, a.seed, a.cycles, a.topoSel)
	}
	f.Fuzz(func(t *testing.T, kx, ky, algSel, vcs, depth, loadPct uint8, seed uint64, cycles, topoSel uint8) {
		build := func() (*Network, error) {
			return soaArgs{kx, ky, algSel, vcs, depth, loadPct, seed, cycles, topoSel}.build()
		}
		n, err := build()
		if err != nil {
			return // invalid geometry/algorithm combination; rejection is fine
		}
		full, err := build()
		if err != nil {
			t.Fatalf("second build failed where the first succeeded: %v", err)
		}
		useFullScan(t, full)
		steps := int(cycles) % 150
		for i := 0; i < steps; i++ {
			n.Step()
			full.Step()
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", i+1, err)
			}
			if n.Fingerprint() != full.Fingerprint() {
				reportDivergence(t, i+1, n, full)
			}
		}
		if err := full.CheckInvariants(); err != nil {
			t.Fatalf("full scan after %d cycles: %v", steps, err)
		}
	})
}

// soaArgs are FuzzSoALayout's arguments.
type soaArgs struct {
	kx, ky, algSel, vcs, depth, loadPct uint8
	seed                                uint64
	cycles, topoSel                     uint8
}

// soaSeeds are FuzzSoALayout's seeds.
var soaSeeds = []soaArgs{
	// 2-ary torus, 2 VCs, minimal depth.
	{2, 2, 0, 1, 1, 40, 1, 80, 0},
	// Odd × odd mesh under NegativeFirst.
	{3, 5, 3, 2, 2, 50, 7, 100, 0},
	// Odd-radix torus, deadlock-prone DISHA settings.
	{5, 5, 0, 2, 1, 60, 42, 120, 0},
	// Duato needs 3 VCs on a torus.
	{4, 4, 5, 3, 2, 50, 9, 90, 0},
	// Full mesh of 16, radix 15, 4 VCs.
	{16, 0, 1, 3, 1, 20, 5, 120, 1},
	// Dragonfly(4, 3), radix 6, 1 VC.
	{3, 2, 0, 0, 0, 60, 3, 140, 2},
	// One seed per other mode. Concurrent recovery on a 4x4 torus, 1 VC.
	{4, 4, 0, 0, 0, 70, 11, 140, 3},
	// Abort-and-retry on a 5x5 torus, 2 VCs, depth 1.
	{5, 5, 0, 1, 0, 80, 12, 140, 6},
	// Packet-by-packet, sequential recovery, on Dragonfly(3, 2), 2 VCs.
	{2, 1, 1, 1, 1, 60, 13, 140, 11},
	// Packet-by-packet with abort-and-retry on a 5x5 torus, 1 VC.
	{5, 5, 0, 0, 0, 60, 14, 140, 12},
}

// build decodes a: topoSel%3 picks a torus (kx × ky), a full mesh of kx%23
// nodes or a dragonfly(kx%5+1, ky%4+1), topoSel/3 the mode (fuzzModes), and
// the rest their domains modulo.
func (a soaArgs) build() (*Network, error) {
	algs := []routing.Algorithm{
		routing.Disha(0), routing.Disha(3), routing.DOR(),
		routing.NegativeFirst(), routing.DallyAoki(), routing.Duato(),
	}
	mode := fuzzModes[int(a.topoSel/3)%len(fuzzModes)]
	var topo topology.Graph
	var err error
	switch a.topoSel % 3 {
	case 0:
		topo, err = topology.NewTorus(int(a.kx)%9, int(a.ky)%9)
	case 1:
		topo, err = topology.NewFullMesh(int(a.kx) % 23)
	default:
		topo, err = topology.NewDragonfly(int(a.kx)%5+1, int(a.ky)%4+1)
	}
	if err != nil {
		return nil, err
	}
	return New(Config{
		Topo:      topo,
		Algorithm: algs[int(a.algSel)%len(algs)],
		Pattern:   traffic.Uniform(topo),
		LoadRate:  float64(a.loadPct%100) / 100,
		MsgLen:    4,
		Seed:      a.seed,
		Router: router.Config{
			VCs:         int(a.vcs)%5 + 1,
			BufferDepth: int(a.depth)%4 + 1,
			Timeout:     16,
			Alloc:       mode.alloc,
			Recovery:    mode.recovery,
		},
	})
}

// TestFuzzSoALayoutSeedsConstruct requires every FuzzSoALayout seed and
// committed corpus entry to build a network: the fuzz body returns at once
// on a geometry New refuses, so a refused entry would step no cycle and
// check nothing.
func TestFuzzSoALayoutSeedsConstruct(t *testing.T) {
	for i, a := range soaSeeds {
		if _, err := a.build(); err != nil {
			t.Errorf("seed %d %+v: %v", i, a, err)
		}
	}
	paths, err := filepath.Glob("testdata/fuzz/FuzzSoALayout/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed FuzzSoALayout corpus: %v", err)
	}
	for _, path := range paths {
		a, err := readSoAEntry(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.build(); err != nil {
			t.Errorf("%s %+v: %v", path, a, err)
		}
	}
}

// readSoAEntry parses a committed FuzzSoALayout corpus file: the "go test
// fuzz v1" line, then one byte(...) or uint64(...) literal per argument.
func readSoAEntry(path string) (soaArgs, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return soaArgs{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 10 || lines[0] != "go test fuzz v1" {
		return soaArgs{}, fmt.Errorf("%s: not a nine-argument corpus entry", path)
	}
	var v [9]uint64
	for i, line := range lines[1:] {
		switch {
		case strings.HasPrefix(line, "byte('") && strings.HasSuffix(line, "')"):
			r, _, tail, err := strconv.UnquoteChar(line[len("byte('"):len(line)-len("')")], '\'')
			if err != nil || tail != "" || r > 0xff {
				return soaArgs{}, fmt.Errorf("%s: argument %d: %q", path, i, line)
			}
			v[i] = uint64(r)
		case strings.HasPrefix(line, "uint64(") && strings.HasSuffix(line, ")"):
			if v[i], err = strconv.ParseUint(line[len("uint64("):len(line)-1], 10, 64); err != nil {
				return soaArgs{}, fmt.Errorf("%s: argument %d: %v", path, i, err)
			}
		default:
			return soaArgs{}, fmt.Errorf("%s: argument %d: %q", path, i, line)
		}
	}
	u8 := func(i int) uint8 { return uint8(v[i]) }
	return soaArgs{u8(0), u8(1), u8(2), u8(3), u8(4), u8(5), v[6], u8(7), u8(8)}, nil
}

// fuzzModes are the crossbar allocation and recovery modes FuzzSoALayout
// selects from topoSel/3: every combination Config.Normalize accepts, the
// default (flit-by-flit, sequential) first.
var fuzzModes = []struct {
	alloc    router.AllocPolicy
	recovery router.RecoveryMode
}{
	{router.FlitByFlit, router.RecoverySequential},
	{router.FlitByFlit, router.RecoveryConcurrent},
	{router.FlitByFlit, router.RecoveryAbortRetry},
	{router.PacketByPacket, router.RecoverySequential},
	{router.PacketByPacket, router.RecoveryAbortRetry},
}
