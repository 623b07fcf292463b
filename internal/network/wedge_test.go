package network

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The wedge fixtures are initial loads that TestExplore's recovery-off runs
// reach a deadlock from, committed by name so that the tests which say
// "unrestricted routing deadlocks" and "the analyzer finds it" assert on a
// known deadlock instead of searching for a seed.
//
// testdata/wedges.json holds each load as the explorer writes it (its base-13
// index and the destinations queued per source), the run's seed, the stuck
// set — the IDs of the packets left in the network at the fixed point, IDs
// being allocated from 1 in placement order — and the deadlock's class in
// Stramaglia–Keiren–Zantema's terms (arXiv 2101.06015):
//
//   - global: when the deadlock forms (the first cycle core.AnalyzeWFG flags
//     a packet), every live packet is in the stuck set, so no packet of the
//     network can ever move again;
//   - local: when it forms, other packets are still live and are delivered
//     around it.
//
// testdata/wedge-<name>.bin is the placed load as a DISHANET snapshot at
// cycle 0, so that packages outside this one (internal/core's analyzer test)
// can restore it. TestDishaWithoutRecoveryWedges holds each file to its
// JSON entry byte for byte; -update-snapshot rewrites them.

// wedgeFixture is one entry of testdata/wedges.json.
type wedgeFixture struct {
	Name      string            `json:"name"`
	Topology  string            `json:"topology"`
	Misroutes int               `json:"misroutes"`
	Seed      uint64            `json:"seed"`
	Load      int               `json:"load"`
	Queued    [][]topology.Node `json:"queued"`
	Stuck     []packet.ID       `json:"stuck"`
	Class     string            `json:"class"`
}

func wedgeFixtures(t *testing.T) []wedgeFixture {
	t.Helper()
	data, err := os.ReadFile("testdata/wedges.json")
	if err != nil {
		t.Fatal(err)
	}
	var fixtures []wedgeFixture
	if err := json.Unmarshal(data, &fixtures); err != nil {
		t.Fatal(err)
	}
	return fixtures
}

// wedgeConfig is the explorer's configuration for fx: Disha with fx's
// misroute bound, one VC of depth 1, 2-flit packets, no injection after
// cycle 0, and recovery in mode at T_out 4 or, with armed false, none.
func wedgeConfig(t *testing.T, fx wedgeFixture, armed bool, mode router.RecoveryMode) Config {
	t.Helper()
	topo, err := topology.Parse(fx.Topology)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(topo, routing.Disha(fx.Misroutes), 0, fx.Seed)
	cfg.MsgLen = exploreMsgLen
	cfg.Router.VCs = 1
	cfg.Router.BufferDepth = 1
	cfg.Router.Timeout = 0
	cfg.Router.Recovery = mode
	if armed {
		cfg.Router.Timeout = exploreTout
	}
	return cfg
}

// placeWedge builds fx's network and queues its load.
func placeWedge(t *testing.T, fx wedgeFixture, armed bool, mode router.RecoveryMode) *Network {
	t.Helper()
	n := mustNet(t, wedgeConfig(t, fx, armed, mode))
	if queued := exploreQueue(n, fx.Load); !slices.EqualFunc(queued, fx.Queued, slices.Equal) {
		t.Fatalf("%s: load %d queues %v, the fixture says %v", fx.Name, fx.Load, queued, fx.Queued)
	}
	return n
}

// TestDishaWithoutRecoveryWedges: unrestricted routing with detection off
// deadlocks on every wedge fixture, leaving exactly the fixture's stuck set,
// in the fixture's class; with sequential or concurrent recovery the same
// load drains, every packet delivered. That is the paper's safety claim on
// its own witnesses.
func TestDishaWithoutRecoveryWedges(t *testing.T) {
	fixtures := wedgeFixtures(t)
	classes := map[string]int{}
	for _, fx := range fixtures {
		classes[fx.Class]++
		n := placeWedge(t, fx, false, router.RecoverySequential)
		checkWedgeBin(t, fx, n)
		total := n.QueuedPackets()
		var live int64 = -1 // packets live when the analyzer first flags one
		still := 0
		for !n.Drained() && still < exploreStill && n.Now() < exploreLimit {
			before := exploreMotion(n)
			n.Step()
			if live < 0 && len(core.AnalyzeWFG(n.Routers()).Deadlocked) > 0 {
				live = n.InFlight() + n.QueuedPackets()
			}
			if exploreMotion(n) == before {
				still++
			} else {
				still = 0
			}
		}
		if n.Drained() || still < exploreStill {
			t.Fatalf("%s: without recovery the load did not wedge (drained %v at cycle %d)", fx.Name, n.Drained(), n.Now())
		}
		// A wedge is a fixed point: it stays still for as long as it runs,
		// past any T_out a recovery could have fired at.
		for wedged := exploreMotion(n); n.Now() < exploreLimit; {
			if n.Step(); exploreMotion(n) != wedged {
				t.Fatalf("%s: the wedge moved again at cycle %d", fx.Name, n.Now())
			}
		}
		var stuck []packet.ID
		for _, p := range n.collectPackets() {
			stuck = append(stuck, p.ID)
		}
		slices.Sort(stuck)
		if !slices.Equal(stuck, fx.Stuck) {
			t.Errorf("%s: wedged with packets %v, the fixture says %v", fx.Name, stuck, fx.Stuck)
		}
		class := "local"
		if live == int64(len(stuck)) {
			class = "global"
		}
		if class != fx.Class {
			t.Errorf("%s: %d packets live when the deadlock formed, %d stuck: a %s deadlock, the fixture says %s",
				fx.Name, live, len(stuck), class, fx.Class)
		}
		for _, mode := range []router.RecoveryMode{router.RecoverySequential, router.RecoveryConcurrent} {
			n := placeWedge(t, fx, true, mode)
			for !n.Drained() && n.Now() < exploreLimit {
				n.Step()
			}
			if c := n.Counters(); !n.Drained() || c.PacketsDelivered != total || c.Recoveries == 0 {
				t.Errorf("%s: %v recovery delivered %d of %d packets in %d cycles, %d recovered",
					fx.Name, mode, c.PacketsDelivered, total, n.Now(), c.Recoveries)
			}
		}
	}
	if classes["global"] == 0 || classes["local"] == 0 {
		t.Errorf("fixture classes %v: want at least one global and one local deadlock", classes)
	}
}

// checkWedgeBin holds testdata/wedge-<name>.bin to the freshly placed load n.
func checkWedgeBin(t *testing.T, fx wedgeFixture, n *Network) {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	path := "testdata/wedge-" + fx.Name + ".bin"
	if *updateSnapshot {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, buf.Bytes()) {
		t.Errorf("%s is not the placed load of fixture %s (rewrite it with -update-snapshot): %v", path, fx.Name, err)
	}
}
