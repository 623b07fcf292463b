package router

import (
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topology"
)

// installTwoLanes installs concurrent recovery's two Deadlock Buffer lanes
// on every bench router of a torus (each has a State of its own), in the
// shape core.LaneRows gives them but built here, since core imports this
// package: routers are labelled by node ID, lane 0 climbs by +1 steps
// (lowest dimension first) while dst has a higher coordinate, then both
// lanes descend by -1 steps; no hop crosses a wraparound. It returns the
// labels.
func installTwoLanes(b *testBench) []int32 {
	topo, nodes := b.topo, b.topo.Nodes()
	label := make([]int32, nodes)
	for v := range label {
		label[v] = int32(v)
	}
	build := func(dst topology.Node, row []int16) {
		for i := range row {
			lane, cur := i/nodes, topology.Node(i%nodes)
			up, down := -1, -1
			for dim := range len(topo.Coord(cur)) {
				c, want := topo.CoordAt(cur, dim), topo.CoordAt(dst, dim)
				if want > c && up < 0 {
					up = topology.PortFor(dim, +1)
				}
				if want < c && down < 0 {
					down = topology.PortFor(dim, -1)
				}
			}
			switch {
			case up >= 0 && lane == 0:
				row[i] = int16(up)
			case up < 0 && down >= 0:
				row[i] = int16(down)
			default:
				row[i] = -1
			}
		}
	}
	for _, r := range b.routers {
		r.st.SetLaneRows(label, build)
	}
	return label
}

// TestConcurrentRecoveryLaneSelection pins how a router moves a packet
// between the two lanes: a recovery starts on lane 0's row and enters the
// lane its first hop's direction picks, every later hop likewise, and a
// lane's route is the memoised row's entry for (lane, router).
func TestConcurrentRecoveryLaneSelection(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := Default()
	cfg.Recovery = RecoveryConcurrent
	b := newBench(t, topo, cfg, routing.Disha(0))
	label := installTwoLanes(b)
	mid := b.routers[topo.NodeAt(topology.Coord{2, 1})]

	if mid.DBLanes() != 2 {
		t.Fatalf("concurrent router has %d DB lanes, want 2", mid.DBLanes())
	}
	for _, c := range []struct {
		dst        topology.Coord
		port, lane int
	}{
		// (2,3) lies above: climb +y and stay in lane 0.
		{topology.Coord{2, 3}, topology.PortFor(1, +1), 0},
		// (0,0) lies below on both axes: descend -x into lane 1.
		{topology.Coord{0, 0}, topology.PortFor(0, -1), 1},
		// (1,3) needs +y before -x: climb first, in lane 0.
		{topology.Coord{1, 3}, topology.PortFor(1, +1), 0},
	} {
		dst := topo.NodeAt(c.dst)
		i := mid.inIdx(0, 0)
		mid.aimAtDB(i, dst)
		if got, lane := int(mid.st.inRoute[i]), int(mid.st.inDBLane[i]); got != c.port || lane != c.lane {
			t.Fatalf("recovery toward %v aims at port %d, lane %d; want port %d, lane %d", c.dst, got, lane, c.port, c.lane)
		}
		for lane := 0; lane < 2; lane++ {
			if got, want := mid.dbLaneRoute(lane, dst), int(mid.st.LaneRows()[dst][lane*topo.Nodes()+int(mid.node)]); got != want {
				t.Fatalf("lane %d route toward %v is %d, row entry %d", lane, c.dst, got, want)
			}
		}
	}
	// Every hop takes its lane from its direction, whichever lane it leaves.
	for q := 0; q < topo.Degree(); q++ {
		want := 0
		if label[mid.Neighbor(q).node] < label[mid.node] {
			want = 1
		}
		if got := mid.hopLane(q); got != want {
			t.Fatalf("hop out of port %d enters lane %d, want %d", q, got, want)
		}
	}
	for lane := 0; lane < 2; lane++ {
		if got := mid.dbLaneRoute(lane, mid.Node()); got != PortEject {
			t.Fatal("at destination the lane must eject")
		}
	}
}

func TestRecoverPresumedAndHamDelivery(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := Default()
	cfg.Recovery = RecoveryConcurrent
	b := newBench(t, topo, cfg, routing.DOR())
	installTwoLanes(b)
	src := topo.NodeAt(topology.Coord{2, 0})
	dst := topo.NodeAt(topology.Coord{1, 2})

	// Park a blocked header at src's network input port 0 by occupying all
	// of its DOR output VCs, then force the timers past T_out.
	r := b.routers[src]
	blocker := packet.New(99, 0, 1, 4, 0)
	port, ok := routing.DORPort(topo, src, dst)
	if !ok {
		t.Fatal("no DOR port")
	}
	for v := 0; v < cfg.VCs; v++ {
		holdDownstream(r, port, v, blocker)
	}
	p := packet.New(1, src, dst, 2, 0)
	i00 := r.inIdx(0, 0)
	r.st.in.own(i00, p)
	r.pushIn(i00, p.Flit(0))
	r.pushIn(i00, p.Flit(1))
	r.st.flitCount[r.node] += 2
	for i := 0; i < int(cfg.Timeout)+2; i++ {
		b.step()
	}
	if got := r.RecoverPresumed(b.clock.Now(), nil); len(got) != 1 {
		t.Fatalf("RecoverPresumed = %d packets, want 1", len(got))
	}
	if !p.OnDB || p.SeizedToken {
		t.Fatalf("concurrent recovery state wrong: onDB=%v seized=%v", p.OnDB, p.SeizedToken)
	}
	down := false
	for i := 0; i < 60 && !p.Delivered(); i++ {
		b.step()
		down = down || b.routers[dst].DBLaneOwner(1) == p
	}
	if !p.Delivered() {
		t.Fatal("packet did not traverse the DB lanes to its destination")
	}
	// (2,0) climbs +y twice in lane 0, to (2,2), then descends -x into
	// lane 1 at (1,2): three hops, one crossing.
	if p.Hops != 3 || !down {
		t.Fatalf("lane hops = %d, arrived in lane 1 = %v; want 3 hops ending in lane 1", p.Hops, down)
	}
}

func TestPurgePacket(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := Default()
	cfg.Timeout = 0
	b := newBench(t, topo, cfg, routing.DOR())
	r1 := b.routers[topo.NodeAt(topology.Coord{1, 0})]
	r0 := b.routers[topo.NodeAt(topology.Coord{0, 0})]
	q := topology.PortFor(0, 1)

	// Packet spans two routers: body at r0 (input port 0 vc 0, granted
	// toward q), header at r1 on the matching input VC.
	p := packet.New(1, 0, 9, 6, 0)
	i0 := r0.inIdx(0, 0)
	r0.st.in.own(i0, p)
	r0.setRoute(i0, q)
	r0.st.inOutVC[i0] = 0
	r0.pushIn(i0, p.Flit(1))
	r0.pushIn(i0, p.Flit(2))
	r0.st.flitCount[r0.node] += 2
	rev := topology.ReversePort(q)
	i1 := r1.inIdx(rev, 0)
	r1.st.in.own(i1, p)
	r1.pushIn(i1, p.Flit(0))
	r1.st.flitCount[r1.node]++
	if r0.OutputOwner(q, 0) != p || r0.Credits(q, 0) != cfg.BufferDepth-1 {
		t.Fatalf("before the purge: output owner %v, credits %d; want packet 1 and %d", r0.OutputOwner(q, 0), r0.Credits(q, 0), cfg.BufferDepth-1)
	}

	purged := r0.PurgePacket(p) + r1.PurgePacket(p)
	if purged != 3 {
		t.Fatalf("purged %d flits, want 3", purged)
	}
	if !r0.Quiescent() || !r1.Quiescent() {
		t.Fatal("routers not quiescent after purge")
	}
	if r0.OutputOwner(q, 0) != nil {
		t.Fatal("output VC still owned")
	}
	if r0.Credits(q, 0) != cfg.BufferDepth {
		t.Fatalf("credits %d not restored to %d", r0.Credits(q, 0), cfg.BufferDepth)
	}
	if r0.InputOwner(0, 0) != nil || r1.InputOwner(rev, 0) != nil {
		t.Fatal("input VCs still owned")
	}
	if got := r0.PresumedPackets(nil); len(got) != 0 {
		t.Fatal("purged router still presumes packets")
	}
}

// TestPurgePacketEmptiesDeadlockBuffer drops a packet caught mid-recovery:
// its flit in a Deadlock Buffer lane goes with it, and the lane is free.
func TestPurgePacketEmptiesDeadlockBuffer(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	b := newBench(t, topo, Default(), routing.DOR())
	r := b.routers[0]
	p, other := packet.New(1, 0, 9, 6, 0), packet.New(2, 3, 9, 6, 0)
	i := r.dbIdx(0)
	r.st.db.own(i, p)
	r.st.dbRoute[i] = 0
	r.st.db.push(i, p.Flit(2))
	r.st.flitCount[r.node]++

	if n := r.PurgePacket(other); n != 0 || r.DBLaneOwner(0) != p {
		t.Fatalf("purging another packet removed %d flits, lane owner %v", n, r.DBLaneOwner(0))
	}
	if n := r.PurgePacket(p); n != 1 {
		t.Fatalf("purged %d flits, want the lane's 1", n)
	}
	if r.DBLaneOwner(0) != nil || r.DBLaneLen(0) != 0 || !r.Quiescent() {
		t.Fatalf("lane still held: owner %v, %d flits", r.DBLaneOwner(0), r.DBLaneLen(0))
	}
	if err := r.CheckState(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryModeString(t *testing.T) {
	for m, want := range map[RecoveryMode]string{
		RecoverySequential: "sequential",
		RecoveryConcurrent: "concurrent",
		RecoveryAbortRetry: "abort-retry",
		RecoveryMode(9):    "RecoveryMode(9)",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
		// ParseRecoveryMode reads the table String prints: it inverts every
		// real mode and refuses the rest, naming what it accepts.
		got, err := ParseRecoveryMode(want)
		if real := m <= RecoveryAbortRetry; real != (err == nil) || (real && got != m) {
			t.Errorf("ParseRecoveryMode(%q) = %v, %v", want, got, err)
		} else if !real && !strings.Contains(err.Error(), "abort-retry") {
			t.Errorf("error %q does not list the accepted names", err)
		}
	}
	if len(RecoveryModeNames()) != 3 {
		t.Errorf("RecoveryModeNames() = %v", RecoveryModeNames())
	}
}

// TestPaperConfig pins the one recovery on/off decision: off means no
// detection (Timeout 0), hence no Deadlock Buffer, and the (unused)
// sequential mode whatever was asked; on keeps the paper's T_out unless one
// is given. Timeout alone decides the Deadlock Buffer lanes: none when it
// is 0, one per router, or two under concurrent recovery.
func TestPaperConfig(t *testing.T) {
	off := PaperConfig(false, 16, RecoveryAbortRetry)
	if off.Timeout != 0 || off.Recovery != RecoverySequential {
		t.Errorf("recovery off: %+v", off)
	}
	if on := PaperConfig(true, 0, RecoveryConcurrent); on.Timeout != Default().Timeout || on.Recovery != RecoveryConcurrent {
		t.Errorf("recovery on, default T_out: %+v", on)
	}
	if on := PaperConfig(true, 16, RecoverySequential); on.Timeout != 16 {
		t.Errorf("recovery on, T_out 16: %+v", on)
	}
	topo := topology.MustTorus(4, 4)
	for _, tc := range []struct {
		cfg   Config
		lanes int
	}{
		{off, 0},
		{PaperConfig(true, 0, RecoverySequential), 1},
		{PaperConfig(true, 0, RecoveryConcurrent), 2},
		{PaperConfig(true, 0, RecoveryAbortRetry), 1},
	} {
		if err := tc.cfg.Normalize(); err != nil {
			t.Errorf("Normalize(%+v): %v", tc.cfg, err)
			continue
		}
		b := newBench(t, topo, tc.cfg, routing.DOR())
		if got := b.routers[0].DBLanes(); got != tc.lanes {
			t.Errorf("%+v: %d Deadlock Buffer lanes, want %d", tc.cfg, got, tc.lanes)
		}
	}
}
