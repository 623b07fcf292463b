package router

import (
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topology"
)

// setRecoveryOrder installs the concurrent lanes the network would, on
// every bench router (each has a State of its own).
func setRecoveryOrder(b *testBench) {
	for _, r := range b.routers {
		r.st.SetRecoveryOrder(b.topo.RecoveryLane())
	}
}

func TestConcurrentRecoveryLaneSelection(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := Default()
	cfg.Recovery = RecoveryConcurrent
	b := newBench(t, topo, cfg, routing.Disha(0))
	setRecoveryOrder(b)
	order := topo.RecoveryLane()
	mid := b.routers[order[7]] // somewhere in the middle of the order

	if mid.DBLanes() != 2 {
		t.Fatalf("concurrent router has %d DB lanes, want 2", mid.DBLanes())
	}
	// Destination further up the path -> up lane; further down -> down lane.
	up := packet.New(1, order[7], order[12], 2, 0)
	down := packet.New(2, order[7], order[2], 2, 0)
	if lane := mid.recoveryLane(up.Dst); lane != laneUp {
		t.Fatalf("up destination got lane %d", lane)
	}
	if lane := mid.recoveryLane(down.Dst); lane != laneDown {
		t.Fatalf("down destination got lane %d", lane)
	}
	// The lane route is the table's entry, and it lands strictly between
	// here and the destination in lane order.
	table, pos := mid.st.LaneTable(), mid.st.orderPos
	for _, p := range []*packet.Packet{up, down} {
		got := mid.dbLaneRoute(p.Dst)
		if want := int(table[int(p.Dst)*topo.Nodes()+int(mid.node)]); got != want {
			t.Fatalf("lane route to %d is %d, table entry %d", p.Dst, got, want)
		}
		nb, _ := topo.Neighbor(mid.node, got)
		lo, hi := min(pos[mid.node], pos[p.Dst]), max(pos[mid.node], pos[p.Dst])
		if nb == mid.node || pos[nb] < lo || pos[nb] > hi {
			t.Fatalf("lane hop %d -> %d (position %d) leaves (%d, %d]", mid.node, nb, pos[nb], pos[mid.node], pos[p.Dst])
		}
	}
	if got := mid.dbLaneRoute(mid.NodeID()); got != PortEject {
		t.Fatal("at destination the lane must eject")
	}
}

func TestRecoverPresumedAndHamDelivery(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := Default()
	cfg.Recovery = RecoveryConcurrent
	b := newBench(t, topo, cfg, routing.DOR())
	setRecoveryOrder(b)
	order := topo.RecoveryLane()
	src := order[3]
	dst := order[8]

	// Park a blocked header at src's network input port 0 by occupying all
	// of its DOR output VCs, then force the timers past T_out.
	r := b.routers[src]
	blocker := packet.New(99, 0, 1, 4, 0)
	port, ok := routing.DORPort(topo, src, dst)
	if !ok {
		t.Fatal("no DOR port")
	}
	for v := 0; v < cfg.VCs; v++ {
		r.st.outOwner[r.outIdx(port, v)] = blocker
	}
	p := packet.New(1, src, dst, 2, 0)
	i00 := r.inIdx(0, 0)
	r.st.inPkt[i00] = p
	r.st.in.push(i00, p.Flit(0))
	r.st.in.push(i00, p.Flit(1))
	r.st.flitCount[r.node] += 2
	for i := 0; i < int(cfg.Timeout)+2; i++ {
		b.step()
	}
	if got := r.RecoverPresumed(b.now, nil); len(got) != 1 {
		t.Fatalf("RecoverPresumed = %d packets, want 1", len(got))
	}
	if !p.OnDB || p.SeizedToken {
		t.Fatalf("concurrent recovery state wrong: onDB=%v seized=%v", p.OnDB, p.SeizedToken)
	}
	for i := 0; i < 60 && !p.Delivered(); i++ {
		b.step()
	}
	if !p.Delivered() {
		t.Fatal("packet did not traverse the up DB lane to its destination")
	}
	// Hops grow by the table's path length, not the lane-order distance
	// (8-3 = 5): order[3] steps to order[4], which shortcuts over the torus
	// wraparound to order[7], which steps to order[8].
	if p.Hops != 3 {
		t.Fatalf("lane hops = %d, want 3", p.Hops)
	}
}

func TestPurgePacket(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := Default()
	cfg.Timeout = 0
	cfg.DeadlockBufferDepth = 0
	b := newBench(t, topo, cfg, routing.DOR())
	r1 := b.routers[topo.NodeAt(topology.Coord{1, 0})]
	r0 := b.routers[topo.NodeAt(topology.Coord{0, 0})]
	q := topology.PortFor(0, 1)

	// Packet spans two routers: body at r0 (input port 0 vc 0, granted
	// toward q), header at r1 on the matching input VC.
	p := packet.New(1, 0, 9, 6, 0)
	i0 := r0.inIdx(0, 0)
	r0.st.inPkt[i0] = p
	r0.st.inRoute[i0] = int32(q)
	r0.st.inOutVC[i0] = 0
	r0.st.in.push(i0, p.Flit(1))
	r0.st.in.push(i0, p.Flit(2))
	r0.st.flitCount[r0.node] += 2
	r0.st.outOwner[r0.outIdx(q, 0)] = p
	rev := topology.ReversePort(q)
	i1 := r1.inIdx(rev, 0)
	r1.st.inPkt[i1] = p
	r1.st.inRoute[i1] = PortUnrouted
	r1.st.in.push(i1, p.Flit(0))
	r1.st.flitCount[r1.node]++
	r0.st.outCredits[r0.outIdx(q, 0)] = int32(cfg.BufferDepth - 1)

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
// detection, no Deadlock Buffer and the (unused) sequential mode whatever was
// asked; on keeps the paper's T_out unless one is given.
func TestPaperConfig(t *testing.T) {
	off := PaperConfig(false, 16, RecoveryAbortRetry)
	if off.Timeout != 0 || off.DeadlockBufferDepth != 0 || off.Recovery != RecoverySequential {
		t.Errorf("recovery off: %+v", off)
	}
	if on := PaperConfig(true, 0, RecoveryConcurrent); on.Timeout != Default().Timeout || on.DeadlockBufferDepth != 1 || on.Recovery != RecoveryConcurrent {
		t.Errorf("recovery on, default T_out: %+v", on)
	}
	if on := PaperConfig(true, 16, RecoverySequential); on.Timeout != 16 {
		t.Errorf("recovery on, T_out 16: %+v", on)
	}
	for _, c := range []Config{off, PaperConfig(true, 0, RecoverySequential)} {
		if err := c.Normalize(); err != nil {
			t.Errorf("Normalize(%+v): %v", c, err)
		}
	}
}
