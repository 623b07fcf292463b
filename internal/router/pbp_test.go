package router

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestPBPPreemptionAndReconfiguration exercises the paper's Section 3.3
// packet-by-packet scenario directly: a Deadlock Buffer packet needs an
// output held by an edge packet, preempts it into the reconfiguration
// buffer, and the edge connection is restored once the DB packet clears.
func TestPBPPreemptionAndReconfiguration(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := Default()
	cfg.Alloc = PacketByPacket
	b := newBench(t, topo, cfg, routing.Disha(0))
	r := b.routers[topo.NodeAt(topology.Coord{1, 0})]
	q := topology.PortFor(0, 1) // +X toward (2,0)

	// Edge packet A mid-flight: owns input VC (0,0), routed to q on VC 0.
	a := packet.New(1, topo.NodeAt(topology.Coord{0, 0}), topo.NodeAt(topology.Coord{3, 0}), 8, 0)
	s := r.st
	i00 := r.inIdx(0, 0)
	s.in.own(i00, a)
	r.setRoute(i00, q)
	s.inOutVC[i00] = 0
	r.pushIn(i00, a.Flit(2))
	r.pushIn(i00, a.Flit(3))
	s.flitCount[r.node] += 2
	// A's header went ahead: A owns the VC its flits enter downstream.
	nb := r.Neighbor(q)
	holdDownstream(r, q, 0, a)

	step := func() []Transfer {
		xfers := r.StageSwitch(nil)
		b.clock.Tick()
		ResolveDB(xfers, b.clock.Now())
		for i := range xfers {
			Commit(&xfers[i], b)
		}
		r.TickTimers()
		return xfers
	}

	// Cycle 1: the edge packet establishes and uses the connection.
	xfers := step()
	in, _, db, _, _, saved := r.Connection(q)
	if in != 0 || db || saved {
		t.Fatalf("connection not established for edge packet: in=%d db=%v saved=%v", in, db, saved)
	}
	if len(xfers) != 1 {
		t.Fatalf("expected 1 transfer, got %d", len(xfers))
	}

	// A recovered packet enters the Deadlock Buffer wanting the same output.
	p := packet.New(2, topo.NodeAt(topology.Coord{0, 0}), topo.NodeAt(topology.Coord{2, 0}), 1, 0)
	p.OnDB = true
	s.db.own(r.db0, p)
	s.dbRoute[r.db0] = int8(q)
	s.db.push(r.db0, p.Flit(0))
	s.flitCount[r.node]++

	// Cycle 2: preemption — the DB connects, the edge connection is saved.
	step()
	in, _, db, sp, sv, saved := r.Connection(q)
	if !db {
		t.Fatal("DB did not take the output connection")
	}
	if !saved || sp != 0 || sv != 0 {
		t.Fatalf("reconfiguration buffer wrong: saved=%v (%d,%d)", saved, sp, sv)
	}
	if in != connNone {
		t.Fatal("edge connection must be disconnected during preemption")
	}
	if r.Stats().Preemptions != 1 {
		t.Fatalf("preemptions = %d", r.Stats().Preemptions)
	}
	// The DB packet (single flit) left for the neighbor's DB.
	if nb.DBOccupancy() != 1 || nb.DBOwner() != p {
		t.Fatal("DB flit did not reach the neighbor's Deadlock Buffer")
	}
	if s.db.owner[r.db0] != 0 {
		t.Fatal("local DB must release after the tail leaves")
	}

	// Cycle 3: the DB is done with q — the suspended edge connection is
	// reconnected from the reconfiguration buffer and resumes sending.
	step()
	in, vcIdx, db, _, _, saved := r.Connection(q)
	if db || saved {
		t.Fatal("DB connection not torn down")
	}
	if in != 0 || vcIdx != 0 {
		t.Fatalf("edge connection not restored: in=(%d,%d)", in, vcIdx)
	}
}

// TestPBPLendsStalledConnection verifies the Assumption-1 lending rule: a
// connected packet with no credits must not idle the link while another
// packet routed to the same output can send.
func TestPBPLendsStalledConnection(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := Default()
	cfg.Alloc = PacketByPacket
	b := newBench(t, topo, cfg, routing.Disha(0))
	r := b.routers[topo.NodeAt(topology.Coord{1, 0})]
	q := topology.PortFor(0, 1)

	// Connected packet A is stalled: zero credits on its output VC.
	a := packet.New(1, 0, 9, 8, 0)
	s := r.st
	iA := r.inIdx(0, 0)
	s.in.own(iA, a)
	r.setRoute(iA, q)
	s.inOutVC[iA] = 0
	r.pushIn(iA, a.Flit(2))
	s.flitCount[r.node]++

	// Packet B on another input also routes to q, on VC 1 with credits.
	bb := packet.New(2, 0, 9, 8, 0)
	iB := r.inIdx(2, 0)
	s.in.own(iB, bb)
	r.setRoute(iB, q)
	s.inOutVC[iB] = 1
	r.pushIn(iB, bb.Flit(2))
	r.pushIn(iB, bb.Flit(3))
	s.flitCount[r.node] += 2
	// Both headers went ahead and own the VCs their flits enter downstream;
	// A's flits fill its downstream buffer, so A has no credit.
	nb := r.Neighbor(q)
	holdDownstream(r, q, 0, a)
	holdDownstream(r, q, 1, bb)
	for seq := 0; seq < cfg.BufferDepth; seq++ {
		nb.pushIn(r.downIdx(q, 0), a.Flit(seq))
		nb.st.flitCount[nb.node]++
	}
	if r.Credits(q, 0) != 0 {
		t.Fatalf("A's output VC has %d credits, want 0", r.Credits(q, 0))
	}

	// First stage: A establishes the connection (or B does — either way a
	// flit must flow every cycle while somebody can send).
	for i := 0; i < 2; i++ {
		xfers := r.StageSwitch(nil)
		b.clock.Tick()
		ResolveDB(xfers, b.clock.Now())
		sentB := false
		for _, tr := range xfers {
			if tr.To != nil && tr.OutPort == q && tr.FromPort == 2 {
				sentB = true
			}
		}
		for i := range xfers {
			Commit(&xfers[i], b)
		}
		r.TickTimers()
		if i == 1 && !sentB {
			t.Fatal("stalled connection did not lend the link to packet B")
		}
	}
}
