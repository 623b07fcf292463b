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
	s.inPkt[i00] = a
	s.inRoute[i00] = int32(q)
	s.inOutVC[i00] = 0
	s.in.push(i00, a.Flit(2))
	s.in.push(i00, a.Flit(3))
	s.flitCount[r.node] += 2
	s.outOwner[r.outIdx(q, 0)] = a

	step := func() []Transfer {
		xfers := r.StageSwitch(nil)
		b.now++
		ResolveDB(xfers, b.now)
		for _, tr := range xfers {
			Commit(tr, b)
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
	s.dbPkt[r.db0] = p
	s.dbRoute[r.db0] = int32(q)
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
	nb := r.neighbors[q]
	if nb.DBOccupancy() != 1 || nb.DBOwner() != p {
		t.Fatal("DB flit did not reach the neighbor's Deadlock Buffer")
	}
	if s.dbPkt[r.db0] != nil {
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
	s.inPkt[iA] = a
	s.inRoute[iA] = int32(q)
	s.inOutVC[iA] = 0
	s.in.push(iA, a.Flit(2))
	s.flitCount[r.node]++
	s.outOwner[r.outIdx(q, 0)] = a
	s.outCredits[r.outIdx(q, 0)] = 0

	// Packet B on another input also routes to q, on VC 1 with credits.
	bb := packet.New(2, 0, 9, 8, 0)
	iB := r.inIdx(2, 0)
	s.inPkt[iB] = bb
	s.inRoute[iB] = int32(q)
	s.inOutVC[iB] = 1
	s.in.push(iB, bb.Flit(2))
	s.in.push(iB, bb.Flit(3))
	s.flitCount[r.node] += 2
	s.outOwner[r.outIdx(q, 1)] = bb

	// First stage: A establishes the connection (or B does — either way a
	// flit must flow every cycle while somebody can send).
	for i := 0; i < 2; i++ {
		xfers := r.StageSwitch(nil)
		b.now++
		ResolveDB(xfers, b.now)
		sentB := false
		for _, tr := range xfers {
			if tr.To != nil && tr.OutPort == q && tr.FromPort == 2 {
				sentB = true
			}
		}
		for _, tr := range xfers {
			Commit(tr, b)
		}
		r.TickTimers()
		if i == 1 && !sentB {
			t.Fatal("stalled connection did not lend the link to packet B")
		}
	}
}
