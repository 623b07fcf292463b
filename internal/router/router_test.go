package router

import (
	"fmt"

	"testing"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// testBench wires the routers of a topology and steps their pipeline the
// same way internal/network does, with a recording sink.
type testBench struct {
	topo      topology.Topology
	routers   []*Router
	clock     sim.Clock
	delivered []packet.Flit
	deliverAt []topology.Node
}

func newBench(t *testing.T, topo topology.Topology, cfg Config, alg routing.Algorithm) *testBench {
	t.Helper()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	b := &testBench{topo: topo}
	st := NewState(topo, cfg, alg, routing.Random(), &b.clock)
	for i := 0; i < topo.Nodes(); i++ {
		b.routers = append(b.routers, NewWithState(topology.Node(i), rng, st))
	}
	for i, r := range b.routers {
		for p := 0; p < topo.Degree(); p++ {
			if nb, ok := topo.Neighbor(topology.Node(i), p); ok {
				r.Connect(p, b.routers[nb])
			}
		}
	}
	return b
}

// holdDownstream makes p hold output VC (port, vc) of r as a packet whose
// header has crossed does: p owns the input VC the output feeds, and its
// next flits are still upstream. nil releases the VC.
func holdDownstream(r *Router, port, vc int, p *packet.Packet) {
	d := r.downIdx(port, vc)
	if p == nil {
		r.st.in.owner[d] = 0
		return
	}
	r.st.in.own(d, p)
}

func (b *testBench) Deliver(fl packet.Flit, at topology.Node) {
	b.delivered = append(b.delivered, fl)
	b.deliverAt = append(b.deliverAt, at)
	fl.Pkt.FlitsDelivered++
	if fl.IsHeader() {
		fl.Pkt.HeaderArrived = true
	}
	if fl.IsTail() {
		fl.Pkt.DeliveredAt = b.clock.Now()
	}
}

func (b *testBench) step() {
	b.clock.Tick()
	for _, r := range b.routers {
		r.StageRouting()
	}
	var xfers []Transfer
	for _, r := range b.routers {
		xfers = r.StageSwitch(xfers)
	}
	ResolveDB(xfers, b.clock.Now())
	for i := range xfers {
		Commit(&xfers[i], b)
	}
	for _, r := range b.routers {
		r.TickTimers()
	}
}

// inject pushes the whole packet into the source router's injection port
// over successive cycles, stepping the bench.
func (b *testBench) injectAndRun(t *testing.T, p *packet.Packet, cycles int) {
	t.Helper()
	seq := 0
	for i := 0; i < cycles; i++ {
		if seq < p.Length {
			if b.routers[p.Src].InjectFlit(p.Flit(seq), b.clock.Now()) {
				seq++
			}
		}
		b.step()
	}
	if seq != p.Length {
		t.Fatalf("only %d/%d flits injected after %d cycles", seq, p.Length, cycles)
	}
}

func cfg4() Config {
	c := Default()
	c.Timeout = 0
	return c
}

func TestSinglePacketCrossesTorus(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	b := newBench(t, topo, cfg4(), routing.DOR())
	src := topo.NodeAt(topology.Coord{0, 0})
	dst := topo.NodeAt(topology.Coord{2, 3})
	p := packet.New(1, src, dst, 5, 0)
	b.injectAndRun(t, p, 40)
	if !p.Delivered() {
		t.Fatalf("packet not delivered: %d/%d flits", p.FlitsDelivered, p.Length)
	}
	if p.Hops != topo.Distance(src, dst) {
		t.Fatalf("hops %d, want %d", p.Hops, topo.Distance(src, dst))
	}
	for i, at := range b.deliverAt {
		if at != dst {
			t.Fatalf("flit %d delivered at %d", i, at)
		}
	}
	// Flits arrive in order.
	for i, fl := range b.delivered {
		if fl.Seq != i {
			t.Fatalf("delivery order broken at %d: seq %d", i, fl.Seq)
		}
	}
}

func TestCreditsRoundTrip(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := cfg4()
	b := newBench(t, topo, cfg, routing.DOR())
	src := topo.NodeAt(topology.Coord{0, 0})
	dst := topo.NodeAt(topology.Coord{3, 0}) // one hop -X with wrap
	p := packet.New(1, src, dst, 4, 0)
	b.injectAndRun(t, p, 30)
	if !p.Delivered() {
		t.Fatal("not delivered")
	}
	// After everything drains, every output VC must have full credits and
	// no owner.
	for _, r := range b.routers {
		for q := 0; q < topo.Degree(); q++ {
			for v := 0; v < cfg.VCs; v++ {
				if r.Credits(q, v) != cfg.BufferDepth {
					t.Fatalf("router %d out[%d][%d] credits %d, want %d",
						r.Node(), q, v, r.Credits(q, v), cfg.BufferDepth)
				}
				if r.OutputOwner(q, v) != nil {
					t.Fatalf("output VC still owned after drain")
				}
			}
		}
		if !r.Quiescent() {
			t.Fatalf("router %d not quiescent", r.Node())
		}
	}
}

func TestInjectFlitSemantics(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := cfg4()
	b := newBench(t, topo, cfg, routing.DOR())
	r := b.routers[0]
	p1 := packet.New(1, 0, 5, 4, 0)
	p2 := packet.New(2, 0, 6, 4, 0)
	if !r.InjectFlit(p1.Flit(0), 1) {
		t.Fatal("header rejected on idle injection VC")
	}
	if p1.InjectedAt != 1 {
		t.Fatal("InjectedAt not stamped")
	}
	// A second packet's header must not share the single injection VC.
	if r.InjectFlit(p2.Flit(0), 1) {
		t.Fatal("second header accepted while VC busy")
	}
	// p1's body goes into the same VC until the buffer fills (depth 2).
	if !r.InjectFlit(p1.Flit(1), 1) {
		t.Fatal("body flit rejected with space available")
	}
	if r.InjectFlit(p1.Flit(2), 1) {
		t.Fatal("flit accepted into a full buffer")
	}
	// A body flit of a packet that does not own any VC is rejected.
	if r.InjectFlit(p2.Flit(1), 1) {
		t.Fatal("stray body flit accepted")
	}
}

func TestEjectionAtDestination(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	b := newBench(t, topo, cfg4(), routing.DOR())
	dst := topology.Node(0)
	p := packet.New(1, dst, dst, 1, 0)
	// Self-addressed single-flit packet: header routes straight to eject.
	p.Dst = dst
	r := b.routers[0]
	other := packet.New(2, 0, 1, 1, 0)
	_ = other
	if !r.InjectFlit(p.Flit(0), 0) {
		t.Fatal("inject failed")
	}
	b.step()
	b.step()
	if !p.Delivered() {
		t.Fatal("self-addressed packet not ejected")
	}
}

func TestTimersAndMostStarved(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := Default() // timeout 8, DB on
	b := newBench(t, topo, cfg, routing.DOR())
	r0 := b.routers[0]
	// Occupy the DOR output VCs of router (1,0) toward +X for dst (3,0) by
	// faking ownership, so a header arriving there blocks.
	r1 := b.routers[topo.NodeAt(topology.Coord{1, 0})]
	blocker := packet.New(99, 0, 1, 4, 0)
	for v := 0; v < cfg.VCs; v++ {
		holdDownstream(r1, topology.PortFor(0, 1), v, blocker)
	}
	p := packet.New(1, topo.NodeAt(topology.Coord{0, 0}), topo.NodeAt(topology.Coord{2, 0}), 3, 0)
	if !r0.InjectFlit(p.Flit(0), 0) {
		t.Fatal("inject failed")
	}
	for i := 0; i < 6+int(cfg.Timeout); i++ {
		if seq := i + 1; seq < p.Length {
			r0.InjectFlit(p.Flit(seq), b.clock.Now())
		}
		b.step()
	}
	// Header should be parked at router (1,0) and presumed deadlocked.
	port, vc, ok := r1.MostStarved()
	if !ok {
		t.Fatal("no starved header found")
	}
	if owner := r1.InputOwner(port, vc); owner != p {
		t.Fatalf("starved owner = %v, want %v", owner, p)
	}
	if !p.TimedOut {
		t.Fatal("packet not marked timed out")
	}
	if r1.Stats().TimeoutEvents != 1 {
		t.Fatalf("timeout events = %d", r1.Stats().TimeoutEvents)
	}

	// Recovery: the packet switches to the DB lane toward +X.
	got := r1.Recover(port, vc, b.clock.Now())
	if got != p || !p.OnDB || !p.SeizedToken || p.RecoveredAt != b.clock.Now() {
		t.Fatalf("recover state wrong: %+v", p)
	}
	route, outVC := r1.InputRoute(port, vc)
	if route != topology.PortFor(0, 1) || outVC != VCDeadlockBuffer {
		t.Fatalf("recovered route = (%d, %d)", route, outVC)
	}
	// Unblock is unnecessary: the DB lane bypasses the edge VCs entirely.
	for i := 0; i < 30 && !p.Delivered(); i++ {
		b.step()
	}
	if !p.Delivered() {
		t.Fatal("recovered packet did not reach its destination via DB lane")
	}
	if r1.Stats().Recoveries != 1 {
		t.Fatal("recovery not counted")
	}
}

func TestFalseDeadlockPresumptionClears(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := Default()
	b := newBench(t, topo, cfg, routing.DOR())
	r1 := b.routers[topo.NodeAt(topology.Coord{1, 0})]
	blocker := packet.New(99, 0, 1, 4, 0)
	for v := 0; v < cfg.VCs; v++ {
		holdDownstream(r1, topology.PortFor(0, 1), v, blocker)
	}
	p := packet.New(1, topo.NodeAt(topology.Coord{0, 0}), topo.NodeAt(topology.Coord{2, 0}), 3, 0)
	b.routers[0].InjectFlit(p.Flit(0), 0)
	for i := 0; i < 6+int(cfg.Timeout); i++ {
		if seq := i + 1; seq < p.Length {
			b.routers[0].InjectFlit(p.Flit(seq), b.clock.Now())
		}
		b.step()
	}
	if _, _, ok := r1.MostStarved(); !ok {
		t.Fatal("expected a presumed-deadlocked header")
	}
	// The congestion clears before the Token arrives: a false deadlock.
	for v := 0; v < cfg.VCs; v++ {
		holdDownstream(r1, topology.PortFor(0, 1), v, nil)
	}
	for i := 0; i < 4; i++ {
		b.step()
	}
	if _, _, ok := r1.MostStarved(); ok {
		t.Fatal("presumption must clear once the header moves")
	}
	if p.OnDB {
		t.Fatal("false deadlock must not put the packet on the DB lane")
	}
}

func TestReservations(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := Default()
	b := newBench(t, topo, cfg, routing.Disha(0))
	target := b.routers[0]
	p1 := packet.New(1, 1, 0, 4, 0)
	p2 := packet.New(2, 2, 0, 4, 0)
	h1, h2 := target.st.pk.acquire(p1), target.st.pk.acquire(p2)
	if !reserveDB(target, 0, h1, 1) {
		t.Fatal("first reservation failed")
	}
	if reserveDB(target, 0, h1, 1) {
		t.Fatal("single write port violated")
	}
	// Occupy the DB with p1; p2 must be refused even in a new cycle.
	target.st.db.own(target.db0, p1)
	if reserveDB(target, 0, h2, 2) {
		t.Fatal("DB reserved for a foreign packet")
	}
	if !reserveDB(target, 0, h1, 2) {
		t.Fatal("owner refused its own DB")
	}
	// Full DB refuses even the owner.
	target.st.db.push(target.db0, p1.Flit(0))
	target.st.flitCount[target.node]++
	if reserveDB(target, 0, h1, 3) {
		t.Fatal("full DB accepted a flit")
	}
	if reserveDB(nil, 0, h1, 3) {
		t.Fatal("nil target accepted")
	}
}

func TestRouterViewImplementation(t *testing.T) {
	topo := topology.MustMesh(4, 4)
	cfg := cfg4()
	b := newBench(t, topo, cfg, routing.DOR())
	corner := b.routers[0]
	if corner.LinkExists(topology.PortFor(0, -1)) {
		t.Fatal("mesh corner -X link must not exist")
	}
	if !corner.LinkExists(topology.PortFor(0, 1)) {
		t.Fatal("+X link missing")
	}
	if corner.VCs() != cfg.VCs || corner.Topo() != topo || corner.Node() != 0 {
		t.Fatal("view accessors wrong")
	}
	if corner.FreeVCs(topology.PortFor(0, 1)) != cfg.VCs {
		t.Fatal("fresh router must have all VCs free")
	}
	p := packet.New(1, 0, 1, 4, 0)
	p.DimReversals = 3
	holdDownstream(corner, 0, 0, p)
	if corner.FreeVCs(0) != cfg.VCs-1 {
		t.Fatal("FreeVCs did not drop")
	}
	if dr, ok := corner.OccupantDimReversals(0, 0); !ok || dr != 3 {
		t.Fatal("occupant DR wrong")
	}
	if _, ok := corner.OccupantDimReversals(0, 1); ok {
		t.Fatal("free VC reported occupied")
	}
	// Draining VC (the tail has crossed, credits low) is not allocatable.
	nb := corner.Neighbor(0)
	nb.pushIn(corner.downIdx(0, 0), p.Flit(p.Length-1))
	nb.st.flitCount[nb.node]++
	if corner.OutputOwner(0, 0) != nil || corner.Credits(0, 0) != cfg.BufferDepth-1 {
		t.Fatalf("draining VC: owner %v, credits %d; want none and %d", corner.OutputOwner(0, 0), corner.Credits(0, 0), cfg.BufferDepth-1)
	}
	if corner.OutputVCFree(0, 0) {
		t.Fatal("draining VC must not be reallocatable")
	}
}

func TestRouterStringAndAccessors(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	b := newBench(t, topo, Default(), routing.Disha(0))
	r := b.routers[5]
	if r.String() == "" || r.Algorithm().Name() != "disha-m0" {
		t.Fatal("accessors wrong")
	}
	if r.InjectionPort() != topo.Degree() {
		t.Fatal("injection port index wrong")
	}
	if r.InputPorts() != topo.Degree()+1 {
		t.Fatal("input port count wrong")
	}
	if r.InputVCCount(0) != 4 || r.InputVCCount(r.InjectionPort()) != 1 {
		t.Fatal("input VC counts wrong")
	}
	if r.DBOccupancy() != 0 || r.DBOwner() != nil {
		t.Fatal("fresh DB state wrong")
	}
}

// TestTimerRidesOnTheHeader holds the T_elapsed rule at a crossing: a slot's
// timer is its owner's Waiting while the slot's head is the owner's header.
// A header blocked at router (1,0) for a while is released and crosses into
// router (2,0), where it blocks again; the timers then tick downstream
// first. The header's timer restarts at the crossing and counts its one
// blocked cycle at (2,0), and the slot it left reads 0 and is cleared
// without touching the header's timer.
func TestTimerRidesOnTheHeader(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	cfg := Default() // T_out 8
	b := newBench(t, topo, cfg, routing.DOR())
	r1 := b.routers[topo.NodeAt(topology.Coord{1, 0})]
	r2 := b.routers[topo.NodeAt(topology.Coord{2, 0})]
	east := topology.PortFor(0, 1)
	for v := 0; v < cfg.VCs; v++ {
		holdDownstream(r1, east, v, packet.New(98, 0, 1, 4, 0))
		holdDownstream(r2, east, v, packet.New(99, 0, 1, 4, 0))
	}
	p := packet.New(1, topo.NodeAt(topology.Coord{0, 0}), topo.NodeAt(topology.Coord{4, 0}), 2, 0)
	b.injectAndRun(t, p, 7)
	at := func(r *Router) (port, vc int, ok bool) {
		for l := 0; l < r.st.stride; l++ {
			if i := r.in0 + l; r.st.in.pkt(i) == p && r.st.in.n[i] != 0 && r.st.in.seq[i] == 0 {
				port, vc = r.portVCOf(l)
				return port, vc, true
			}
		}
		return 0, 0, false
	}
	port1, vc1, ok := at(r1)
	if w, presumed, _ := r1.InputTimer(port1, vc1); !ok || w < 2 || presumed || sim.Cycle(p.Waiting) != w {
		t.Fatalf("header at (1,0) %v: timer %d (presumed %v), packet's %d", ok, w, presumed, p.Waiting)
	}
	for v := 0; v < cfg.VCs; v++ {
		holdDownstream(r1, east, v, nil)
	}
	// One cycle with the timer passes downstream first.
	b.clock.Tick()
	var xfers []Transfer
	for _, r := range b.routers {
		r.StageRouting()
	}
	for _, r := range b.routers {
		xfers = r.StageSwitch(xfers)
	}
	ResolveDB(xfers, b.clock.Now())
	for i := range xfers {
		Commit(&xfers[i], b)
	}
	for n := len(b.routers) - 1; n >= 0; n-- {
		b.routers[n].TickTimers()
	}
	port2, vc2, ok := at(r2)
	if w, _, _ := r2.InputTimer(port2, vc2); !ok || w != 1 || p.Waiting != 1 {
		t.Fatalf("header at (2,0) %v: timer %d, packet's %d; want 1 after its one blocked cycle", ok, w, p.Waiting)
	}
	if w, presumed, _ := r1.InputTimer(port1, vc1); w != 0 || presumed {
		t.Fatalf("the slot the header left reads timer %d (presumed %v), want 0", w, presumed)
	}
	for _, r := range []*Router{r1, r2} {
		if err := r.CheckState(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPacketHandles follows one packet's handle through the packet table:
// taken when its header is injected, kept while its worm owns a slot, given
// back when its tail is delivered and reused by the next packet. The table's
// checks refuse a leaked handle (a packet that owns no slot) and a free
// handle whose entry is not empty.
func TestPacketHandles(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	b := newBench(t, topo, cfg4(), routing.DOR())
	st := b.routers[0].st
	p := packet.New(1, 0, topo.NodeAt(topology.Coord{2, 1}), 4, 0)
	if !b.routers[0].InjectFlit(p.Flit(0), 0) {
		t.Fatal("inject failed")
	}
	h := p.Handle
	if h == 0 || st.pk.pkts[h] != p {
		t.Fatalf("injected header holds handle %d, table entry %v", h, st.pk.pkts[h])
	}
	seq := 1
	for i := 0; i < 40 && !p.Delivered(); i++ {
		if seq < p.Length && b.routers[0].InjectFlit(p.Flit(seq), b.clock.Now()) {
			seq++
		}
		b.step()
		if !p.Delivered() && p.Handle != h {
			t.Fatalf("cycle %d: handle moved from %d to %d in flight", i, h, p.Handle)
		}
		if err := st.CheckHandles(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if !p.Delivered() || p.Handle != 0 || st.pk.pkts[h] != nil || len(st.pk.free) != 1 {
		t.Fatalf("delivered %v: handle %d, entry %v, %d free; want 0, nil and 1", p.Delivered(), p.Handle, st.pk.pkts[h], len(st.pk.free))
	}
	q := packet.New(2, 0, 5, 4, 0)
	if !b.routers[0].InjectFlit(q.Flit(0), b.clock.Now()) || q.Handle != h {
		t.Fatalf("the next packet took handle %d, want the freed %d", q.Handle, h)
	}
	i := b.routers[0].inIdx(st.deg, 0)
	st.in.owner[i] = 0 // q's header slot forgets it, but q keeps its handle
	want := fmt.Sprintf("packet table: packet 2 holds handle %d but owns no input slot or DB lane", h)
	if err := st.CheckHandles(); err == nil || err.Error() != want {
		t.Fatalf("leak: CheckHandles = %v, want %q", err, want)
	}
	st.in.owner[i] = h
	st.pk.free = append(st.pk.free, h)
	want = fmt.Sprintf("packet table: free handle %d is not an empty entry", h)
	if err := st.CheckHandles(); err == nil || err.Error() != want {
		t.Fatalf("free handle in use: CheckHandles = %v, want %q", err, want)
	}
}
