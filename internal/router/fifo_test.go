package router

import (
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ringState builds a normalized two-node-per-dim state to exercise the SoA
// flit rings directly.
func ringState(t *testing.T, cfg Config) (*State, topology.Topology) {
	t.Helper()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	topo := topology.MustTorus(4, 4)
	return NewState(topo, cfg, nil, nil), topo
}

func TestRingBasics(t *testing.T) {
	cfg := Default()
	cfg.BufferDepth = 2
	s, _ := ringState(t, cfg)
	i := 3 // an arbitrary input VC slot
	if s.in.n[i] != 0 {
		t.Fatal("fresh ring not empty")
	}
	p := packet.New(1, 0, 1, 3, 0)
	s.in.push(i, p.Flit(0))
	s.in.push(i, p.Flit(1))
	if int(s.in.n[i]) != 2 {
		t.Fatal("full ring length wrong")
	}
	if s.in.peek(i).Seq != 0 {
		t.Fatal("peek must see the oldest flit")
	}
	if s.in.at(i, 1).Seq != 1 {
		t.Fatal("inAt must index from the head")
	}
	if s.in.pop(i).Seq != 0 || s.in.pop(i).Seq != 1 {
		t.Fatal("pop order wrong")
	}
	if s.in.n[i] != 0 {
		t.Fatal("ring should be empty")
	}
}

func TestRingWrapAround(t *testing.T) {
	cfg := Default()
	cfg.BufferDepth = 2
	s, _ := ringState(t, cfg)
	p := packet.New(1, 0, 1, 8, 0)
	// Interleave pushes and pops so the ring indices wrap repeatedly.
	i, seq := 5, 0
	for k := 0; k < 8; k++ {
		s.in.push(i, p.Flit(k))
		got := s.in.pop(i)
		if got.Seq != seq {
			t.Fatalf("wrap: got seq %d, want %d", got.Seq, seq)
		}
		seq++
	}
}

func TestRingPopZeroesVacatedSlot(t *testing.T) {
	cfg := Default()
	s, _ := ringState(t, cfg)
	p := packet.New(1, 0, 1, 2, 0)
	s.in.push(0, p.Flit(0))
	s.in.pop(0)
	for k := 0; k < s.cfg.BufferDepth; k++ {
		if s.in.flits[k].Pkt != nil {
			t.Fatal("vacated ring slot retains a stale packet pointer")
		}
	}
}

func TestRingPanics(t *testing.T) {
	cfg := Default()
	cfg.BufferDepth = 1
	s, _ := ringState(t, cfg)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("pop on empty did not panic")
			}
		}()
		s.in.pop(0)
	}()
	p := packet.New(1, 0, 1, 2, 0)
	s.in.push(0, p.Flit(0))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("push on full did not panic")
			}
		}()
		s.in.push(0, p.Flit(1))
	}()
}

// TestFlitRing drives the one ring type at both depths in use (input VCs: 2,
// Deadlock Buffer: 1): FIFO order through push/peek/at/pop with the head
// wrapping, the overflow/underflow panics, and check's two findings.
func TestFlitRing(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	pkt := packet.New(1, 0, 1, 16, 0)
	for _, depth := range []int{2, 1} {
		q := newFlitRing(3, depth)
		const i = 1 // a middle slot, so neighbouring slots would show overruns
		seq := 0
		for round := 0; round < 3; round++ { // odd fills leave the head mid-ring
			for k := 0; k < depth; k++ {
				q.push(i, pkt.Flit(seq+k))
			}
			if !panics(func() { q.push(i, pkt.Flit(0)) }) {
				t.Fatalf("depth %d: push to a full ring did not panic", depth)
			}
			if q.peek(i).Seq != seq || q.at(i, depth-1).Seq != seq+depth-1 {
				t.Fatalf("depth %d: peek/at do not index from the head", depth)
			}
			if !panics(func() { q.at(i, depth) }) {
				t.Fatalf("depth %d: at past the tail did not panic", depth)
			}
			for k := 0; k < depth; k++ {
				if got := q.pop(i).Seq; got != seq {
					t.Fatalf("depth %d: popped seq %d, want %d", depth, got, seq)
				}
				seq++
			}
			if err := q.check(i); err != nil {
				t.Fatalf("depth %d: drained ring fails check: %v", depth, err)
			}
			if depth > 1 {
				q.push(i, pkt.Flit(seq)) // shift the head by one for the next round
				q.pop(i)
				seq++
			}
		}
		if !panics(func() { q.pop(i) }) || !panics(func() { q.peek(i) }) {
			t.Fatalf("depth %d: pop/peek on an empty ring did not panic", depth)
		}
		if q.n[0] != 0 || q.n[2] != 0 || q.check(0) != nil || q.check(2) != nil {
			t.Fatalf("depth %d: traffic on slot 1 leaked into its neighbours", depth)
		}
		q.flits[i*depth] = pkt.Flit(0)
		if q.check(i) == nil {
			t.Fatalf("depth %d: check missed a stale flit in a vacated slot", depth)
		}
		q.flits[i*depth] = packet.Flit{}
		q.head[i] = int32(depth)
		if q.check(i) == nil {
			t.Fatalf("depth %d: check missed an out-of-range head", depth)
		}
		q.head[i], q.n[i] = 0, int32(depth+1)
		if q.check(i) == nil {
			t.Fatalf("depth %d: check missed an out-of-range length", depth)
		}
	}
}

func TestPortVCInverse(t *testing.T) {
	cfg := Default()
	cfg.VCs = 3
	cfg.InjectionVCs = 2
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	topo := topology.MustTorus(4, 4)
	r := New(0, topo, cfg, routing.DOR(), routing.Random(), sim.NewRNG(1))
	l := 0
	for p := 0; p <= topo.Degree(); p++ {
		for v := 0; v < r.InputVCCount(p); v++ {
			gp, gv := r.portVCOf(l)
			if gp != p || gv != v {
				t.Fatalf("portVCOf(%d) = (%d,%d), want (%d,%d)", l, gp, gv, p, v)
			}
			if got := r.inIdx(p, v); got != r.in0+l {
				t.Fatalf("inIdx(%d,%d) = %d, want %d", p, v, got, r.in0+l)
			}
			l++
		}
	}
	if l != r.st.stride {
		t.Fatalf("walked %d slots, stride is %d", l, r.st.stride)
	}
}

func TestCheckStateCatchesCorruption(t *testing.T) {
	cfg := Default()
	topo := topology.MustTorus(4, 4)
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	r := New(0, topo, cfg, routing.DOR(), routing.Random(), sim.NewRNG(1))
	if err := r.CheckState(); err != nil {
		t.Fatalf("fresh router fails CheckState: %v", err)
	}
	corruptions := []func(s *State){
		func(s *State) { s.in.head[0] = int32(s.cfg.BufferDepth) },
		func(s *State) { s.in.n[0] = int32(s.cfg.BufferDepth + 1) },
		func(s *State) { s.in.flits[0] = packet.New(9, 0, 1, 2, 0).Flit(0) },
		func(s *State) { s.inRoute[0] = int32(s.deg) },
		func(s *State) { s.inOutVC[0] = int32(s.cfg.VCs) },
		func(s *State) { s.outCredits[0] = int32(s.cfg.BufferDepth + 1) },
		func(s *State) { s.outCredits[0] = -1 },
		func(s *State) { s.flitCount[0] = 5 },
		func(s *State) { s.cxInPort[0] = int32(s.deg + 1) },
		func(s *State) { s.cxInPort[0], s.cxInVC[0] = 1, int32(s.cfg.VCs) },
		func(s *State) { s.cxInPort[0], s.cxInVC[0] = int32(s.deg), int32(s.cfg.InjectionVCs) },
		func(s *State) { s.cxInVC[0] = -1 },
		func(s *State) { s.cxSaved[0], s.cxSavedPort[0], s.cxSavedVC[0] = true, 1, 1<<20 },
	}
	for i, corrupt := range corruptions {
		rc := New(0, topo, cfg, routing.DOR(), routing.Random(), sim.NewRNG(1))
		corrupt(rc.st)
		if err := rc.CheckState(); err == nil {
			t.Errorf("corruption %d not caught by CheckState", i)
		}
	}
}

// TestLiveSlotScans checks nextLive and prevLive against a slot-by-slot
// scan for every range over a bitmap three words long, so each crosses word
// boundaries from both sides and stops at bounds inside a word.
func TestLiveSlotScans(t *testing.T) {
	const slots = 150
	q := newFlitRing(slots, 1)
	rng := sim.NewRNG(3)
	for i := 0; i < slots; i++ {
		if rng.Intn(5) == 0 || i == 0 || i == 63 || i == 64 || i == slots-1 {
			q.setLive(i)
		}
	}
	for lo := 0; lo <= slots; lo++ {
		for hi := lo; hi <= slots; hi++ {
			next, prev := -1, -1
			for i := lo; i < hi; i++ {
				if q.isLive(i) {
					if next < 0 {
						next = i
					}
					prev = i
				}
			}
			if got := q.nextLive(lo, hi); got != next {
				t.Fatalf("nextLive(%d, %d) = %d, want %d", lo, hi, got, next)
			}
			if got := q.prevLive(lo, hi); got != prev {
				t.Fatalf("prevLive(%d, %d) = %d, want %d", lo, hi, got, prev)
			}
		}
	}
}

// TestCheckStateRequiresLiveBusySlots clears the live bit of busy input
// slots — every slot holding flits while a packet crosses a torus, then an
// empty slot carrying each other kind of per-slot state — and expects
// CheckState to name the router and the (port, vc).
func TestCheckStateRequiresLiveBusySlots(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	b := newBench(t, topo, cfg4(), routing.DOR())
	b.injectAndRun(t, packet.New(1, 0, topo.NodeAt(topology.Coord{2, 2}), 4, 0), 6)
	expectMissing := func(r *Router, i int) {
		t.Helper()
		port, vc := r.portVCOf(i - r.in0)
		want := fmt.Sprintf("router %d input (%d,%d): busy slot missing from the live-slot set", r.node, port, vc)
		r.st.in.clearLive(i)
		if err := r.CheckState(); err == nil || err.Error() != want {
			t.Fatalf("CheckState with slot %d's live bit clear = %v, want %q", i, err, want)
		}
		r.st.in.setLive(i)
		if err := r.CheckState(); err != nil {
			t.Fatalf("live bit restored: %v", err)
		}
	}
	occupied := 0
	for _, r := range b.routers {
		for i := r.in0; i < r.in0+r.st.stride; i++ {
			if r.st.in.n[i] != 0 {
				expectMissing(r, i)
				occupied++
			}
		}
	}
	if occupied < 2 {
		t.Fatalf("%d occupied slots mid-flight; the packet should span routers", occupied)
	}
	for _, mark := range []func(s *State, i int){
		func(s *State, i int) { s.inSent[i] = true },
		func(s *State, i int) { s.inWaiting[i] = 3 },
		func(s *State, i int) { s.inPresumed[i] = true },
	} {
		r := New(5, topo, b.routers[0].st.cfg, routing.DOR(), routing.Random(), sim.NewRNG(1))
		i := r.inIdx(1, 0)
		mark(r.st, i)
		r.st.in.setLive(i)
		expectMissing(r, i)
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	var c Config
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	d := Default()
	// DeadlockBufferDepth and Timeout legitimately stay zero (disabled);
	// everything else fills in.
	if c.VCs != d.VCs || c.BufferDepth != d.BufferDepth || c.InjectionVCs != d.InjectionVCs || c.ReceptionChannels != d.ReceptionChannels {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestConfigNormalizeErrors(t *testing.T) {
	bad := []Config{
		{VCs: -1},
		{BufferDepth: -2},
		{DeadlockBufferDepth: -1},
		{InjectionVCs: -1},
		{ReceptionChannels: -3},
		{Timeout: -1},
		{Alloc: AllocPolicy(9)},
	}
	for i, c := range bad {
		if err := c.Normalize(); err == nil {
			t.Errorf("config %d should fail: %+v", i, c)
		}
	}
}

func TestAllocPolicyString(t *testing.T) {
	if FlitByFlit.String() != "flit-by-flit" || PacketByPacket.String() != "packet-by-packet" {
		t.Fatal("policy names wrong")
	}
	if AllocPolicy(7).String() == "" {
		t.Fatal("unknown policy must still format")
	}
}
