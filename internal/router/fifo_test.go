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
// flit buffers directly.
func ringState(t *testing.T, cfg Config) (*State, topology.Topology) {
	t.Helper()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	topo := topology.MustTorus(4, 4)
	return NewState(topo, cfg, nil, nil, new(sim.Clock)), topo
}

func TestRingBasics(t *testing.T) {
	cfg := Default()
	cfg.BufferDepth = 2
	s, _ := ringState(t, cfg)
	i := 3 // an arbitrary input VC slot
	if s.in.n[i] != 0 {
		t.Fatal("fresh buffer not empty")
	}
	p := packet.New(1, 0, 1, 3, 0)
	s.in.own(i, p)
	s.in.push(i, p.Flit(0))
	s.in.push(i, p.Flit(1))
	if int(s.in.n[i]) != 2 {
		t.Fatal("full buffer length wrong")
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
		t.Fatal("buffer should be empty")
	}
}

func TestRingWrapAround(t *testing.T) {
	cfg := Default()
	cfg.BufferDepth = 2
	s, _ := ringState(t, cfg)
	p := packet.New(1, 0, 1, 8, 0)
	// Interleave pushes and pops so the run advances through the packet.
	i, seq := 5, 0
	s.in.own(i, p)
	for k := 0; k < 8; k++ {
		s.in.push(i, p.Flit(k))
		got := s.in.pop(i)
		if got.Seq != seq {
			t.Fatalf("wrap: got seq %d, want %d", got.Seq, seq)
		}
		seq++
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
	s.in.own(0, p)
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

// TestFlitRun drives the owner-run buffer at depths 1 (the Deadlock Buffer),
// 2 (the default input VC) and 8: FIFO order through push/peek/at/pop as the
// run advances through its packet, the guard's panics (full, empty, past
// the tail, another packet's flit, a flit out of sequence), a run restarting
// wherever its owner is, and check's findings, an owner handle that names
// no packet carrying it among them.
func TestFlitRun(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	pkt, other := packet.New(1, 0, 1, 40, 0), packet.New(2, 0, 1, 40, 0)
	for _, depth := range []int{1, 2, 8} {
		q := newFlitRun(3, depth, &pktTable{pkts: make([]*packet.Packet, 1)})
		const i = 1 // a middle slot, so neighbouring slots would show overruns
		if q.n[i] != 0 || !panics(func() { q.peek(i) }) || !panics(func() { q.pop(i) }) {
			t.Fatalf("depth %d: a fresh slot is not empty", depth)
		}
		if !panics(func() { q.push(i, pkt.Flit(0)) }) {
			t.Fatalf("depth %d: push into a slot with no owner did not panic", depth)
		}
		q.own(i, pkt)
		seq := 0
		for round := 0; round < 3; round++ {
			for k := 0; k < depth; k++ {
				q.push(i, pkt.Flit(seq+k))
			}
			if !panics(func() { q.push(i, pkt.Flit(seq+depth)) }) {
				t.Fatalf("depth %d: push to a full slot did not panic", depth)
			}
			if q.peek(i).Seq != seq || q.at(i, depth-1) != pkt.Flit(seq+depth-1) {
				t.Fatalf("depth %d: peek/at do not index from the head", depth)
			}
			if !panics(func() { q.at(i, depth) }) || !panics(func() { q.at(i, -1) }) {
				t.Fatalf("depth %d: at outside the run did not panic", depth)
			}
			for k := 0; k < depth; k++ {
				if got := q.pop(i); got != pkt.Flit(seq) {
					t.Fatalf("depth %d: popped %v, want flit %d of packet 1", depth, got, seq)
				}
				seq++
				if k < depth-1 && q.peek(i).Seq != seq {
					t.Fatalf("depth %d: head after a pop is flit %d, want %d", depth, q.peek(i).Seq, seq)
				}
			}
			if err := q.check(i); err != nil || q.pkt(i) != pkt {
				t.Fatalf("depth %d: drained slot fails check (%v) or lost its owner", depth, err)
			}
		}
		// An empty slot's run starts wherever the owner is; behind a
		// buffered flit only the next one enters.
		q.push(i, pkt.Flit(seq+5))
		if depth > 1 {
			if !panics(func() { q.push(i, pkt.Flit(seq+7)) }) || !panics(func() { q.push(i, pkt.Flit(seq+5)) }) {
				t.Fatalf("depth %d: push of a flit out of sequence did not panic", depth)
			}
			if !panics(func() { q.push(i, other.Flit(seq+6)) }) {
				t.Fatalf("depth %d: push of another packet's flit did not panic", depth)
			}
			q.push(i, pkt.Flit(seq+6))
		}
		if q.n[0] != 0 || q.n[2] != 0 || q.owner[0] != 0 || q.owner[2] != 0 || q.check(0) != nil || q.check(2) != nil {
			t.Fatalf("depth %d: traffic on slot 1 leaked into its neighbours", depth)
		}
		for name, corrupt := range map[string]func(){
			"no owner":               func() { q.owner[i] = 0 },
			"past its tail":          func() { q.seq[i] = int32(pkt.Length) },
			"before its head":        func() { q.seq[i] = -1 },
			"overfull":               func() { q.n[i] = uint8(depth + 1) },
			"owned by a free handle": func() { q.owner[i] = int32(len(q.tab.pkts)) },
			"owned by a stale handle": func() {
				h := q.owner[i]
				q.tab.release(pkt)
				q.owner[i] = h
			},
		} {
			o, sq, n := q.owner[i], q.seq[i], q.n[i]
			if corrupt(); q.check(i) == nil {
				t.Errorf("depth %d: check missed a run %s", depth, name)
			}
			q.owner[i], q.seq[i], q.n[i] = o, sq, n
			q.own(i, pkt)
		}
		if err := q.check(i); err != nil {
			t.Fatalf("depth %d: restored slot fails check: %v", depth, err)
		}
	}
}

func TestPortVCInverse(t *testing.T) {
	cfg := Default()
	cfg.VCs = 3
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	topo := topology.MustTorus(4, 4)
	r := NewWithState(0, sim.NewRNG(1), NewState(topo, cfg, routing.DOR(), routing.Random(), new(sim.Clock)))
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
	cfg.Alloc = PacketByPacket // so the crossbar arrays exist
	topo := topology.MustTorus(4, 4)
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	r := NewWithState(0, sim.NewRNG(1), NewState(topo, cfg, routing.DOR(), routing.Random(), new(sim.Clock)))
	if err := r.CheckState(); err != nil {
		t.Fatalf("fresh router fails CheckState: %v", err)
	}
	corruptions := []func(s *State){
		func(s *State) { s.in.own(0, packet.New(9, 0, 1, 9, 0)); s.in.n[0] = uint8(s.cfg.BufferDepth + 1) },
		func(s *State) { s.in.n[0] = 1 }, // a flit with no owner
		func(s *State) { s.in.own(0, packet.New(9, 0, 1, 2, 0)); s.in.seq[0], s.in.n[0] = 1, 2 },
		func(s *State) { s.in.owner[0] = 1 }, // a handle no packet holds
		func(s *State) { p := packet.New(9, 0, 1, 2, 0); s.in.own(0, p); p.Handle = 2 },
		func(s *State) { s.inRoute[0] = int8(s.deg) },
		func(s *State) { s.inOutVC[0] = int8(s.cfg.VCs) },
		func(s *State) { s.grant[0] = 1 },                   // a grant no header holds
		func(s *State) { s.grant[0] = 1 << (s.outStr - 1) }, // the last output VC's
		func(s *State) { s.flitCount[0] = 5 },
		func(s *State) { s.cxInPort[0] = int8(s.deg + 1) },
		func(s *State) { s.cxInPort[0], s.cxInVC[0] = 1, int8(s.cfg.VCs) },
		func(s *State) { s.cxInPort[0], s.cxInVC[0] = int8(s.deg), 1 }, // the injection port has one VC
		func(s *State) { s.cxInVC[0] = -1 },
		func(s *State) { s.cxSaved[0], s.cxSavedPort[0], s.cxSavedVC[0] = true, 1, MaxVCs },
		func(s *State) { s.cxDB[0] = true }, // a connection the count misses
		func(s *State) { s.cxHeld[0] = 1 },  // a count with no connection
	}
	for i, corrupt := range corruptions {
		rc := NewWithState(0, sim.NewRNG(1), NewState(topo, cfg, routing.DOR(), routing.Random(), new(sim.Clock)))
		corrupt(rc.st)
		if err := rc.CheckState(); err == nil {
			t.Errorf("corruption %d not caught by CheckState", i)
		}
	}
}

// TestRotatingWalk checks nextSet and the rotating walk (rotFirst/rotNext)
// against a slot-by-slot scan on masks one, two and three words wide, from
// every start: the walk must meet exactly the set bits, in the order a
// full-stride round-robin scan from the offset meets them. The strides
// include one that fills its word (64) and ones that end mid-word.
func TestRotatingWalk(t *testing.T) {
	rng := sim.NewRNG(3)
	for _, slots := range []int{17, 64, 68, 150} {
		w := (slots + 63) / 64
		masks := [][]uint64{make([]uint64, w), make([]uint64, w), make([]uint64, w), make([]uint64, w)}
		for l := 0; l < slots; l++ {
			masks[0][l>>6] |= 1 << (uint(l) & 63) // full
			if rng.Intn(5) == 0 || l == 0 || l == 63 || l == 64 || l == slots-1 {
				masks[1][l>>6] |= 1 << (uint(l) & 63)
			}
			if l == slots/2 {
				masks[2][l>>6] |= 1 << (uint(l) & 63) // a single bit
			}
		} // masks[3] stays empty
		for mi, m := range masks {
			set := func(l int) bool { return m[l>>6]&(1<<(uint(l)&63)) != 0 }
			for from := 0; from <= slots; from++ {
				want := -1
				for l := from; l < slots; l++ {
					if set(l) {
						want = l
						break
					}
				}
				if got := nextSet(m, from); got != want {
					t.Fatalf("w=%d mask %d: nextSet(%d) = %d, want %d", w, mi, from, got, want)
				}
			}
			for off := 0; off < slots; off++ {
				var want, got []int
				for k := 0; k < slots; k++ {
					if l := (off + k) % slots; set(l) {
						want = append(want, l)
					}
				}
				for l := rotFirst(m, off); l >= 0 && len(got) <= slots; l = rotNext(m, l, off) {
					got = append(got, l)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("w=%d mask %d from %d: walk %v, want %v", w, mi, off, got, want)
				}
			}
		}
	}
}

// TestCheckStateNamesEachMaskBit flips, one at a time, every slot's
// occupied, header-at-head, unrouted and timing bit on routers with a packet
// mid-flight and a header timing behind a blocked output, and expects
// CheckState to name the router, the (port, vc) and the mask; then each
// slot's sent bit, which no slot holds between cycles; then a bit past the
// stride of each mask, sent included.
func TestCheckStateNamesEachMaskBit(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := Default()
	b := newBench(t, topo, cfg, routing.DOR())
	r1 := b.routers[topo.NodeAt(topology.Coord{1, 0})]
	for v := 0; v < cfg.VCs; v++ {
		holdDownstream(r1, topology.PortFor(0, 1), v, packet.New(99, 0, 1, 4, 0))
	}
	b.injectAndRun(t, packet.New(1, 0, topo.NodeAt(topology.Coord{2, 0}), 4, 0), 12)
	var seen [mSent]int
	for _, r := range b.routers {
		for l := 0; l < r.st.stride; l++ {
			i := r.in0 + l
			p, v := r.portVCOf(l)
			for k := 0; k < mSent; k++ {
				was := r.hasMask(k, i)
				if was {
					seen[k]++
				}
				r.setMask(k, i, !was)
				want := fmt.Sprintf("router %d input (%d,%d): %s mask bit %v, slot state says %v", r.node, p, v, maskNames[k], !was, was)
				if err := r.CheckState(); err == nil || err.Error() != want {
					t.Fatalf("CheckState with router %d slot %d's %s bit flipped = %v, want %q", r.node, l, maskNames[k], err, want)
				}
				r.setMask(k, i, was)
				if err := r.CheckState(); err != nil {
					t.Fatalf("bit restored: %v", err)
				}
			}
			r.setMask(mSent, i, true)
			want := fmt.Sprintf("router %d input (%d,%d): sent mask bit set between cycles", r.node, p, v)
			if err := r.CheckState(); err == nil || err.Error() != want {
				t.Fatalf("CheckState with router %d slot %d's sent bit set = %v, want %q", r.node, l, err, want)
			}
			r.setMask(mSent, i, false)
		}
	}
	if seen[mOcc] < 2 || seen[mHdr] < 1 || seen[mTim] < 1 || seen[mUnr] == 16*r1.st.stride {
		t.Fatalf("set bits per mask %v: the setup should leave flits in two routers, a timing header and a routed slot", seen)
	}
	for k := 0; k < maskKinds; k++ {
		m, pad := r1.maskOf(k), r1.st.stride
		m[pad>>6] ^= 1 << (uint(pad) & 63)
		want := fmt.Sprintf("router %d: %s mask has bits past slot %d", r1.node, maskNames[k], pad-1)
		if err := r1.CheckState(); err == nil || err.Error() != want {
			t.Fatalf("CheckState with a %s bit past the stride = %v, want %q", maskNames[k], err, want)
		}
		m[pad>>6] ^= 1 << (uint(pad) & 63)
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	var c Config
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	d := Default()
	// Timeout legitimately stays zero (detection off); everything else
	// fills in.
	if c.VCs != d.VCs || c.BufferDepth != d.BufferDepth || c.ReceptionChannels != d.ReceptionChannels {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestConfigNormalizeErrors(t *testing.T) {
	bad := []Config{
		{VCs: -1},
		{BufferDepth: -2},
		{ReceptionChannels: -3},
		{Timeout: -1},
		{Alloc: AllocPolicy(9)},
		{VCs: MaxVCs + 1},
		{BufferDepth: MaxBufferDepth + 1},
		{Timeout: MaxTimeout + 1},
	}
	for i, c := range bad {
		if err := c.Normalize(); err == nil {
			t.Errorf("config %d should fail: %+v", i, c)
		}
	}
	// The bounds themselves are accepted: they are what the narrow state
	// types hold.
	edge := Config{VCs: MaxVCs, BufferDepth: MaxBufferDepth, Timeout: MaxTimeout}
	if err := edge.Normalize(); err != nil {
		t.Errorf("config at the bounds refused: %v", err)
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

// TestCheckStateChecksGrants holds CheckState to the grant bits' one fact:
// each routed header at a buffer head holds its output VC's bit alone, and
// each set bit has such a header. A header granted without its bit, a bit
// no header holds and a second header on the same output VC are each
// refused with the router and the output (port, vc) named.
func TestCheckStateChecksGrants(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	b := newBench(t, topo, Default(), routing.DOR())
	r := b.routers[5]
	q := topology.PortFor(0, 1)
	park := func(port int, p *packet.Packet) {
		i := r.inIdx(port, 0)
		r.st.in.own(i, p)
		r.pushIn(i, p.Flit(0))
		r.st.flitCount[r.node]++
		r.setRoute(i, q)
		r.st.inOutVC[i] = 1
	}
	park(0, packet.New(1, 0, 9, 4, 0))
	r.setGrant(q, 1, true)
	if err := r.CheckState(); err != nil {
		t.Fatalf("a granted header fails CheckState: %v", err)
	}
	r.setGrant(q, 1, false)
	want := fmt.Sprintf("router 5 input (0,0): header holds output (%d,1) without its grant bit", q)
	if err := r.CheckState(); err == nil || err.Error() != want {
		t.Fatalf("bit cleared: CheckState = %v, want %q", err, want)
	}
	r.setGrant(q, 1, true)
	r.setGrant(q, 2, true)
	want = fmt.Sprintf("router 5 output (%d,2): grant bit set with no header holding it", q)
	if err := r.CheckState(); err == nil || err.Error() != want {
		t.Fatalf("stray bit: CheckState = %v, want %q", err, want)
	}
	r.setGrant(q, 2, false)
	park(2, packet.New(2, 0, 9, 4, 0))
	want = fmt.Sprintf("router 5 output (%d,1): granted to two headers, the second at input (2,0)", q)
	if err := r.CheckState(); err == nil || err.Error() != want {
		t.Fatalf("two headers: CheckState = %v, want %q", err, want)
	}
}
