package router

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// slotBytes sums len × element size over the slices of v (a State, or a
// flitRun inside it) whose length is one of the keys of by, into by's
// values: every per-slot array of one kind has the same length.
func slotBytes(v reflect.Value, by map[int]*int) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			slotBytes(f, by)
		case reflect.Slice:
			if sum := by[f.Len()]; sum != nil {
				*sum += f.Len() * int(f.Type().Elem().Size())
			}
		}
	}
}

// TestSlotBytes is the memory budget of the struct-of-arrays state: on
// dragonfly-16x8 (2 064 routers of radix 23, the dragonfly2k-sparse
// benchmark's network) at 4 VCs it sums the bytes of every per-slot array
// and pins them per input slot (191 952 of them, the flit buffers
// included), per output slot (189 888) and per port (47 472), at the
// default depth 2 and at depth 8, under both crossbar allocation policies:
// a slot stores its buffered flits as its owner's run, so no figure grows
// with depth. An input slot holds no pointer, so its figure is the same on
// 64-bit and 32-bit. An output slot costs no per-slot bytes, only its bit in
// the router's grant words (two 64-bit words for 92 output VCs). A port
// costs its wiring, plus its crossbar connection under packet-by-packet
// allocation only. Widening any per-slot field, or adding one, moves a
// figure.
func TestSlotBytes(t *testing.T) {
	for _, alloc := range []AllocPolicy{FlitByFlit, PacketByPacket} {
		for _, depth := range []int{2, 8} {
			cfg := Default()
			cfg.BufferDepth = depth
			cfg.Alloc = alloc
			if err := cfg.Normalize(); err != nil {
				t.Fatal(err)
			}
			topo := topology.MustDragonfly(16, 8)
			s := NewState(topo, cfg, nil, nil, new(sim.Clock))
			in, out, ports := s.nodes*s.stride, s.nodes*s.outStr, s.nodes*s.deg
			if in != 191952 || out != 189888 || ports != 47472 {
				t.Fatalf("dragonfly-16x8 has %d input slots, %d output slots and %d ports", in, out, ports)
			}
			var inBytes, outBytes, portBytes int
			slotBytes(reflect.ValueOf(s).Elem(), map[int]*int{in: &inBytes, out: &outBytes, ports: &portBytes})
			// An input slot: its owner's handle (4), inRoute, inOutVC,
			// inDBLane (1 byte each), and the buffer's head position (4) and
			// count (1). An output slot: nothing but its grant bit. A port:
			// the wiring, nbr (4) and rev (1), and under packet-by-packet
			// allocation the crossbar's four int8 ports and VCs and two
			// bools.
			cx := 0
			if alloc == PacketByPacket {
				cx = 6
			}
			for _, c := range []struct {
				what      string
				got, want int
				slots     int
			}{
				{"input", inBytes, 12, in},
				{"output", outBytes, 0, out},
				{"port", portBytes, 5 + cx, ports},
			} {
				if c.got != c.want*c.slots {
					t.Errorf("%v, depth %d: %s slots hold %d bytes, %.2f a slot; want %d a slot", alloc, depth, c.what, c.got, float64(c.got)/float64(c.slots), c.want)
				}
			}
			if s.gw != 2 || len(s.grant) != 2*s.nodes {
				t.Errorf("%v, depth %d: %d grant words a router, %d in all; want 2 and %d", alloc, depth, s.gw, len(s.grant), 2*s.nodes)
			}
			if t.Failed() || testing.Verbose() {
				t.Logf("%v, depth %d: input %d B, output %d B + %d grant words, ports %d B", alloc, depth, inBytes, outBytes, len(s.grant), portBytes)
			}
		}
	}
}

// TestStateHoldsNoPointers holds every per-slot, per-port and per-router
// slice of State, the flit buffers' included, to a pointer-free element
// type, so the collector never scans them: a slot names its owner by a
// handle into the packet table and a port its neighbor by node. The
// exceptions are named: the routers' views (each points at the State), the
// packet table the handles index, and the Deadlock Buffer lane rows, a memo
// by destination whose rows are built on demand.
func TestStateHoldsNoPointers(t *testing.T) {
	except := map[string]bool{"views": true, "pkts": true, "laneRows": true}
	var walk func(v reflect.Type, path string)
	checked := 0
	walk = func(v reflect.Type, path string) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch name := path + f.Name; {
			case except[f.Name]:
			case f.Type.Kind() == reflect.Struct && f.Type.PkgPath() == v.PkgPath():
				walk(f.Type, name+".")
			case f.Type.Kind() == reflect.Slice:
				checked++
				if e := f.Type.Elem(); hasPointers(e) {
					t.Errorf("State.%s is a slice of %v, which holds pointers", name, e)
				}
			}
		}
	}
	walk(reflect.TypeOf(State{}), "")
	if checked < 25 {
		t.Fatalf("checked %d slices: the walk missed State's arrays", checked)
	}
}

// hasPointers reports whether a value of type t holds a pointer the
// collector would scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// blockedHeader builds a 4x4 torus under cfg whose router (1,0) holds the
// header of a packet for (2,0) blocked on the +X output VCs (owned by a
// fake packet), as TestTimersAndMostStarved does; it returns the bench,
// that router and the header's global input slot. The header has waited
// six cycles (T_out is 8 in the paper configuration).
func blockedHeader(t *testing.T, cfg Config) (*testBench, *Router, int) {
	t.Helper()
	topo := topology.MustTorus(4, 4)
	b := newBench(t, topo, cfg, routing.DOR())
	r1 := b.routers[topo.NodeAt(topology.Coord{1, 0})]
	blocker := packet.New(99, 0, 1, 4, 0)
	for v := 0; v < r1.st.cfg.VCs; v++ {
		holdDownstream(r1, topology.PortFor(0, 1), v, blocker)
	}
	p := packet.New(1, topo.NodeAt(topology.Coord{0, 0}), topo.NodeAt(topology.Coord{2, 0}), 1, 0)
	if !b.routers[p.Src].InjectFlit(p.Flit(0), 0) {
		t.Fatal("inject failed")
	}
	for i := 0; i < 6; i++ {
		b.step()
	}
	for l := 0; l < r1.st.stride; l++ {
		if i := r1.in0 + l; r1.st.in.pkt(i) == p {
			if r1.waiting(i) != 6 {
				t.Fatalf("header waited %d cycles, want 6", r1.waiting(i))
			}
			return b, r1, i
		}
	}
	t.Fatal("header not parked at router (1,0)")
	return nil, nil, 0
}

// TestTimerSaturates sets a blocked header's timer just below its type's
// maximum and ticks it: the timer stops at math.MaxInt32 instead of
// wrapping, the header stays blocked and presumed, and at T_out =
// MaxTimeout the presumption still happens, on the tick that reaches the
// maximum.
func TestTimerSaturates(t *testing.T) {
	for _, tout := range []sim.Cycle{8, MaxTimeout} {
		cfg := Default()
		cfg.Timeout = tout
		b, r, i := blockedHeader(t, cfg)
		r.st.in.pkt(i).Waiting = math.MaxInt32 - 2
		port, vc := r.portVCOf(i - r.in0)
		for k, want := range []int32{math.MaxInt32 - 1, math.MaxInt32, math.MaxInt32, math.MaxInt32} {
			b.step()
			waiting, presumed, _ := r.InputTimer(port, vc)
			if int32(waiting) != want || waiting < 0 {
				t.Fatalf("T_out %d, tick %d: waiting %d, want %d", tout, k, waiting, want)
			}
			if wantPresumed := tout == 8 || want == math.MaxInt32; presumed != wantPresumed {
				t.Fatalf("T_out %d, tick %d: presumed %v at waiting %d", tout, k, presumed, waiting)
			}
			if err := r.CheckState(); err != nil {
				t.Fatal(err)
			}
		}
		if p, v, ok := r.MostStarved(); !ok || p != port || v != vc {
			t.Fatalf("T_out %d: MostStarved = (%d,%d,%v), want the saturated header (%d,%d)", tout, p, v, ok, port, vc)
		}
		if r.BlockedHeaders() != 1 || r.PresumedHeaders() != 1 {
			t.Fatalf("T_out %d: gauges %d blocked, %d presumed; want 1 and 1", tout, r.BlockedHeaders(), r.PresumedHeaders())
		}
	}
}

// TestSnapshotRefusesValuesPastNarrowTypes encodes a router where a blocked
// header waits: its waiting count at math.MaxInt32, the saturated value,
// restores, and at 2³¹, which does not fit the timer's int32, is refused
// with an error, not wrapped. So is a buffered flit position of 2³¹, even
// in a packet long enough to hold it. A value no state can hold is spliced
// in where two encodings of the state, with the field changed, differ.
func TestSnapshotRefusesValuesPastNarrowTypes(t *testing.T) {
	_, r, i := blockedHeader(t, Default())
	hdr := r.st.in.pkt(i)
	record := func() []byte {
		enc := snapshot.NewEncoder(nil)
		if err := r.WalkState(enc, nil); err != nil {
			t.Fatal(err)
		}
		return enc.Bytes()
	}
	waitingAt := func(w int32) []byte {
		hdr.Waiting = w
		return record()
	}
	seqAt := func(seq int32) []byte {
		r.st.in.seq[i] = seq
		defer func() { r.st.in.seq[i] = 0 }()
		return record()
	}
	zigzag := func(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
	long := *hdr
	long.Length = math.MaxInt
	for _, c := range []struct {
		name    string
		b       []byte
		want    int32 // the restored waiting count
		refused string
		pkt     *packet.Packet
	}{
		{"waiting 6", waitingAt(6), 6, "", hdr},
		{"waiting at the maximum", waitingAt(math.MaxInt32), math.MaxInt32, "", hdr},
		{"waiting past int32", splice(t, waitingAt(math.MaxInt32-1), waitingAt(math.MaxInt32), zigzag(1<<31)), 0, "value 2147483648 overflows int32", hdr},
		{"position past int32", splice(t, seqAt(2), seqAt(3), zigzag(1<<31)), 0, "value 2147483648 overflows int32", &long},
	} {
		// The packet table a decoder rewires references through: the header
		// the router's one owned slot holds, or a longer copy of it.
		table := map[packet.ID]*packet.Packet{hdr.ID: c.pkt}
		r2 := newBench(t, topology.MustTorus(4, 4), Default(), routing.DOR()).routers[r.node]
		err := r2.WalkState(snapshot.NewDecoder(c.b), table)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.refused == "" && r2.waiting(i) != c.want:
			t.Errorf("%s: waiting restored as %d, want %d", c.name, r2.waiting(i), c.want)
		case c.refused != "" && (err == nil || !strings.Contains(err.Error(), c.refused)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.refused)
		}
	}
}

// splice returns a copy of a with the varint that starts where a and b
// first differ replaced by the unsigned varint x. Encoding one state twice,
// with one field changed in its lowest bit, locates that field, so a test
// can put there a value no state can hold.
func splice(t *testing.T, a, b []byte, x uint64) []byte {
	t.Helper()
	k := 0
	for k < len(a) && k < len(b) && a[k] == b[k] {
		k++
	}
	_, m := binary.Uvarint(a[k:])
	if k == len(a) || m <= 0 {
		t.Fatalf("the two encodings do not differ at a varint (first difference at %d of %d bytes)", k, len(a))
	}
	return append(binary.AppendUvarint(bytes.Clone(a[:k]), x), a[k+m:]...)
}
