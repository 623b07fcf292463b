package network

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestConservationProperty is the simulator's master invariant, checked over
// randomized configurations: after stopping injection and draining, every
// injected packet is delivered exactly once, all flits arrive in order at
// the right node, and the network is fully quiescent. Exercises random
// combinations of algorithm, VC count, buffer depth, message length,
// recovery mode and load.
func TestConservationProperty(t *testing.T) {
	type knobs struct {
		Seed       uint64
		AlgPick    uint8
		VCsPick    uint8
		DepthPick  uint8
		LenPick    uint8
		LoadPick   uint8
		Concurrent bool
		AbortRetry bool
		PBP        bool
	}
	f := func(k knobs) bool {
		topo := topology.MustTorus(4, 4)
		algs := []routing.Algorithm{
			routing.Disha(0), routing.Disha(3), routing.DOR(),
			routing.Duato(), routing.DallyAoki(), routing.NegativeFirst(),
		}
		alg := algs[int(k.AlgPick)%len(algs)]
		rc := router.Default()
		rc.VCs = 3 + int(k.VCsPick)%3 // 3..5 (covers every algorithm's MinVCs)
		rc.BufferDepth = 1 + int(k.DepthPick)%3
		recovery := alg.Name() == "disha-m0" || alg.Name() == "disha-m3"
		if recovery {
			rc.Timeout = 8
			switch {
			case k.AbortRetry:
				rc.Recovery = router.RecoveryAbortRetry
			case k.Concurrent:
				rc.Recovery = router.RecoveryConcurrent
			}
		} else {
			rc.Timeout = 0
		}
		if k.PBP && rc.Recovery != router.RecoveryConcurrent {
			rc.Alloc = router.PacketByPacket
		}
		cfg := Config{
			Topo:      topo,
			Router:    rc,
			Algorithm: alg,
			Pattern:   traffic.Uniform(topo),
			LoadRate:  0.2 + float64(0.15*float64(k.LoadPick%4)), // 0.2..0.65
			MsgLen:    1 + int(k.LenPick)%12,
			Seed:      k.Seed,
		}
		n, err := New(cfg)
		if err != nil {
			// Some knob combinations are legitimately infeasible (e.g. a
			// load that needs more than one packet per node per cycle at
			// MsgLen 1); construction rejecting them is correct behaviour.
			return true
		}
		ok := true
		lastSeq := map[packet.ID]int{}
		n.OnDeliver = func(p *packet.Packet) {
			if p.FlitsDelivered != p.Length || p.DeliveredAt < p.InjectedAt {
				ok = false
			}
			if _, dup := lastSeq[p.ID]; dup {
				ok = false // delivered twice
			}
			lastSeq[p.ID] = p.Length
		}
		n.Run(800)
		if !n.RunUntilDrained(30000) {
			t.Logf("did not drain: %s seed=%d cfg=%+v", alg.Name(), k.Seed, cfg.Router)
			return false
		}
		c := n.Counters()
		if c.PacketsDelivered != c.PacketsInjected-c.PacketsKilled {
			return false
		}
		if int64(len(lastSeq)) != c.PacketsDelivered {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestNIQueueCompaction exercises the source queue's amortized compaction
// path (qhead > 64), taken by a queue that never empties, which normal
// short tests never reach, and checks that neither pop nor compaction
// leaves a handed-on packet reachable from the queue.
func TestNIQueueCompaction(t *testing.T) {
	var q ni
	mk := func(i int) *packet.Packet { return packet.New(packet.ID(i), 0, 1, 1, 0) }
	for i := 0; i < 200; i++ {
		q.push(mk(i))
	}
	for i := 0; i < 150; i++ {
		if got := q.peek(); got.ID != packet.ID(i) {
			t.Fatalf("peek %d: got %d", i, got.ID)
		}
		q.pop()
		// Interleave pushes to force compaction while non-empty.
		q.push(mk(200 + i))
		if err := q.check(); err != nil {
			t.Fatalf("after pop %d: %v", i, err)
		}
	}
	if q.queued() != 200 {
		t.Fatalf("queued = %d, want 200", q.queued())
	}
	// Drain fully and verify FIFO order end to end.
	want := 150
	for q.queued() > 0 {
		got := q.peek()
		if got.ID != packet.ID(want) {
			t.Fatalf("drain order: got %d, want %d", got.ID, want)
		}
		q.pop()
		want++
	}
	if q.peek() != nil {
		t.Fatal("empty queue must peek nil")
	}
	if err := q.check(); err != nil {
		t.Fatal(err)
	}
	// The drained queue restarts at the front of its array; a stale
	// pointer left in a vacated slot of it is what check exists to catch.
	if q.qhead != 0 || len(q.queue) != 0 || cap(q.queue) < 200 {
		t.Fatalf("drained queue: qhead %d, len %d, cap %d; want 0, 0 and the array kept", q.qhead, len(q.queue), cap(q.queue))
	}
	q.queue[:cap(q.queue)][cap(q.queue)/2] = mk(999)
	if q.check() == nil {
		t.Fatal("check accepted a non-nil slot outside the live range")
	}
}

// TestNIQueueKeepsBacklogOnly runs 10 000 rounds that each push one to
// three packets and pop them all: a queue that empties restarts at the
// front of its array, so the array holds the largest backlog (3, in an
// array of 4) and not the slots of the pops since the last compaction.
func TestNIQueueKeepsBacklogOnly(t *testing.T) {
	var q ni
	id := 0
	for r := 0; r < 10000; r++ {
		for k := 0; k <= r%3; k++ {
			id++
			q.push(packet.New(packet.ID(id), 0, 1, 1, 0))
		}
		for want := id - r%3; q.queued() > 0; want++ {
			if got := q.peek(); got.ID != packet.ID(want) {
				t.Fatalf("round %d: peek %d, want %d", r, got.ID, want)
			}
			q.pop()
		}
		if err := q.check(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if cap(q.queue) > 4 {
			t.Fatalf("round %d: a backlog of at most 3 holds an array of %d slots", r, cap(q.queue))
		}
	}
}
