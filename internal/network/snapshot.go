package network

import (
	"fmt"
	"io"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/snapshot"
)

// Snapshot container identity. Bump snapshotVersion whenever the payload
// layout changes; old snapshots are then rejected with a clear error instead
// of being mis-decoded (TestSnapshotGoldenFixture pins the current layout).
const (
	snapshotMagic   = "DISHANET"
	snapshotVersion = 2
)

// Snapshot writes a versioned binary serialization of the network's complete
// dynamic state to w: configuration guard, the reconfiguration log (every
// link/router kill and heal and routing swap, for topology replay), clock,
// RNG streams, event counters, the live packet table (each in-flight or
// queued packet once, by identity), every node's source-queue and
// injection-stream state, the recovery Token, and every router's full
// microstate plus its private RNG (router.WalkState).
//
// An armed reconfiguration schedule (ScheduleReconfig) is deliberately NOT
// serialized: schedules live outside the network (chaos schedule files,
// harness specs), and the caller re-arms the same schedule after Restore —
// events whose cycle already passed are dropped on arming because the log
// replay above has already reproduced their effect.
//
// The encoding is deterministic: networks in the same state produce
// identical bytes, whichever scan path got them there. Restoring it into a
// freshly built Network with the identical Config reproduces the exact
// Fingerprint at every subsequent cycle, which is the property the
// checkpoint/resume machinery in internal/harness is built on.
func (n *Network) Snapshot(w io.Writer) error {
	// Bring skipped routers up to the current cycle first: the snapshot then
	// carries no trace of the active-set scheduler (activation is rebuilt
	// from the restored state, never serialized).
	n.syncIdle()
	var enc snapshot.Codec
	if err := n.walkState(&enc); err != nil {
		return err
	}
	_, err := w.Write(snapshot.Seal(snapshotMagic, snapshotVersion, enc.Bytes()))
	return err
}

// Restore loads a snapshot produced by Snapshot into this network. The
// network must be freshly constructed — network.New with the identical
// Config — and never stepped; anything else is an error. On any decoding
// error the network state is undefined and the network must be discarded.
func (n *Network) Restore(r io.Reader) error {
	if n.clock.Now() != 0 || n.counters != (Counters{}) || len(n.reconfigLog) != 0 {
		return fmt.Errorf("network: Restore requires a freshly constructed network")
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("network: read snapshot: %w", err)
	}
	payload, err := snapshot.Open(data, snapshotMagic, snapshotVersion)
	if err != nil {
		return err
	}
	dec := snapshot.NewDecoder(payload)
	if err := n.walkState(dec); err != nil {
		return err
	}
	if dec.Remaining() != 0 {
		return fmt.Errorf("snapshot: %d bytes of trailing garbage", dec.Remaining())
	}
	n.countersValid = false
	// Activation state is derived, not serialized: rebuild it from the
	// restored router state (drained routers sleep as of the restored cycle).
	n.rebuildActiveSet()
	return nil
}

// walkState is the DISHANET payload, written once: Snapshot runs it over an
// encoder and Restore over a decoder, section by section in file order. A
// decoding walk stops at the first section that fails. State behind
// accessors (clock, RNGs, sources) is read, coded and set back: when
// encoding, the set writes back what was just read.
func (n *Network) walkState(c *snapshot.Codec) error {
	n.walkConfigGuard(c)
	if err := n.walkReconfigLog(c); err != nil {
		return err
	}

	now := n.clock.Now()
	snapshot.Int(c, &now)
	n.clock.Set(now)
	rng := n.rng.State()
	c.U64x4(&rng)
	n.rng.SetState(rng)
	snapshot.Int(c, &n.nextID)
	n.counters.Walk(c)

	table := n.walkPacketTable(c)
	n.walkInjectionState(c, table)
	for _, s := range n.sources {
		st := s.State()
		c.U64x4(&st.RNG)
		c.Bool(&st.Stopped)
		c.Bool(&st.Bursting)
		c.I64(&st.Offered)
		s.SetState(st)
	}

	c.ExpectBool(n.token != nil, "recovery Token presence")
	if t := n.token; t != nil {
		snapshot.Range(c, &t.pos, snapshot.In(0, len(t.order), "token position"))
		c.Bool(&t.held)
		router.PacketRef(c, &t.holder, table)
		if t.held && t.holder == nil {
			c.Fail("snapshot: held token has no holder")
		}
		c.I64(&t.seizures)
		c.I64(&t.transitCycles)
		c.I64(&t.holdCycles)
	}

	for _, r := range n.routers {
		if err := r.WalkState(c, table); err != nil {
			return fmt.Errorf("router %d: %w", r.NodeID(), err)
		}
	}
	return c.Err()
}

// walkReconfigLog codes the reconfiguration log. A decoder replays each
// entry as it arrives, reconstructing the topology's history on the fresh
// network before any router state is read.
func (n *Network) walkReconfigLog(c *snapshot.Codec) error {
	count := len(n.reconfigLog)
	c.Len(&count, c.Remaining()/64)
	topoChanged := false
	for i := 0; i < count; i++ {
		var o ReconfigOutcome
		if !c.Decoding() {
			o = n.reconfigLog[i]
		}
		snapshot.Int(c, &o.Cycle)
		snapshot.Int(c, &o.Kind)
		snapshot.Int(c, &o.Node)
		snapshot.Int(c, &o.Port)
		c.String(&o.Alg)
		c.Bool(&o.Applied)
		c.String(&o.Reason)
		c.I64(&o.PacketsLost)
		c.I64(&o.FlitsLost)
		c.I64(&o.PacketsUnroutable)
		if !c.Decoding() {
			continue
		}
		if err := c.Err(); err != nil {
			return err
		}
		if err := n.replayOutcome(o); err != nil {
			return fmt.Errorf("network: replay reconfiguration log entry %d (%s): %w", i, o.ReconfigEvent, err)
		}
		topoChanged = topoChanged || (o.Applied && o.Kind != ReconfigSwapAlgorithm)
	}
	if topoChanged {
		// The router state decoded next carries the exact per-lane DB routes;
		// only the shared next-hop table (consulted for future recoveries)
		// needs rebuilding over the replayed wiring.
		n.rebuildDBTable()
	}
	return c.Err()
}

// walkInjectionState codes every node's source queue (packet IDs, head
// first), its in-progress injection stream (packet ID and next flit, or -1)
// and the per-source outstanding counts. Snapshot, Restore and Fingerprint
// share it; table is the decoded packet table (nil when encoding).
func (n *Network) walkInjectionState(c *snapshot.Codec, table map[packet.ID]*packet.Packet) {
	for i := range n.nis {
		q := &n.nis[i]
		queued := q.queued()
		c.Len(&queued, c.Remaining()/8)
		src := q.queue[q.qhead:]
		if c.Decoding() {
			q.queue, q.qhead, q.seq = nil, 0, 0
		}
		for j := 0; j < queued; j++ {
			var p *packet.Packet
			if !c.Decoding() {
				p = src[j]
			}
			router.PacketRef(c, &p, table)
			if !c.Decoding() {
				continue
			}
			if p == nil {
				c.Fail("snapshot: node %d queue holds a nil packet", i)
				return
			}
			q.push(p)
		}
		router.PacketRef(c, &q.cur, table)
		if q.cur != nil {
			snapshot.Range(c, &q.seq, snapshot.In(1, q.cur.Length, "injection stream position"))
		}
	}
	for i := range n.outstanding {
		snapshot.Int(c, &n.outstanding[i])
	}
}

// walkConfigGuard codes the identity of the configuration a snapshot is
// taken under: every field is a guard, so encoding writes this network's
// value and decoding compares against it — a snapshot can never be loaded
// into a structurally different simulation.
func (n *Network) walkConfigGuard(c *snapshot.Codec) {
	cfg := &n.cfg
	c.ExpectString(n.topo.Name(), "topology")
	c.Expect(int64(n.topo.Nodes()), "node count")
	c.Expect(int64(n.topo.Degree()), "degree")
	c.ExpectString(cfg.Algorithm.Name(), "routing algorithm")
	c.ExpectString(cfg.Selection.Name(), "selection function")
	c.ExpectString(cfg.Pattern.Name(), "traffic pattern")
	c.Expect(int64(cfg.Router.VCs), "VC count")
	c.Expect(int64(cfg.Router.BufferDepth), "buffer depth")
	c.Expect(int64(cfg.Router.DeadlockBufferDepth), "deadlock buffer depth")
	c.Expect(int64(cfg.Router.InjectionVCs), "injection VCs")
	c.Expect(int64(cfg.Router.ReceptionChannels), "reception channels")
	c.Expect(int64(cfg.Router.Timeout), "timeout")
	c.Expect(int64(cfg.Router.Alloc), "allocation policy")
	c.Expect(int64(cfg.Router.Recovery), "recovery mode")
	c.ExpectBool(cfg.Router.AdaptiveTimeout, "adaptive timeout")
	c.ExpectF64(cfg.LoadRate, "load rate")
	c.ExpectF64(0, "injection probability") // a field format v2 reserved; always 0
	c.Expect(int64(cfg.MsgLen), "message length")
	c.ExpectU64(cfg.Seed, "seed")
	c.Expect(int64(cfg.TokenHopsPerCycle), "token speed")
	c.Expect(int64(cfg.SourceQueueCap), "source queue cap")
	c.Expect(int64(cfg.InjectionThrottle), "injection throttle")
	c.ExpectF64(cfg.Burst.MeanBurst, "burst mean length")
	c.ExpectF64(cfg.Burst.MeanIdle, "burst mean idle")
}

// collectPackets walks every place a live packet can be referenced from, in
// deterministic order, and returns each packet exactly once.
func (n *Network) collectPackets() []*packet.Packet {
	var out []*packet.Packet
	seen := make(map[*packet.Packet]bool)
	add := func(p *packet.Packet) {
		if p != nil && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for i := range n.nis {
		q := &n.nis[i]
		for j := q.qhead; j < len(q.queue); j++ {
			add(q.queue[j])
		}
		add(q.cur)
	}
	for _, r := range n.routers {
		for p := 0; p < r.InputPorts(); p++ {
			for v := 0; v < r.InputVCCount(p); v++ {
				add(r.InputOwner(p, v))
				for i := 0; i < r.InputOccupancy(p, v); i++ {
					add(r.InputFlitAt(p, v, i).Pkt)
				}
			}
		}
		for p := 0; p < n.topo.Degree(); p++ {
			for v := 0; v < n.cfg.Router.VCs; v++ {
				add(r.OutputOwner(p, v))
			}
		}
		for lane := 0; lane < r.DBLanes(); lane++ {
			add(r.DBLaneOwner(lane))
			for i := 0; i < r.DBLaneLen(lane); i++ {
				add(r.DBFlitAt(lane, i).Pkt)
			}
		}
	}
	if n.token != nil {
		add(n.token.holder)
	}
	return out
}

// packetEncodedMin is a lower bound on one encoded packet's size, used to
// bound the table count against the remaining input.
const packetEncodedMin = 8*12 + 6

// walkPacketTable codes the live packet table: every packet reachable from
// any queue, buffer, channel or the Token, each exactly once. References
// elsewhere in the payload are IDs; a decoder returns the table they resolve
// through, so pointer identity survives the round trip.
func (n *Network) walkPacketTable(c *snapshot.Codec) map[packet.ID]*packet.Packet {
	var pkts []*packet.Packet
	if !c.Decoding() {
		pkts = n.collectPackets()
	}
	count := len(pkts)
	c.Len(&count, c.Remaining()/packetEncodedMin)
	if !c.Decoding() {
		for _, p := range pkts {
			walkPacket(c, p)
		}
		return nil
	}
	nodes := n.topo.Nodes()
	table := make(map[packet.ID]*packet.Packet, count)
	for i := 0; i < count && c.Err() == nil; i++ {
		p := &packet.Packet{}
		walkPacket(c, p)
		switch {
		case c.Err() != nil:
		case int(p.Src) < 0 || int(p.Src) >= nodes || int(p.Dst) < 0 || int(p.Dst) >= nodes:
			c.Fail("snapshot: packet %d endpoints %d->%d outside the %d nodes", p.ID, p.Src, p.Dst, nodes)
		case p.Length < 1:
			c.Fail("snapshot: packet %d has length %d < 1", p.ID, p.Length)
		case table[p.ID] != nil:
			c.Fail("snapshot: duplicate packet ID %d", p.ID)
		}
		table[p.ID] = p
	}
	return table
}

// walkPacket codes every packet field. A Packet field that can influence a
// future cycle belongs here, once, for both directions.
func walkPacket(c *snapshot.Codec, p *packet.Packet) {
	snapshot.Int(c, &p.ID)
	snapshot.Int(c, &p.Src)
	snapshot.Int(c, &p.Dst)
	snapshot.Int(c, &p.Length)
	snapshot.Int(c, &p.CreatedAt)
	snapshot.Int(c, &p.InjectedAt)
	snapshot.Int(c, &p.DeliveredAt)
	snapshot.Int(c, &p.Hops)
	snapshot.Int(c, &p.Misroutes)
	snapshot.Int(c, &p.DimReversals)
	c.Bool(&p.OnDeterministic)
	c.U64(&p.DatelineCrossed)
	snapshot.Int(c, &p.LastDim)
	snapshot.Int(c, &p.Retries)
	c.Bool(&p.OnDB)
	c.Bool(&p.TimedOut)
	c.Bool(&p.SeizedToken)
	snapshot.Int(c, &p.RecoveredAt)
	snapshot.Int(c, &p.FlitsDelivered)
	c.Bool(&p.HeaderArrived)
}
