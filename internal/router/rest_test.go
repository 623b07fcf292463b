package router

import (
	"bytes"
	"fmt"

	"repro/internal/snapshot"
)

// The resting values, as construction leaves every slot of each kind.
var (
	restingInput = inputSlot{route: PortUnrouted, outVC: VCUnrouted}
	restingDB    = dbSlot{route: PortUnrouted}
	restingPort  = crossbarPort{inPort: connNone}
)

// CheckRest holds the snapshot walk to its listing: for every input slot,
// Deadlock Buffer lane and crossbar port of r, its at-rest predicate (which
// leaves it out of the listing) must agree with "its walk codes the bytes
// its resting value's walk codes". A field the walk codes but the predicate
// leaves out, or the reverse, breaks the agreement on the first slot that
// sets it. It is exported to this package's external tests, which run it
// over whole networks.
func (r *Router) CheckRest() error {
	s := r.st
	var rest, got []byte
	code := func(buf []byte, walk func(c *snapshot.Codec)) []byte {
		c := snapshot.NewEncoder(buf[:0])
		walk(c)
		return c.Bytes()
	}
	disagree := func(what string, atRest bool) error {
		if atRest {
			return fmt.Errorf("router %d %s: at rest, but its walk does not code a resting slot's bytes", r.node, what)
		}
		return fmt.Errorf("router %d %s: not at rest, but its walk codes a resting slot's bytes", r.node, what)
	}
	in := restingInput
	rest = code(rest, func(c *snapshot.Codec) { r.walkInput(c, &in, r.in0, nil) })
	for i := r.in0; i < r.in0+s.stride; i++ {
		sl := r.loadInput(i)
		got = code(got, func(c *snapshot.Codec) { r.walkInput(c, &sl, i, nil) })
		if atRest := r.inputAtRest(i); bytes.Equal(got, rest) != atRest {
			return disagree(r.slotName(&s.in, i), atRest)
		}
	}
	db := restingDB
	rest = code(rest, func(c *snapshot.Codec) { r.walkDB(c, &db, r.db0, nil) })
	for i := r.db0; i < r.db0+s.lanes; i++ {
		sl := r.loadDB(i)
		got = code(got, func(c *snapshot.Codec) { r.walkDB(c, &sl, i, nil) })
		if atRest := r.dbAtRest(i); bytes.Equal(got, rest) != atRest {
			return disagree(r.slotName(&s.db, i), atRest)
		}
	}
	cx := restingPort
	rest = code(rest, func(c *snapshot.Codec) { r.walkPort(c, &cx) })
	for q := 0; q < s.deg && s.cxInPort != nil; q++ {
		cp := r.loadPort(r.cxIdx(q))
		got = code(got, func(c *snapshot.Codec) { r.walkPort(c, &cp) })
		if atRest := r.portAtRest(r.cxIdx(q)); bytes.Equal(got, rest) != atRest {
			return disagree(fmt.Sprintf("crossbar %d", q), atRest)
		}
	}
	return nil
}
