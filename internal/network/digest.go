package network

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/router"
	"repro/internal/snapshot"
)

// Fingerprint returns a SHA-256 digest over the network's complete
// observable state, built from the snapshot's own walks run over an encoder:
// network-wide counters (Counters.Walk, clock included), the packet-ID
// allocator, per-node source-queue, injection-stream and outstanding-count
// state (walkInjectionState), recovery-Token state, and every router's full
// microstate (router.AppendState). Two networks with equal fingerprints behave
// identically from here on for equal future inputs; the golden-digest suite
// uses this to pin simulation behavior against a committed golden file.
func (n *Network) Fingerprint() [32]byte {
	// Fast-forward routers the active-set scheduler is currently skipping,
	// so the digest never depends on which scheduler produced the state.
	n.syncIdle()
	c := snapshot.NewEncoder(make([]byte, 0, 4096))
	ctr := n.Counters()
	ctr.Walk(c)
	snapshot.Int(c, &n.nextID)
	n.walkInjectionState(c, nil)
	if t := n.token; t != nil {
		pos, holder := t.Position(), t.holder
		if !t.held {
			holder = nil
		}
		snapshot.Int(c, &pos)
		router.PacketRef(c, &holder, nil)
	}
	// Hash router by router through one reused buffer: the digest is that of
	// the concatenation, without materialising it (80 MB of append growth on a
	// 2064-router dragonfly, as much garbage as the simulator's whole heap).
	h := sha256.New()
	h.Write(c.Bytes())
	var b []byte
	for _, r := range n.routers {
		b = r.AppendState(b[:0])
		h.Write(b)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// FingerprintHex returns Fingerprint as a hex string, the form committed to
// the golden-digest file.
func (n *Network) FingerprintHex() string {
	d := n.Fingerprint()
	return hex.EncodeToString(d[:])
}
