package network

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/snapshot"
)

// Fingerprint returns a SHA-256 digest over the network's complete
// observable state, built from the snapshot's own encoders: network-wide
// counters (EncodeCounters, clock included), the packet-ID allocator,
// per-node source-queue, injection-stream and outstanding-count state
// (encodeInjectionState), recovery-Token state, and every router's full
// microstate (router.AppendState). Two networks with equal fingerprints behave
// identically from here on for equal future inputs; the golden-digest suite
// uses this to pin simulation behavior against a committed golden file.
func (n *Network) Fingerprint() [32]byte {
	// Fast-forward routers the active-set scheduler is currently skipping,
	// so the digest never depends on which scheduler produced the state.
	n.syncIdle()
	w := snapshot.NewWriter(make([]byte, 0, 4096))
	EncodeCounters(w, n.Counters())
	w.I64(int64(n.nextID))
	n.encodeInjectionState(w)
	if n.token != nil {
		w.I64(int64(n.token.Position()))
		if n.token.Held() {
			w.I64(int64(n.token.Holder().ID))
		} else {
			w.I64(-1)
		}
	}
	// Hash router by router through one reused buffer: the digest is that of
	// the concatenation, without materialising it (80 MB of append growth on a
	// 2064-router dragonfly, as much garbage as the simulator's whole heap).
	h := sha256.New()
	h.Write(w.Bytes())
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
