package network

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/snapshot"
)

// Fingerprint returns a SHA-256 digest over the network's complete
// observable state: the snapshot's own walk of the state that evolves
// (walkDynamic) run over a digest — the clock, the packet-ID allocator, the
// stored counters, the live packet table with every packet's fields, the
// source queues, injection streams and sources, the recovery Token and
// every router (router.WalkState) — with no RNG stream and neither the
// configuration nor the reconfiguration log, so two configurations compare
// by what they do. Two networks with equal fingerprints behave identically
// from here on for equal future inputs; the golden-digest suite uses this to
// pin simulation behavior against a committed golden file.
func (n *Network) Fingerprint() [32]byte {
	c := snapshot.NewDigest(nil)
	n.walkDynamic(c) // an encoding walk cannot fail
	return sha256.Sum256(c.Bytes())
}

// FingerprintHex returns Fingerprint as a hex string, the form committed to
// the golden-digest file.
func (n *Network) FingerprintHex() string {
	d := n.Fingerprint()
	return hex.EncodeToString(d[:])
}
