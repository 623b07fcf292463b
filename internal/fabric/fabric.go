// Package fabric is the distributed sweep fabric: a coordinator that
// decomposes sweeps into point-grained work units and leases them to remote
// workers over HTTP, and the worker loop that executes leased points through
// the deterministic harness and uploads results.
//
// The design borrows the paper's own recovery philosophy: instead of trying
// to prevent worker failure, the coordinator presumes it on a time-out — a
// lease that is not renewed before its TTL expires is treated as dead and
// its work unit re-dispatched to the next worker, exactly as DISHA presumes
// deadlock after T_out cycles and routes the blocked packet through the
// recovery lane. Progressive recovery is possible too: workers stream
// mid-point checkpoint blobs to the coordinator, and a re-dispatched lease
// carries the last blob so the next worker resumes mid-flight rather than
// from scratch.
//
// The time-out is for the rare case only. Handing out work waits on no
// timer: an idle worker's lease request is held open by the coordinator and
// answered the moment a unit becomes pending (or empty once the hold — half
// a lease TTL, at most 10 s, so a parked worker is never presumed dead —
// runs out, and the worker asks again).
//
// Correctness rests on the sweep's determinism contract (PR 2): a point's
// result is a pure function of its job key and derived seed, so it does not
// matter which worker runs it, how often it is re-dispatched, or whether a
// presumed-dead worker was actually alive and uploads a duplicate — the
// first result to arrive is the only possible result. That same purity
// makes results cacheable: every unit is keyed by a content fingerprint
// (SHA-256 over job key + seed), finished points land in a shared cache,
// and identical sub-requests across concurrent clients dedupe to at most
// one execution.
//
// Coordinator HTTP API (mounted under /fleet/ by the job server):
//
//	POST /fleet/register    worker announces itself -> lease TTL, hold, poll/heartbeat cadence
//	POST /fleet/lease       acquire the next work unit; held open until one is pending (204 once the hold elapses)
//	POST /fleet/heartbeat   renew held leases; response lists leases to drop
//	POST /fleet/result      upload a finished point (or a worker-side error)
//	POST /fleet/checkpoint  stream a mid-point checkpoint blob
//	GET  /fleet/status      coordinator stats (JSON)
package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/harness"
)

// Fingerprint derives the content identity of a point execution from its
// point key and derived seed. The key is the point's whole spec (see
// harness.Spec.PointKey) and the seed pins the random stream, so two units
// with equal fingerprints are guaranteed to produce byte-identical results;
// the shared result cache and cross-client dedupe key on it.
func Fingerprint(key string, seed uint64) string {
	h := sha256.New()
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], seed)
	h.Write(s[:])
	h.Write([]byte(key))
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// WorkUnit is one leased point: its key — which is its spec, see
// harness.ParsePointKey — its seed, and (on re-dispatch) the last checkpoint
// blob a previous lease holder streamed up.
type WorkUnit struct {
	Key         string `json:"key"`
	Fingerprint string `json:"fingerprint"`
	Seed        uint64 `json:"seed"`
	// Checkpoint, when non-empty, is a sealed harness checkpoint of a prior
	// partial execution of this unit; the worker resumes from it.
	Checkpoint []byte `json:"checkpoint,omitempty"`
	// Attempt counts dispatches of this unit (1 = first lease).
	Attempt int `json:"attempt"`
}

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	Worker string `json:"worker"`
}

// RegisterResponse tells the worker the fleet's operating parameters.
type RegisterResponse struct {
	// LeaseTTLSeconds is how long a lease stays valid without a heartbeat.
	LeaseTTLSeconds float64 `json:"lease_ttl_seconds"`
	// PollSeconds is the minimum spacing of empty lease replies: a worker
	// told "nothing pending" asks again no sooner than this after it last
	// asked, and waits this long after a failed request.
	PollSeconds float64 `json:"poll_seconds"`
	// HoldSeconds is how long the coordinator holds a lease request open
	// when nothing is pending before it answers empty (0 from a coordinator
	// that does not hold requests).
	HoldSeconds float64 `json:"hold_seconds,omitempty"`
	// HeartbeatSeconds is how often a busy worker must renew its leases.
	HeartbeatSeconds float64 `json:"heartbeat_seconds"`
	// CheckpointEvery, when positive, asks workers to checkpoint in-progress
	// points every that many cycles and stream the blobs up.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// LeaseRequest asks for the next work unit.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse carries at most one work unit (nil means nothing became
// pending while the request was held; the endpoint then responds 204 with
// no body).
type LeaseResponse struct {
	Unit *WorkUnit `json:"unit,omitempty"`
}

// HeartbeatRequest renews the leases a worker holds and marks it live.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	// Fingerprints of the units the worker believes it holds.
	Fingerprints []string `json:"fingerprints,omitempty"`
}

// HeartbeatResponse lists leases the coordinator no longer recognizes as
// held by this worker (expired and re-dispatched, or already completed);
// the worker should stop wasting cycles on them when convenient.
type HeartbeatResponse struct {
	Drop []string `json:"drop,omitempty"`
}

// ResultUpload delivers a finished point, or a worker-side failure.
type ResultUpload struct {
	Worker      string `json:"worker"`
	Fingerprint string `json:"fingerprint"`
	Key         string `json:"key"`
	// Result is the measured point; nil when Error is set.
	Result *harness.PointResult `json:"result,omitempty"`
	// Error reports a worker-side execution failure for this unit.
	Error string `json:"error,omitempty"`
}

// CheckpointUpload streams a mid-point checkpoint blob to the coordinator.
type CheckpointUpload struct {
	Worker      string `json:"worker"`
	Fingerprint string `json:"fingerprint"`
	// Blob is the sealed harness checkpoint (see internal/snapshot).
	Blob []byte `json:"blob"`
}
