package harness

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/snapshot"
)

// Point-checkpoint container identity (the payload embeds a network
// snapshot, which carries its own magic and version).
const (
	checkpointMagic = "DISHACKP"
	// Version 2: Counters gained the reconfiguration loss fields
	// (PacketsLost, FlitsLost, PacketsUnroutable) and the embedded network
	// snapshot moved to its version 2 (reconfiguration log).
	checkpointVersion = 2
)

// checkpointSaveHook, when non-nil, runs after every successful checkpoint
// write; a non-nil return aborts the point with that error. Tests use it to
// simulate a crash immediately after a checkpoint lands on disk.
var checkpointSaveHook func(key string, cycle int) error

// pointProgress is the resumable cursor of one runPoint execution: how far
// warm-up and measurement have advanced, the batch-means accumulator, and
// the WFG sampling state. Together with the three latency collectors and
// the network snapshot it is everything a resumed point needs to finish
// with byte-identical results.
type pointProgress struct {
	warmupRan     int
	ran           int // measurement cycles completed
	batch         int // current batch index
	warmed        bool
	nextWFG       int
	wfgSamples    int64
	trueDeadlocks int64
	startCounters network.Counters
	batchMeans    []float64
}

// checkpointer persists one point's progress to a single atomic file.
// A nil *checkpointer disables checkpointing throughout runPoint.
type checkpointer struct {
	key    string
	path   string
	every  int
	next   int // global cycle (warm-up + measurement) of the next save
	onSave func(data []byte) error
}

// CheckpointPath returns the checkpoint file a given job key maps to inside
// dir. Exported so a fleet worker resuming a re-dispatched lease can place
// the coordinator-supplied checkpoint blob where RunPoint will find it.
func CheckpointPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, fmt.Sprintf("point-%x.ckpt", sum[:8]))
}

// newCheckpointer builds the checkpointer of one point, or nil when the
// options do not enable checkpointing; it creates the directory. The file
// name hashes the key, which embeds the full spec configuration: a stale
// checkpoint from a different sweep can never be picked up by accident (and
// the key stored inside the file is verified on load as a second line of
// defense).
func newCheckpointer(po PointOptions) (*checkpointer, error) {
	if po.CheckpointEvery <= 0 || po.CheckpointDir == "" {
		return nil, nil
	}
	if po.Key == "" {
		return nil, fmt.Errorf("harness: checkpointing requires PointOptions.Key")
	}
	if err := os.MkdirAll(po.CheckpointDir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: checkpoint dir: %w", err)
	}
	return &checkpointer{
		key:    po.Key,
		path:   CheckpointPath(po.CheckpointDir, po.Key),
		every:  po.CheckpointEvery,
		onSave: po.OnCheckpoint,
	}, nil
}

// arm positions the next save strictly after the current global cycle.
func (ck *checkpointer) arm(globalCycle int) {
	ck.next = (globalCycle/ck.every + 1) * ck.every
}

// clamp limits a step so it never runs past the next checkpoint boundary.
func (ck *checkpointer) clamp(step, globalCycle int) int {
	if ck.next-globalCycle < step {
		return ck.next - globalCycle
	}
	return step
}

// due reports whether the point has just reached the checkpoint boundary.
func (ck *checkpointer) due(globalCycle int) bool { return globalCycle == ck.next }

// save atomically persists the point's complete state. The layout is
// key, progress cursor, start-of-measurement counters, batch means, the
// three collectors' raw samples, then the embedded network snapshot.
func (ck *checkpointer) save(st *pointProgress, age, netLat, batch *metrics.Collector, net *network.Network) error {
	var w snapshot.Writer
	w.String(ck.key)
	w.Int(st.warmupRan)
	w.Int(st.ran)
	w.Int(st.batch)
	w.Bool(st.warmed)
	w.Int(st.nextWFG)
	w.I64(st.wfgSamples)
	w.I64(st.trueDeadlocks)
	network.EncodeCounters(&w, st.startCounters)
	w.F64s(st.batchMeans)
	w.F64s(age.Samples())
	w.F64s(netLat.Samples())
	w.F64s(batch.Samples())
	var nb bytes.Buffer
	if err := net.Snapshot(&nb); err != nil {
		return fmt.Errorf("harness: checkpoint %s: %w", ck.key, err)
	}
	w.Blob(nb.Bytes())
	data := snapshot.Seal(checkpointMagic, checkpointVersion, w.Bytes())
	if err := snapshot.WriteFileAtomic(ck.path, data); err != nil {
		return fmt.Errorf("harness: checkpoint %s: %w", ck.key, err)
	}
	ck.next += ck.every
	if ck.onSave != nil {
		if err := ck.onSave(data); err != nil {
			return fmt.Errorf("harness: checkpoint hook %s: %w", ck.key, err)
		}
	}
	if checkpointSaveHook != nil {
		return checkpointSaveHook(ck.key, st.warmupRan+st.ran)
	}
	return nil
}

// load restores a previously saved checkpoint into st, the collectors and
// the freshly built network. It returns false with a nil error when no
// checkpoint exists (a normal cold start); any unreadable, corrupt or
// mismatched file is an error — silently restarting would hide data loss.
func (ck *checkpointer) load(st *pointProgress, age, netLat, batch *metrics.Collector, net *network.Network) (bool, error) {
	data, err := os.ReadFile(ck.path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("harness: read checkpoint: %w", err)
	}
	payload, err := snapshot.Open(data, checkpointMagic, checkpointVersion)
	if err != nil {
		return false, fmt.Errorf("harness: checkpoint %s: %w", ck.path, err)
	}
	r := snapshot.NewReader(payload)
	r.ExpectString(ck.key, "checkpoint job key")
	st.warmupRan = r.Int()
	st.ran = r.Int()
	st.batch = r.Int()
	st.warmed = r.Bool()
	st.nextWFG = r.Int()
	st.wfgSamples = r.I64()
	st.trueDeadlocks = r.I64()
	st.startCounters = network.DecodeCounters(r)
	st.batchMeans = r.F64s()
	age.RestoreSamples(r.F64s())
	netLat.RestoreSamples(r.F64s())
	batch.RestoreSamples(r.F64s())
	blob := r.Blob()
	if err := r.Err(); err != nil {
		return false, err
	}
	if r.Remaining() != 0 {
		return false, fmt.Errorf("harness: checkpoint %s: %d bytes of trailing garbage", ck.path, r.Remaining())
	}
	if err := net.Restore(bytes.NewReader(blob)); err != nil {
		return false, fmt.Errorf("harness: checkpoint %s: %w", ck.path, err)
	}
	return true, nil
}

// finish removes the checkpoint after the point completes: the result now
// lives in the engine journal, and a stale file must not shadow a future
// re-run with a fresh network.
func (ck *checkpointer) finish() {
	os.Remove(ck.path)
}
