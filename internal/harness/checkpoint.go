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

// walk is the DISHACKP payload, written once for both directions: job key
// (a guard: a foreign file fails here), progress cursor, start-of-measurement
// counters, batch means, the three collectors' raw samples, then the
// embedded network snapshot.
func (ck *checkpointer) walk(c *snapshot.Codec, st *pointProgress, age, netLat, batch *metrics.Collector, netBlob *[]byte) {
	c.ExpectString(ck.key, "checkpoint job key")
	snapshot.Int(c, &st.warmupRan)
	snapshot.Int(c, &st.ran)
	snapshot.Int(c, &st.batch)
	c.Bool(&st.warmed)
	snapshot.Int(c, &st.nextWFG)
	c.I64(&st.wfgSamples)
	c.I64(&st.trueDeadlocks)
	st.startCounters.Walk(c)
	c.F64s(&st.batchMeans)
	for _, col := range []*metrics.Collector{age, netLat, batch} {
		samples := col.Samples()
		c.F64s(&samples)
		if c.Decoding() {
			col.RestoreSamples(samples)
		}
	}
	c.Blob(netBlob)
}

// save atomically persists the point's complete state.
func (ck *checkpointer) save(st *pointProgress, age, netLat, batch *metrics.Collector, net *network.Network) error {
	var nb bytes.Buffer
	if err := net.Snapshot(&nb); err != nil {
		return fmt.Errorf("harness: checkpoint %s: %w", ck.key, err)
	}
	var c snapshot.Codec
	blob := nb.Bytes()
	ck.walk(&c, st, age, netLat, batch, &blob)
	data := snapshot.Seal(checkpointMagic, checkpointVersion, c.Bytes())
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
	c := snapshot.NewDecoder(payload)
	var blob []byte
	ck.walk(c, st, age, netLat, batch, &blob)
	if err := c.Err(); err != nil {
		return false, err
	}
	if c.Remaining() != 0 {
		return false, fmt.Errorf("harness: checkpoint %s: %d bytes of trailing garbage", ck.path, c.Remaining())
	}
	if err := net.Restore(bytes.NewReader(blob)); err != nil {
		return false, fmt.Errorf("harness: checkpoint %s: %w", ck.path, err)
	}
	return true, nil
}

// finish removes the checkpoint after the point completes: the result now
// belongs to whoever asked for the point (a coordinator's store keeps it),
// and a stale file must not shadow a future re-run with a fresh network.
func (ck *checkpointer) finish() {
	os.Remove(ck.path)
}
