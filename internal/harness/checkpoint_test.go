package harness

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/snapshot"
)

// checkpointSpec is a small but non-trivial sweep: two curves, two loads,
// deadlock-prone DISHA settings, batch means and WFG sampling all active so
// the checkpoint must carry every piece of measurement state.
func checkpointSpec() *Spec {
	return &Spec{
		Name:     "checkpoint-test",
		Topology: "torus-4x4",
		Traffic:  "uniform",
		Algs: []AlgSpec{
			{Algorithm: routing.Disha(0), Recovery: true, Timeout: 6},
			{Algorithm: routing.DOR()},
		},
		Loads:          []float64{0.30, 0.55},
		MsgLen:         8,
		VCs:            2,
		BufferDepth:    2,
		Warmup:         400,
		Measure:        1200,
		Seed:           11,
		WFGSampleEvery: 250,
		Batches:        3,
	}
}

// errSimulatedKill marks the hook-induced crash.
var errSimulatedKill = errors.New("simulated kill after checkpoint")

// TestCheckpointRejectsForeignFile plants a checkpoint whose embedded key
// belongs to a different sweep at the path a point expects; the point must
// fail loudly instead of loading foreign state.
func TestCheckpointRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	opts := RunOptions{
		Parallel:        1,
		CheckpointEvery: 300,
		CheckpointDir:   filepath.Join(dir, "ckpt"),
	}

	// Produce a genuine checkpoint file by killing the first save.
	checkpointSaveHook = func(string, int) error { return errSimulatedKill }
	if _, _, err := checkpointSpec().RunWith(opts); err == nil {
		t.Fatal("killed sweep reported success")
	}
	checkpointSaveHook = nil
	files, err := os.ReadDir(opts.CheckpointDir)
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint produced (err=%v)", err)
	}

	// A spec with a different seed hashes its keys to different paths; force
	// a collision by renaming the existing file onto the other spec's path.
	other := checkpointSpec()
	other.Seed = 999
	// Discover the other spec's expected path via its own killed first save.
	otherDir := filepath.Join(dir, "other")
	checkpointSaveHook = func(string, int) error { return errSimulatedKill }
	oOpts := opts
	oOpts.CheckpointDir = otherDir
	if _, _, err := other.RunWith(oOpts); err == nil {
		t.Fatal("killed sweep reported success")
	}
	checkpointSaveHook = nil
	oFiles, err := os.ReadDir(otherDir)
	if err != nil || len(oFiles) == 0 {
		t.Fatalf("no checkpoint produced for other spec (err=%v)", err)
	}
	src := filepath.Join(opts.CheckpointDir, files[0].Name())
	dst := filepath.Join(otherDir, oFiles[0].Name())
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Resuming the other spec must now hit the key mismatch.
	if _, _, err := other.RunWith(oOpts); err == nil {
		t.Fatal("foreign checkpoint was accepted")
	}
}

// FuzzCheckpointLoad plants arbitrary bytes where a resuming point looks for
// its DISHACKP file. The stated targets:
//
//   - a file that is not the valid checkpoint is an error, never a panic
//     (runPoint turns a panic into a "panic: ..." error; the target fails on
//     that too) and never a silent resume: bytes that differ from the valid
//     file must not finish the point with a nil error;
//   - the valid file resumes, and the resumed point's CSV is byte-identical
//     to the uninterrupted run's.
//
// The seeds cover what the checksum trailer hides from byte-level mutation:
// the payload truncated at every section boundary and re-sealed, re-sealed
// garbage, a valid outer container around a corrupt embedded DISHANET blob,
// and another job's key.
func FuzzCheckpointLoad(f *testing.F) {
	spec := func() *Spec {
		s := checkpointSpec()
		s.Algs, s.Loads = s.Algs[:1], s.Loads[1:]
		s.Warmup, s.Measure, s.WFGSampleEvery = 100, 300, 100
		return s
	}
	want, _, err := spec().RunWith(RunOptions{Parallel: 1})
	if err != nil {
		f.Fatal(err)
	}
	opts := RunOptions{Parallel: 1, CheckpointEvery: 250, CheckpointDir: f.TempDir()}
	// The valid file: the only save of the run, mid-measurement, so batch
	// means, all three collectors and the WFG cursor are populated.
	checkpointSaveHook = func(string, int) error { return errSimulatedKill }
	_, _, err = spec().RunWith(opts)
	checkpointSaveHook = nil
	if err == nil {
		f.Fatal("killed point reported success")
	}
	files, err := os.ReadDir(opts.CheckpointDir)
	if err != nil || len(files) != 1 {
		f.Fatalf("want one checkpoint file, have %d (err=%v)", len(files), err)
	}
	path := filepath.Join(opts.CheckpointDir, files[0].Name())
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	payload, err := snapshot.Open(valid, checkpointMagic, checkpointVersion)
	if err != nil {
		f.Fatal(err)
	}
	seal := func(p []byte) []byte { return snapshot.Seal(checkpointMagic, checkpointVersion, p) }

	// Section boundaries, found by reading the sections back: key, cursor,
	// start counters, batch means, three sample sets, network blob.
	c := snapshot.NewDecoder(payload)
	var (
		key     string
		cursor  pointProgress
		samples []float64
		blob    []byte
	)
	boundary := func() { f.Add(seal(payload[:len(payload)-c.Remaining()])) }
	c.String(&key)
	boundary()
	snapshot.Int(c, &cursor.warmupRan)
	snapshot.Int(c, &cursor.ran)
	snapshot.Int(c, &cursor.batch)
	c.Bool(&cursor.warmed)
	snapshot.Int(c, &cursor.nextWFG)
	c.I64(&cursor.wfgSamples)
	c.I64(&cursor.trueDeadlocks)
	boundary()
	cursor.startCounters.Walk(c)
	boundary()
	for i := 0; i < 4; i++ {
		c.F64s(&samples)
		boundary()
	}
	blobAt := len(payload) - c.Remaining() + 8
	c.Blob(&blob)
	if c.Err() != nil || c.Remaining() != 0 || cursor.ran == 0 || len(samples) == 0 {
		f.Fatalf("seed checkpoint did not parse as the documented layout: %v", c.Err())
	}

	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	f.Add(seal([]byte("garbage that happens to be sealed")))
	f.Add(seal(append(bytes.Clone(payload), 0)))
	corruptBlob := bytes.Clone(payload)
	corruptBlob[blobAt+len(blob)/2] ^= 0x40
	f.Add(seal(corruptBlob))
	foreign := snapshot.Codec{}
	otherKey := key + "-other"
	foreign.String(&otherKey)
	f.Add(seal(append(foreign.Bytes(), payload[8+len(key):]...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, report, err := spec().RunWith(opts)
		for _, fail := range report.Failures {
			if strings.Contains(fail.Err, "panic:") {
				t.Fatalf("checkpoint load panicked: %s", fail.Err)
			}
		}
		switch {
		case !bytes.Equal(data, valid):
			if err == nil {
				t.Fatal("a point resumed from bytes that are not the valid checkpoint")
			}
		case err != nil:
			t.Fatalf("valid checkpoint rejected: %v", err)
		case got.CSV() != want.CSV():
			t.Fatalf("resumed CSV differs from uninterrupted run:\n--- uninterrupted\n%s--- resumed\n%s", want.CSV(), got.CSV())
		}
	})
}
