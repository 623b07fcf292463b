package harness

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// checkpointSpec is a small but non-trivial sweep: two curves, two loads,
// deadlock-prone DISHA settings, batch means and WFG sampling all active so
// the checkpoint must carry every piece of measurement state.
func checkpointSpec() *Spec {
	return &Spec{
		Name:    "checkpoint-test",
		Topo:    func() topology.Graph { return topology.MustTorus(4, 4) },
		Pattern: func(t topology.Graph) (traffic.Pattern, error) { return traffic.Uniform(t), nil },
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

// TestCheckpointResumeIdenticalCSV is the acceptance scenario from the
// issue: a sweep is killed mid-point right after a checkpoint lands, the
// sweep is re-run against the same journal and checkpoint directory, and the
// final CSV must be byte-identical to an uninterrupted run's.
func TestCheckpointResumeIdenticalCSV(t *testing.T) {
	want, _, err := checkpointSpec().RunWith(RunOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opts := RunOptions{
		Parallel:        1,
		Journal:         filepath.Join(dir, "journal.jsonl"),
		CheckpointEvery: 300,
		CheckpointDir:   filepath.Join(dir, "ckpt"),
	}

	// First attempt: die after the third checkpoint write — mid-measurement
	// of some point, with earlier points already in the journal.
	saves := 0
	checkpointSaveHook = func(key string, cycle int) error {
		saves++
		if saves == 3 {
			return errSimulatedKill
		}
		return nil
	}
	defer func() { checkpointSaveHook = nil }()
	if _, _, err := checkpointSpec().RunWith(opts); err == nil {
		t.Fatal("killed sweep reported success")
	}
	files, err := os.ReadDir(opts.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no checkpoint file survived the kill")
	}

	// Second attempt: resume. The interrupted point must restart from its
	// checkpoint (counted as resumed loads), finish, and match the
	// uninterrupted CSV byte for byte.
	checkpointSaveHook = nil
	got, _, err := checkpointSpec().RunWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.CSV() != want.CSV() {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n--- uninterrupted\n%s--- resumed\n%s", want.CSV(), got.CSV())
	}

	// Completed points must clean their checkpoints up.
	files, err = os.ReadDir(opts.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("%d checkpoint files left after a successful sweep", len(files))
	}
}

// TestCheckpointKillDuringWarmup kills during the warm-up phase of the very
// first point, where measurement state is still empty — the cursor must
// still resume correctly into warm-up and produce identical results.
func TestCheckpointKillDuringWarmup(t *testing.T) {
	want, _, err := checkpointSpec().RunWith(RunOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opts := RunOptions{
		Parallel:        1,
		Journal:         filepath.Join(dir, "journal.jsonl"),
		CheckpointEvery: 150, // first save lands at cycle 150 < Warmup 400
		CheckpointDir:   filepath.Join(dir, "ckpt"),
	}
	killed := false
	checkpointSaveHook = func(key string, cycle int) error {
		if !killed && cycle < 400 {
			killed = true
			return errSimulatedKill
		}
		return nil
	}
	defer func() { checkpointSaveHook = nil }()
	if _, _, err := checkpointSpec().RunWith(opts); err == nil {
		t.Fatal("killed sweep reported success")
	}
	if !killed {
		t.Fatal("kill hook never fired during warm-up")
	}
	checkpointSaveHook = nil
	got, _, err := checkpointSpec().RunWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.CSV() != want.CSV() {
		t.Fatal("resumed-from-warmup CSV differs from uninterrupted run")
	}
}

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
