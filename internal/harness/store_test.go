package harness_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/harness"
)

// stored is one disha-sweep -journal process: opts with every point going
// through a fresh coordinator that has opened the results file at path.
func stored(t *testing.T, opts harness.RunOptions, path string) (harness.RunOptions, *fabric.Coordinator) {
	t.Helper()
	c := fabric.NewCoordinator(fabric.CoordinatorOptions{})
	t.Cleanup(c.Close)
	if _, err := c.OpenStore(path); err != nil {
		t.Fatal(err)
	}
	opts.PointRunner = c.Execute // no workers: every point it does not hold runs here
	return opts, c
}

// TestStoreServesOnlyTheSameSpec: a result store serves a point to nothing but
// that point. Three variants of a stored Figure 4 point — differing only in
// TokenHops or Batches, which the key used to leave out, or in the topology —
// are computed, not served; and a file whose only record is that point under
// its key in the previous encoding serves nothing either.
func TestStoreServesOnlyTheSameSpec(t *testing.T) {
	point := func() *harness.Spec {
		spec, err := harness.SpecFor("4", "small", 50, 100, 0, []float64{0.2})
		if err != nil {
			t.Fatal(err)
		}
		spec.Algs = spec.Algs[:1]
		return spec
	}
	path := filepath.Join(t.TempDir(), "results.jsonl")
	opts, c := stored(t, harness.RunOptions{}, path)
	if _, _, err := point().RunWith(opts); err != nil || c.Stats().LocalRuns != 1 {
		t.Fatalf("storing the point: %v, %+v", err, c.Stats())
	}
	c.Close()

	for name, vary := range map[string]func(*harness.Spec){
		"TokenHops 1":  func(s *harness.Spec) { s.TokenHops = 1 },
		"Batches 2":    func(s *harness.Spec) { s.Batches = 2 },
		"mesh-8x8":     func(s *harness.Spec) { s.Topology = "mesh-8x8" },
		"no variation": func(*harness.Spec) {},
	} {
		variant := point()
		vary(variant)
		fresh, _, err := variant.RunWith(harness.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opts, c := stored(t, harness.RunOptions{}, path)
		got, _, err := variant.RunWith(opts)
		served := name == "no variation"
		if st := c.Stats(); err != nil || got.CSV() != fresh.CSV() || (st.CacheHits == 1) != served || st.CacheHits+st.LocalRuns != 1 {
			t.Errorf("%s: err %v, %+v; want served %v and the CSV of a fresh run", name, err, st, served)
		}
		c.Close()
	}

	// The same point as the previous encoding keyed it, with the seed that key
	// derived: a record the file may well hold, and one nothing may serve.
	spec := point()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	old := fmt.Sprintf("%s|seed=%x|w=%d|m=%d|msg=%d|vc=%d|bd=%d/%s@%.4f#%d", spec.Name, spec.Seed,
		spec.Warmup, spec.Measure, spec.MsgLen, spec.VCs, spec.BufferDepth, spec.Algs[0].Label, spec.Loads[0], 0)
	oldPath := filepath.Join(t.TempDir(), "results.jsonl")
	rec := fmt.Sprintf(`{"key":%q,"seed":%d,"value":{"Load":0.2,"MeanLatency":1}}`+"\n", old, engine.SeedFor(spec.Seed, old))
	if err := os.WriteFile(oldPath, []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	opts, c = stored(t, harness.RunOptions{}, oldPath)
	if _, _, err := point().RunWith(opts); err != nil || c.Stats().CacheHits != 0 || c.Stats().LocalRuns != 1 {
		t.Fatalf("a previous-encoding record was served: %v, %+v", err, c.Stats())
	}
}

// TestResumeFromJournalEqualsUninterrupted checks the store/resume path end
// to end at the harness level: a second sweep over the same results file
// renders the same bytes as the first and runs no point.
func TestResumeFromJournalEqualsUninterrupted(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.journal.jsonl")
	opts, c1 := stored(t, harness.RunOptions{Parallel: 4}, journal)
	full, rep, err := harness.TinySpec().RunWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()
	opts, c2 := stored(t, harness.RunOptions{Parallel: 4}, journal)
	resumed, _, err := harness.TinySpec().RunWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.CacheHits != int64(rep.Total) || st.LocalRuns != 0 {
		t.Fatalf("second sweep: %d of %d points served from the store, %d run", st.CacheHits, rep.Total, st.LocalRuns)
	}
	if full.CSV() != resumed.CSV() {
		t.Fatalf("resumed CSV diverged:\n--- full ---\n%s--- resumed ---\n%s", full.CSV(), resumed.CSV())
	}
}

// TestCheckpointResumeIdenticalCSV is the acceptance scenario of the
// checkpointing issue: a sweep is killed mid-point right after a checkpoint
// lands, the sweep is re-run against the same results file and checkpoint
// directory, and the final CSV must be byte-identical to an uninterrupted
// run's.
func TestCheckpointResumeIdenticalCSV(t *testing.T) {
	want, _, err := harness.CheckpointSpec().RunWith(harness.RunOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	base := harness.RunOptions{
		Parallel:        1,
		CheckpointEvery: 300,
		CheckpointDir:   filepath.Join(dir, "ckpt"),
	}

	// First attempt: die after the third checkpoint write — mid-measurement
	// of some point, with earlier points already in the store.
	saves := 0
	harness.SetCheckpointSaveHook(func(key string, cycle int) error {
		saves++
		if saves == 3 {
			return harness.ErrSimulatedKill
		}
		return nil
	})
	defer harness.SetCheckpointSaveHook(nil)
	opts, c1 := stored(t, base, journal)
	if _, _, err := harness.CheckpointSpec().RunWith(opts); err == nil {
		t.Fatal("killed sweep reported success")
	}
	c1.Close()
	files, err := os.ReadDir(base.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no checkpoint file survived the kill")
	}

	// Second attempt: resume. Stored points are served, the interrupted
	// point restarts from its checkpoint, finishes, and the CSV matches the
	// uninterrupted one byte for byte.
	harness.SetCheckpointSaveHook(nil)
	opts, c2 := stored(t, base, journal)
	got, rep, err := harness.CheckpointSpec().RunWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.CacheHits == 0 || st.CacheHits+st.LocalRuns != int64(rep.Total) {
		t.Fatalf("resume served %d and ran %d of %d points; want the finished ones served", st.CacheHits, st.LocalRuns, rep.Total)
	}
	if got.CSV() != want.CSV() {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n--- uninterrupted\n%s--- resumed\n%s", want.CSV(), got.CSV())
	}

	// Completed points must clean their checkpoints up.
	files, err = os.ReadDir(base.CheckpointDir)
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
	want, _, err := harness.CheckpointSpec().RunWith(harness.RunOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	base := harness.RunOptions{
		Parallel:        1,
		CheckpointEvery: 150, // first save lands at cycle 150 < Warmup 400
		CheckpointDir:   filepath.Join(dir, "ckpt"),
	}
	killed := false
	harness.SetCheckpointSaveHook(func(key string, cycle int) error {
		if !killed && cycle < 400 {
			killed = true
			return harness.ErrSimulatedKill
		}
		return nil
	})
	defer harness.SetCheckpointSaveHook(nil)
	opts, c1 := stored(t, base, journal)
	if _, _, err := harness.CheckpointSpec().RunWith(opts); err == nil {
		t.Fatal("killed sweep reported success")
	}
	c1.Close()
	if !killed {
		t.Fatal("kill hook never fired during warm-up")
	}
	harness.SetCheckpointSaveHook(nil)
	opts, _ = stored(t, base, journal)
	got, _, err := harness.CheckpointSpec().RunWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.CSV() != want.CSV() {
		t.Fatal("resumed-from-warmup CSV differs from uninterrupted run")
	}
}
