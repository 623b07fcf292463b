package engine

import "testing"

// What harness.RunWith does with the seeds — determinism across Parallel, the
// drain, single-attempt failures, panics, duplicate keys, progress and
// metrics — is pinned in sweep_test.go; how it balances its report, in
// report_test.go.

func TestSeedForIsIdentityKeyed(t *testing.T) {
	if SeedFor(1, "a") != SeedFor(1, "a") {
		t.Fatal("SeedFor must be deterministic")
	}
	if SeedFor(1, "a") == SeedFor(1, "b") {
		t.Fatal("distinct keys must get distinct seeds")
	}
	if SeedFor(1, "a") == SeedFor(2, "a") {
		t.Fatal("distinct base seeds must get distinct seeds")
	}
	// Zero base stays usable (the harness default seed may be anything).
	if SeedFor(0, "a") == SeedFor(0, "b") {
		t.Fatal("zero base must still separate keys")
	}
}

// TestSeedForPinned: the values themselves. A journal serves a record only
// under the seed it was written with, so a changed value here orphans every
// journal an older build wrote.
func TestSeedForPinned(t *testing.T) {
	// What Spec.PointKey gives for figure 4's first point at small scale,
	// 50 + 100 cycles, seed 5.
	const specKey = `spec/1:{"Name":"fig4-uniform","Topology":"torus-8x8","Traffic":"uniform",` +
		`"Algs":[{"Label":"disha-m0","Algorithm":"disha-m0","Selection":"random","Recovery":true,"Timeout":8}],` +
		`"Loads":[0.2],"MsgLen":16,"VCs":4,"BufferDepth":2,"Alloc":0,"Warmup":50,"Measure":100,"Seed":5,` +
		`"TokenHops":4,"WFGSampleEvery":0,"Batches":5}#0`
	for _, c := range []struct {
		base uint64
		key  string
		want uint64
	}{
		{0, "", 0x21fa69a58f3d62f5},
		{1, "a", 0xe65d27ff6ad396c7},
		{0xdeadbeef, "fig4/dor@0.2#0", 0x42085e978da36c1b},
		{5, specKey, 0x19e5abb5c16e68af},
	} {
		if got := SeedFor(c.base, c.key); got != c.want {
			t.Errorf("SeedFor(%#x, %.40q) = %#x, want %#x", c.base, c.key, got, c.want)
		}
	}
}
