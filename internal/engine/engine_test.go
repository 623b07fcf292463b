package engine

import (
	"strings"
	"testing"
	"time"
)

// What RunWith does with this vocabulary — determinism across Parallel, the
// drain, single-attempt failures, panics, duplicate keys, progress and metrics — is pinned in
// sweep_test.go, over harness.RunWith.

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

// TestFoldBalances: failures come out in batch order whatever order they
// settled in, and what never settled is what a drain withdrew.
func TestFoldBalances(t *testing.T) {
	f := Begin(5, 2, nil)
	f.Settle(3, "d", "boom")
	f.Settle(0, "a", "")
	if st := f.Settle(1, "b", "bang"); st.Done != 1 || st.Failed != 2 || st.Total != 5 {
		t.Fatalf("status after three settles: %+v", st)
	}
	r := f.End()
	if r.Completed != 1 || r.Aborted != 2 || r.Workers != 2 || r.Completed+r.Aborted+r.Failed() != r.Total {
		t.Fatalf("report does not balance: %+v", r)
	}
	if len(r.Failures) != 2 || r.Failures[0] != (Failure{Key: "b", Err: "bang"}) || r.Failures[1].Key != "d" {
		t.Fatalf("failures not in batch order: %+v", r.Failures)
	}
}

func TestReportString(t *testing.T) {
	r := &Report{Total: 10, Completed: 8, Workers: 4,
		Failures: []Failure{{Key: "x"}, {Key: "y"}}, Elapsed: 1500 * time.Millisecond}
	s := r.String()
	for _, want := range []string{"8/10", "(4 workers)", "2 FAILED"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
}
