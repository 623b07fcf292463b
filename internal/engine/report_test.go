package engine_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// TestFoldBalances: failures come out in batch order whatever order they
// settled in, an error with an empty message is a failure too, and what
// never settled is what a drain withdrew.
func TestFoldBalances(t *testing.T) {
	spec := stubSpec(t, 3)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	var keys []string // batch order
	for _, alg := range spec.Algs {
		for _, load := range spec.Loads {
			keys = append(keys, spec.PointKey(alg.Label, load, 0))
		}
	}
	// Points 3, 1 and 0 settle in that order, each once the one before it
	// has; then Stop closes and every other point is withdrawn unstarted.
	order := []string{keys[3], keys[1], keys[0]}
	turn := map[string]chan struct{}{}
	for _, key := range order {
		turn[key] = make(chan struct{})
	}
	stop := make(chan struct{})
	close(turn[order[0]])
	var last harness.Status // Status runs on RunWith's goroutine
	_, r, err := spec.RunWith(harness.RunOptions{
		Parallel: 2,
		Stop:     stop,
		PointRunner: func(stop <-chan struct{}, pt harness.PointTask, _ func() (harness.PointResult, error)) (harness.PointResult, error) {
			gate, ok := turn[pt.Key]
			if !ok {
				<-stop
				return harness.PointResult{}, harness.ErrDrained
			}
			<-gate
			switch pt.Key {
			case keys[3]:
				return harness.PointResult{}, errors.New("")
			case keys[1]:
				return harness.PointResult{}, errors.New("bang")
			}
			return purePoint(pt.Seed)
		},
		Status: func(st harness.Status) {
			last = st
			if n := st.Done + st.Failed; n < len(order) {
				close(turn[order[n]])
			} else {
				close(stop)
			}
		},
	})
	if err == nil {
		t.Fatal("a sweep with failed points returned no error")
	}
	if last.Done != 1 || last.Failed != 2 || last.Total != 24 {
		t.Fatalf("status after three settles: %+v", last)
	}
	if r.Completed != 1 || r.Aborted != 21 || r.Workers != 2 || r.Completed+r.Aborted+r.Failed() != r.Total {
		t.Fatalf("report does not balance: %+v", r)
	}
	if len(r.Failures) != 2 || r.Failures[0] != (harness.Failure{Key: keys[1], Err: "bang"}) ||
		r.Failures[1] != (harness.Failure{Key: keys[3], Err: ""}) {
		t.Fatalf("failures not in batch order: %+v", r.Failures)
	}
}

func TestReportString(t *testing.T) {
	r := &harness.Report{Total: 10, Completed: 8, Workers: 4,
		Failures: []harness.Failure{{Key: "x"}, {Key: "y"}}, Elapsed: 1500 * time.Millisecond}
	s := r.String()
	for _, want := range []string{"8/10", "(4 workers)", "2 FAILED"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
}
