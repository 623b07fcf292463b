package main

import (
	"io"
	"math"
	"regexp"
	"testing"
)

// TestSmoke runs all four workloads, untraced and traced, at toy size, and
// fails unless the emitted workload and metric names are exactly those in
// BENCHMARK.json, well-formed, and every value finite.
func TestSmoke(t *testing.T) {
	mf, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	res, err := run(mf, options{root: "..", seeds: []uint64{1}, seconds: 0.2, trace: -1, out: out, toy: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(mf.Workloads); len(res.Passes) != want {
		t.Fatalf("%d passes, want %d", len(res.Passes), want)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, p := range res.Passes {
		if want := mf.Workloads[i%len(mf.Workloads)].Name; p.Workload != want || !nameRE.MatchString(p.Workload) {
			t.Errorf("pass %d is workload %q, BENCHMARK.json has %q", i, p.Workload, want)
		}
		if !p.Correct {
			t.Errorf("%s trace=%d: %d of %d operations failed: %v", p.Workload, p.Trace, p.Failed, p.Attempted, p.Failures)
		}
		items := mf.EndToEnd
		if p.Trace == 1 {
			items = mf.PerLayer
		}
		if len(p.Metrics) != len(items) {
			t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", p.Workload, p.Trace, len(p.Metrics), len(items))
		}
		for _, it := range items {
			mt, ok := p.Metrics[it.Name]
			switch {
			case !ok:
				t.Errorf("%s trace=%d: metric %s missing", p.Workload, p.Trace, it.Name)
			case !nameRE.MatchString(it.Name):
				t.Errorf("metric name %q is malformed", it.Name)
			case math.IsNaN(mt.Value) || math.IsInf(mt.Value, 0):
				t.Errorf("%s: %s = %v", p.Workload, it.Name, mt.Value)
			case mt.Unit != it.Unit:
				t.Errorf("%s: %s has unit %q, want %q", p.Workload, it.Name, mt.Unit, it.Unit)
			case p.Trace == 0 && mt.Value == 0:
				t.Errorf("%s: end-to-end metric %s is 0", p.Workload, it.Name)
			}
		}
	}
}
