package telemetry

import "testing"

func TestRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	got := map[string]float64{}
	for _, s := range r.Gather() {
		got[s.Name] = s.Value
	}
	if v, ok := got["go_goroutines"]; !ok || v < 1 {
		t.Errorf("go_goroutines = %g (present=%v), want >= 1", v, ok)
	}
	if v, ok := got["go_heap_alloc_bytes"]; !ok || v <= 0 {
		t.Errorf("go_heap_alloc_bytes = %g (present=%v), want > 0", v, ok)
	}
	if _, ok := got["go_gc_pause_total_seconds"]; !ok {
		t.Error("go_gc_pause_total_seconds not registered")
	}
	// Nil-safe.
	RegisterRuntimeMetrics(nil)
}

func TestRuntimeProbes(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	s := NewSampler(r, 4, 8)
	s.Track("go_goroutines")
	s.Sample(0)
	found := false
	for _, ts := range s.Series() {
		if ts.Name != "go_goroutines" {
			continue
		}
		if _, values := ts.Points(); len(values) == 1 && values[0] >= 1 {
			found = true
		}
	}
	if !found {
		t.Error("sampler did not record a go_goroutines sample")
	}
}
