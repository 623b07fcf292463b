package telemetry

import (
	"bytes"
	"testing"
)

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
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	s := NewSampler(r, w)
	s.Track("go_goroutines")
	s.Sample(0)
	if got := samples(t, w, &buf); len(got) != 1 || got[0].Name != "go_goroutines" || got[0].Value < 1 {
		t.Errorf("sampler wrote %+v, want one go_goroutines sample >= 1", got)
	}
}
