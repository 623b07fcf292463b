package telemetry

import "runtime"

// RegisterRuntimeMetrics adds Go process gauges — goroutine count, heap
// bytes in use and cumulative GC pause time — to the registry as pull
// callbacks. They describe the host process, not the simulation, so they
// carry no determinism obligations; runtime.ReadMemStats is evaluated once
// per render/sample, never on the simulation hot path.
func RegisterRuntimeMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("go_goroutines",
		"Number of goroutines that currently exist.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("go_heap_alloc_bytes",
		"Bytes of allocated heap objects.", nil,
		func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.HeapAlloc)
		})
	reg.GaugeFunc("go_gc_pause_total_seconds",
		"Cumulative stop-the-world GC pause time.", nil,
		func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.PauseTotalNs) / 1e9
		})
}
