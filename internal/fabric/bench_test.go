package fabric

import (
	"testing"

	"repro/internal/harness"
)

// BenchmarkCoordinatorExecute times Execute's own per-point cost with no
// fleet attached: "hit" serves a cached point; "miss" runs a new point
// through a local closure that returns at once, so what it times is the
// fingerprint, the unit table, the local goroutine, settling and the cache
// write.
func BenchmarkCoordinatorExecute(b *testing.B) {
	local := func() (harness.PointResult, error) { return resultFor(1), nil }
	b.Run("hit", func(b *testing.B) {
		c := NewCoordinator(CoordinatorOptions{})
		defer c.Close()
		if _, err := c.Execute(nil, task(0), local); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Execute(nil, task(0), local); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		c := NewCoordinator(CoordinatorOptions{})
		defer c.Close()
		tasks := make([]harness.PointTask, b.N)
		for i := range tasks {
			tasks[i] = task(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for _, tk := range tasks {
			if _, err := c.Execute(nil, tk, local); err != nil {
				b.Fatal(err)
			}
		}
	})
}
