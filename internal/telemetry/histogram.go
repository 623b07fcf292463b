package telemetry

import (
	"fmt"
	"sort"
)

// Histogram is a fixed-bucket distribution metric: observations fall into
// the first bucket whose upper bound is >= the value (Prometheus `le`
// semantics), with an implicit +Inf bucket catching the rest. Like Counter
// and Gauge it is single-writer: all Observe calls must come from the one
// goroutine that owns the instrumented state (the simulation loop); the
// rendered exposition crosses goroutines only through Registry.Publish.
//
// Histograms are mergeable: two histograms with identical bounds can be
// combined with Merge, which is how measurements taken by several owners
// aggregate into one distribution — each owner observes into its own
// histogram and one goroutine merges them (the coordinator's per-unit queue
// waits, for example).
//
// A nil *Histogram is safe: Observe is a no-op and reads return zeros, so
// instrumentation sites need no enabled-checks of their own.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []uint64  // len(bounds)+1, last entry is the +Inf bucket
	sum    float64
	count  uint64
}

// NewHistogram builds a histogram over the given bucket upper bounds. The
// bounds must be non-empty and strictly ascending; it panics otherwise
// (bucket layout is a programming decision, not runtime input). The slice
// is copied.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not strictly ascending at index %d (%g <= %g)",
				i, bounds[i], bounds[i-1]))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// ExponentialBuckets returns count upper bounds starting at start and
// multiplying by factor: start, start*factor, ... It panics on start <= 0,
// factor <= 1 or count < 1.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("telemetry: ExponentialBuckets needs start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns count upper bounds starting at start and stepping
// by width: start, start+width, ... It panics on width <= 0 or count < 1.
func LinearBuckets(start, width float64, count int) []float64 {
	if width <= 0 || count < 1 {
		panic("telemetry: LinearBuckets needs width > 0, count >= 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// sort.SearchFloat64s finds the first bound >= v for `le` (inclusive
	// upper bound) semantics: a value equal to a bound lands in that bound's
	// bucket, matching the Prometheus text-format contract.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Bounds returns the bucket upper bounds (without the implicit +Inf).
// Callers must not mutate the returned slice.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns the per-bucket (non-cumulative) observation counts;
// the last entry is the +Inf bucket. Callers must not mutate the result.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	return h.counts
}

// Merge adds other's observations into h. Both histograms must have
// identical bucket bounds; Merge returns an error otherwise and leaves h
// unchanged. Merging a nil or empty other is a no-op.
func (h *Histogram) Merge(other *Histogram) error {
	if h == nil || other == nil || other.count == 0 {
		return nil
	}
	if len(h.bounds) != len(other.bounds) {
		return fmt.Errorf("telemetry: merging histograms with %d vs %d buckets", len(h.bounds), len(other.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != other.bounds[i] {
			return fmt.Errorf("telemetry: merging histograms with different bound %d: %g vs %g",
				i, h.bounds[i], other.bounds[i])
		}
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.sum += other.sum
	h.count += other.count
	return nil
}

// Reset clears all observations, keeping the bucket layout. No-op on nil.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.sum, h.count = 0, 0
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) by linear
// interpolation within the bucket containing it, the same estimate
// Prometheus's histogram_quantile computes. It returns 0 with no
// observations; values in the +Inf bucket clamp to the largest finite
// bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	cum := 0.0
	for i, c := range h.counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(h.bounds) {
			return h.bounds[len(h.bounds)-1] // +Inf bucket: clamp
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}
