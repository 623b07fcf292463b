// Package metrics provides the measurement primitives the experiment
// harness uses: latency sample collection with summary statistics, and the
// mean and 95% confidence interval of a set of samples.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Collector accumulates scalar samples (latencies in cycles, typically).
type Collector struct {
	samples []float64
	sorted  bool
}

// Add appends one sample.
func (c *Collector) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// Count returns the number of samples collected.
func (c *Collector) Count() int { return len(c.samples) }

// Reset discards all samples.
func (c *Collector) Reset() {
	c.samples = c.samples[:0]
	c.sorted = false
}

// Mean returns the sample mean, or 0 with no samples.
func (c *Collector) Mean() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range c.samples {
		sum += v
	}
	return sum / float64(len(c.samples))
}

// StdDev returns the population standard deviation.
func (c *Collector) StdDev() float64 {
	n := len(c.samples)
	if n == 0 {
		return 0
	}
	m := c.Mean()
	ss := 0.0
	for _, v := range c.samples {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Min returns the smallest sample, or 0 with no samples.
func (c *Collector) Min() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	return c.samples[0]
}

// Max returns the largest sample, or 0 with no samples.
func (c *Collector) Max() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	return c.samples[len(c.samples)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on the sorted samples.
func (c *Collector) Percentile(p float64) float64 {
	n := len(c.samples)
	if n == 0 {
		return 0
	}
	c.ensureSorted()
	if p <= 0 {
		return c.samples[0]
	}
	if p >= 100 {
		return c.samples[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return c.samples[rank-1]
}

func (c *Collector) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Summary is a fixed snapshot of a Collector.
type Summary struct {
	Count         int
	Mean, StdDev  float64
	Min, Max      float64
	P50, P95, P99 float64
}

// Summarize computes all summary statistics at once.
func (c *Collector) Summarize() Summary {
	return Summary{
		Count:  c.Count(),
		Mean:   c.Mean(),
		StdDev: c.StdDev(),
		Min:    c.Min(),
		Max:    c.Max(),
		P50:    c.Percentile(50),
		P95:    c.Percentile(95),
		P99:    c.Percentile(99),
	}
}

// String renders the summary on one line for reports and logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f sd=%.1f min=%.0f p50=%.0f p95=%.0f p99=%.0f max=%.0f",
		s.Count, s.Mean, s.StdDev, s.Min, s.P50, s.P95, s.P99, s.Max)
}

// --- Mean ± confidence interval ------------------------------------------------

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// CI95 returns the 95% confidence halfwidth t * s / sqrt(n) of the mean of
// xs (sample standard deviation, Student-t quantile), or 0 with fewer than
// two samples. It serves both batch-means latency intervals and
// across-replica aggregation in the experiment engine.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mean := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	s := math.Sqrt(ss / float64(n-1))
	return TQuantile95(n-1) * s / math.Sqrt(float64(n))
}

// TQuantile95 returns the two-sided 95% Student-t quantile for df degrees of
// freedom (df >= 1), falling back to the normal quantile for large df.
func TQuantile95(df int) float64 {
	table := []float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	}
	if df < 1 {
		return table[0]
	}
	if df <= len(table) {
		return table[df-1]
	}
	return 1.960
}
