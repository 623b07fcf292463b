package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCollectorEmpty(t *testing.T) {
	var c Collector
	if c.Count() != 0 || c.Mean() != 0 || c.StdDev() != 0 || c.Min() != 0 || c.Max() != 0 || c.Percentile(50) != 0 {
		t.Fatal("empty collector must be all zeros")
	}
}

func TestCollectorStats(t *testing.T) {
	var c Collector
	for _, v := range []float64{4, 2, 8, 6} {
		c.Add(v)
	}
	if c.Count() != 4 {
		t.Fatalf("count %d", c.Count())
	}
	if c.Mean() != 5 {
		t.Fatalf("mean %v", c.Mean())
	}
	if c.Min() != 2 || c.Max() != 8 {
		t.Fatalf("min/max %v/%v", c.Min(), c.Max())
	}
	// population sd of {2,4,6,8} = sqrt(5)
	if math.Abs(c.StdDev()-math.Sqrt(5)) > 1e-12 {
		t.Fatalf("sd %v", c.StdDev())
	}
	if c.Percentile(50) != 4 {
		t.Fatalf("p50 %v", c.Percentile(50))
	}
	if c.Percentile(0) != 2 || c.Percentile(100) != 8 {
		t.Fatal("extreme percentiles wrong")
	}
}

func TestCollectorAddAfterSort(t *testing.T) {
	var c Collector
	c.Add(5)
	_ = c.Min() // forces sort
	c.Add(1)
	if c.Min() != 1 {
		t.Fatal("sort cache not invalidated by Add")
	}
}

func TestCollectorReset(t *testing.T) {
	var c Collector
	c.Add(1)
	c.Reset()
	if c.Count() != 0 || c.Mean() != 0 {
		t.Fatal("reset failed")
	}
}

func TestSummarize(t *testing.T) {
	var c Collector
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	s := c.Summarize()
	if s.Count != 100 || s.Mean != 50.5 || s.P50 != 50 || s.P95 != 95 || s.P99 != 99 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if !strings.Contains(s.String(), "n=100") {
		t.Fatal("summary string missing count")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var c Collector
		for _, v := range raw {
			c.Add(float64(v))
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		pa, pb := c.Percentile(a), c.Percentile(b)
		return pa <= pb && pa >= c.Min() && pb <= c.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesCSV(t *testing.T) {
	s := Series{Label: "disha-m0"}
	s.Append(Point{X: 0.1, Latency: 40, Throughput: 0.1, Extra: map[string]float64{"seizures": 0}})
	s.Append(Point{X: 0.2, Latency: 45, Throughput: 0.2, Extra: map[string]float64{"seizures": 3}})
	csv := s.CSV()
	if !strings.HasPrefix(csv, "series,load,latency,throughput,seizures\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "disha-m0,0.1000,40.000,0.1000,0") {
		t.Fatalf("csv row wrong: %q", csv)
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Fatal("csv line count wrong")
	}
}

func TestSaturationLoad(t *testing.T) {
	s := Series{Label: "x"}
	for i, lat := range []float64{40, 42, 45, 60, 400, 2000} {
		s.Append(Point{X: 0.1 * float64(i+1), Latency: lat})
	}
	// Threshold 3x base (40) = 120: first exceeded at X=0.5.
	if got := s.SaturationLoad(3); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("saturation %v, want 0.5", got)
	}
	// Never saturates: returns last + step.
	flat := Series{Label: "y"}
	flat.Append(Point{X: 0.1, Latency: 40})
	flat.Append(Point{X: 0.2, Latency: 41})
	if got := flat.SaturationLoad(3); math.Abs(got-0.3) > 1e-9 {
		t.Fatalf("unsaturated estimate %v, want 0.3", got)
	}
}

func TestSaturationLoadEdgeCases(t *testing.T) {
	var empty Series
	if empty.SaturationLoad(3) != 0 {
		t.Fatal("empty series saturation must be 0")
	}
	one := Series{Points: []Point{{X: 0.1, Latency: 10}}}
	if got := one.SaturationLoad(3); got != 0.1 {
		t.Fatalf("single-point unsaturated estimate %v", got)
	}
}

func TestPeakThroughput(t *testing.T) {
	s := Series{}
	for _, th := range []float64{0.1, 0.35, 0.3} {
		s.Append(Point{Throughput: th})
	}
	if s.PeakThroughput() != 0.35 {
		t.Fatalf("peak %v", s.PeakThroughput())
	}
}

func TestMeanAndCI95(t *testing.T) {
	if Mean(nil) != 0 || Mean([]float64{3, 5}) != 4 {
		t.Fatal("mean wrong")
	}
	if CI95(nil) != 0 || CI95([]float64{5}) != 0 {
		t.Fatal("degenerate CIs must be zero")
	}
	// Identical samples: zero variance, zero CI.
	if CI95([]float64{7, 7, 7, 7}) != 0 {
		t.Fatal("zero-variance CI must be zero")
	}
	// Known case: {1,2,3}, sd=1, t(2)=4.303 -> 4.303/sqrt(3)=2.484...
	got := CI95([]float64{1, 2, 3})
	if got < 2.4 || got > 2.6 {
		t.Fatalf("CI95({1,2,3}) = %v", got)
	}
}

func TestTQuantile95(t *testing.T) {
	if TQuantile95(0) != 12.706 || TQuantile95(1) != 12.706 || TQuantile95(4) != 2.776 || TQuantile95(100) != 1.960 {
		t.Fatal("t quantiles wrong")
	}
}
