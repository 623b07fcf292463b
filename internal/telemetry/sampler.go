package telemetry

import (
	"repro/internal/metrics"
)

// Probe is one sampled quantity: a named pull callback evaluated on every
// sample tick.
type Probe struct {
	Name   string
	Labels Labels
	Fn     func() float64
}

// TimeSeries is a ring-buffered (cycle, value) history of one probe.
type TimeSeries struct {
	Name   string
	Labels Labels

	cycles []int64
	values []float64
	next   int
	full   bool
}

func newTimeSeries(name string, labels Labels, capacity int) *TimeSeries {
	if capacity < 1 {
		capacity = 1
	}
	return &TimeSeries{
		Name:   name,
		Labels: labels,
		cycles: make([]int64, capacity),
		values: make([]float64, capacity),
	}
}

func (ts *TimeSeries) append(cycle int64, v float64) {
	ts.cycles[ts.next] = cycle
	ts.values[ts.next] = v
	ts.next++
	if ts.next == len(ts.cycles) {
		ts.next = 0
		ts.full = true
	}
}

// Len returns the number of retained samples.
func (ts *TimeSeries) Len() int {
	if ts.full {
		return len(ts.cycles)
	}
	return ts.next
}

// Points returns the retained (cycle, value) pairs oldest-first.
func (ts *TimeSeries) Points() (cycles []int64, values []float64) {
	if !ts.full {
		return append([]int64(nil), ts.cycles[:ts.next]...), append([]float64(nil), ts.values[:ts.next]...)
	}
	n := len(ts.cycles)
	cycles = make([]int64, 0, n)
	values = make([]float64, 0, n)
	cycles = append(cycles, ts.cycles[ts.next:]...)
	cycles = append(cycles, ts.cycles[:ts.next]...)
	values = append(values, ts.values[ts.next:]...)
	values = append(values, ts.values[:ts.next]...)
	return cycles, values
}

// MetricsSeries converts the ring into a metrics.Series (X = cycle,
// Latency = sampled value) so internal/plot can chart it directly.
func (ts *TimeSeries) MetricsSeries() metrics.Series {
	label := ts.Name
	if ls := ts.Labels.render(); ls != "" {
		label += ls
	}
	s := metrics.Series{Label: label}
	cycles, values := ts.Points()
	for i := range cycles {
		s.Append(metrics.Point{X: float64(cycles[i]), Latency: values[i]})
	}
	return s
}

// Sampler snapshots registered probes every Every cycles into per-probe
// ring-buffered time series.
type Sampler struct {
	every int64
	depth int

	probes []Probe
	series []*TimeSeries

	// Emit, when set, receives every sampled value (the Hub uses it to
	// stream JSONL sample lines).
	Emit func(cycle int64, name string, labels Labels, value float64)
}

// NewSampler builds a sampler ticking every `every` cycles, keeping `depth`
// samples per probe.
func NewSampler(every int64, depth int) *Sampler {
	if every < 1 {
		every = 1
	}
	if depth < 1 {
		depth = 1
	}
	return &Sampler{every: every, depth: depth}
}

// AddProbe registers one sampled quantity.
func (s *Sampler) AddProbe(p Probe) *TimeSeries {
	ts := newTimeSeries(p.Name, p.Labels, s.depth)
	s.probes = append(s.probes, p)
	s.series = append(s.series, ts)
	return ts
}

// Due reports whether a sample is scheduled for this cycle.
func (s *Sampler) Due(cycle int64) bool {
	return cycle%s.every == 0
}

// Sample evaluates every probe at the given cycle, appends to the rings and
// forwards values to Emit.
func (s *Sampler) Sample(cycle int64) {
	for i, p := range s.probes {
		v := p.Fn()
		s.series[i].append(cycle, v)
		if s.Emit != nil {
			s.Emit(cycle, p.Name, p.Labels, v)
		}
	}
}

// Series returns all probe rings in registration order.
func (s *Sampler) Series() []*TimeSeries { return s.series }

// MetricsSeries converts every ring for plotting.
func (s *Sampler) MetricsSeries() []metrics.Series {
	out := make([]metrics.Series, 0, len(s.series))
	for _, ts := range s.series {
		out = append(out, ts.MetricsSeries())
	}
	return out
}
