package telemetry

import "fmt"

// point is one sampled (cycle, value) pair.
type point struct {
	cycle int64
	value float64
}

// TimeSeries is a ring-buffered (cycle, value) history of one registry
// family, each value the family's sum over its label sets.
type TimeSeries struct {
	Name string

	family *family
	points ring[point]
}

// Points returns the retained (cycle, value) pairs oldest-first.
func (ts *TimeSeries) Points() (cycles []int64, values []float64) {
	for _, p := range ts.points.items() {
		cycles = append(cycles, p.cycle)
		values = append(values, p.value)
	}
	return cycles, values
}

// Sampler snapshots tracked registry families every Every cycles into
// per-family ring-buffered time series.
type Sampler struct {
	every  int64
	depth  int
	reg    *Registry
	series []*TimeSeries

	// Emit, when set, receives every sampled value (the Hub uses it to
	// stream JSONL sample lines).
	Emit func(cycle int64, name string, value float64)
}

// NewSampler builds a sampler over reg ticking every `every` cycles,
// keeping `depth` samples per tracked family.
func NewSampler(reg *Registry, every int64, depth int) *Sampler {
	if every < 1 {
		every = 1
	}
	if depth < 1 {
		depth = 1
	}
	return &Sampler{every: every, depth: depth, reg: reg}
}

// Track samples the registered counter or gauge family name on every tick
// from now on, after the families tracked before it. Each sample is the
// family's value summed over its label sets, including sets registered
// later. It panics when no such family is registered.
func (s *Sampler) Track(name string) *TimeSeries {
	f := s.reg.byName[name]
	if f == nil || f.kind == "histogram" {
		panic(fmt.Sprintf("telemetry: no counter or gauge family %q to sample", name))
	}
	ts := &TimeSeries{Name: name, family: f, points: newRing[point](s.depth)}
	s.series = append(s.series, ts)
	return ts
}

// Due reports whether a sample is scheduled for this cycle.
func (s *Sampler) Due(cycle int64) bool {
	return cycle%s.every == 0
}

// Sample evaluates every tracked family at the given cycle, appends to the
// rings and forwards values to Emit.
func (s *Sampler) Sample(cycle int64) {
	for _, ts := range s.series {
		v := ts.family.sum()
		ts.points.push(point{cycle, v})
		if s.Emit != nil {
			s.Emit(cycle, ts.Name, v)
		}
	}
}

// Series returns all tracked rings in tracking order.
func (s *Sampler) Series() []*TimeSeries { return s.series }
