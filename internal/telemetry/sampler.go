package telemetry

import "fmt"

// Sampler writes tracked registry families to a JSONL stream as "sample"
// lines, each value the family's sum over its label sets. A Hub builds one
// only when it has a Writer and sampling is on, and calls Sample on its
// sampling period.
type Sampler struct {
	reg      *Registry
	w        *JSONLWriter
	families []*family
}

// NewSampler builds a sampler over reg writing its samples to w.
func NewSampler(reg *Registry, w *JSONLWriter) *Sampler {
	return &Sampler{reg: reg, w: w}
}

// Track samples the registered counter or gauge family name on every
// Sample from now on, after the families tracked before it. Each sample is
// the family's value summed over its label sets, including sets registered
// later. It panics when no such family is registered.
func (s *Sampler) Track(name string) {
	f := s.reg.byName[name]
	if f == nil || f.kind == "histogram" {
		panic(fmt.Sprintf("telemetry: no counter or gauge family %q to sample", name))
	}
	s.families = append(s.families, f)
}

// Sample writes one "sample" line per tracked family, in tracking order.
func (s *Sampler) Sample(cycle int64) {
	for _, f := range s.families {
		s.w.Sample(cycle, f.name, f.sum())
	}
}
