// Package telemetry is the simulator's observability layer: a registry of
// named counters, gauges and fixed-bucket histograms (Prometheus text
// exposition), a cycle-driven sampler that snapshots selected registry
// families into ring-buffered time series, a flight recorder that retains the last K
// cycles of condensed per-router state for post-mortem dumps on deadlock
// presumption, the packet-event stream (Event: one record per packet
// lifecycle step, which the network builds once and hands to the EventRing
// and to Hub.Observe), a recovery-episode span tracer that folds that
// stream into a labeled lifecycle record per deadlock presumption, and a
// JSONL writer/reader for exporting samples, events, snapshots and spans.
//
// The package is deliberately passive and single-threaded: all mutation
// (registration, counter updates, sampling, frame capture, event folding)
// happens on the simulation goroutine, in cycle order, so enabling telemetry never changes
// simulation results. The only concurrency concession is Registry.Publish,
// which renders the current values into an immutable byte snapshot that the
// HTTP exposition handler serves from any goroutine.
package telemetry

import (
	"io"
	"sort"
	"strconv"
	"sync/atomic"
)

// Label is one exposition label (key="value").
type Label struct {
	Key, Value string
}

// Labels is an ordered label set. Order is preserved in the rendered output.
type Labels []Label

// Map converts the label set to a map (for JSONL export).
func (ls Labels) Map() map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	return m
}

func (ls Labels) render() string {
	if len(ls) == 0 {
		return ""
	}
	out := []byte{'{'}
	for i, l := range ls {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, l.Key...)
		out = append(out, '=', '"')
		out = append(out, l.Value...)
		out = append(out, '"')
	}
	out = append(out, '}')
	return string(out)
}

// Counter is a monotonically increasing metric. It either accumulates pushed
// increments (Add/Inc) or pulls its value from a callback registered with
// Registry.CounterFunc. A nil *Counter is safe to use and costs one branch,
// so instrumentation sites need no enabled-checks of their own.
type Counter struct {
	v  int64
	fn func() int64
}

// Add increments the counter by d. No-op on a nil or callback-backed counter.
func (c *Counter) Add(d int64) {
	if c == nil || c.fn != nil {
		return
	}
	c.v += d
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	if c.fn != nil {
		return c.fn()
	}
	return c.v
}

// Gauge is a point-in-time metric: a pushed value (Set) or a pull callback
// (Registry.GaugeFunc). A nil *Gauge is safe to use.
type Gauge struct {
	v  float64
	fn func() float64
}

// Set stores the gauge value. No-op on a nil or callback-backed gauge.
func (g *Gauge) Set(v float64) {
	if g == nil || g.fn != nil {
		return
	}
	g.v = v
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return g.v
}

// metricEntry is one labeled instance of a metric family.
type metricEntry struct {
	labels   string
	labelSet Labels
	counter  *Counter
	gauge    *Gauge
	hist     *Histogram
}

// family groups all labeled instances of one metric name.
type family struct {
	name, help string
	kind       string // "counter", "gauge" or "histogram"
	entries    []*metricEntry
}

// sum is a counter or gauge family's value summed over its label sets.
func (f *family) sum() float64 {
	v := 0.0
	for _, e := range f.entries {
		if e.counter != nil {
			v += float64(e.counter.Value())
		} else {
			v += e.gauge.Value()
		}
	}
	return v
}

// Registry holds registered metrics and renders them in the Prometheus text
// exposition format. Registration and value access happen on the simulation
// goroutine; Publish/Published bridge to the HTTP handler.
type Registry struct {
	families  []*family
	byName    map[string]*family
	published atomic.Value // []byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) lookup(name, help, kind string) *family {
	if f, ok := r.byName[name]; ok {
		return f
	}
	f := &family{name: name, help: help, kind: kind}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter registers a push-style counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	f := r.lookup(name, help, "counter")
	f.entries = append(f.entries, &metricEntry{labels: labels.render(), labelSet: labels, counter: c})
	return c
}

// CounterFunc registers a pull-style counter whose value is read from fn at
// render time (on the simulation goroutine only).
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() int64) {
	f := r.lookup(name, help, "counter")
	f.entries = append(f.entries, &metricEntry{labels: labels.render(), labelSet: labels, counter: &Counter{fn: fn}})
}

// Gauge registers a push-style gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	f := r.lookup(name, help, "gauge")
	f.entries = append(f.entries, &metricEntry{labels: labels.render(), labelSet: labels, gauge: g})
	return g
}

// GaugeFunc registers a pull-style gauge.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	f := r.lookup(name, help, "gauge")
	f.entries = append(f.entries, &metricEntry{labels: labels.render(), labelSet: labels, gauge: &Gauge{fn: fn}})
}

// Histogram registers a fixed-bucket histogram with the given bucket upper
// bounds (see NewHistogram for the bound rules). It renders in the
// Prometheus text format as cumulative `name_bucket{le="..."}` series plus
// `name_sum` and `name_count`.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	f := r.lookup(name, help, "histogram")
	f.entries = append(f.entries, &metricEntry{labels: labels.render(), labelSet: labels, hist: h})
	return h
}

// Sample is one gathered metric value.
type Sample struct {
	Name   string
	Labels Labels
	Value  float64
}

// Gather evaluates every registered metric. Call only from the goroutine
// that owns the instrumented state (the simulation loop). A histogram
// contributes two samples, its observation count as `name_count` and its
// value sum as `name_sum`.
func (r *Registry) Gather() []Sample {
	var out []Sample
	for _, f := range r.families {
		for _, e := range f.entries {
			switch {
			case e.hist != nil:
				out = append(out,
					Sample{Name: f.name + "_count", Labels: e.labelSet, Value: float64(e.hist.Count())},
					Sample{Name: f.name + "_sum", Labels: e.labelSet, Value: e.hist.Sum()})
			case e.counter != nil:
				out = append(out, Sample{Name: f.name, Labels: e.labelSet, Value: float64(e.counter.Value())})
			default:
				out = append(out, Sample{Name: f.name, Labels: e.labelSet, Value: e.gauge.Value()})
			}
		}
	}
	return out
}

// renderText appends the Prometheus text exposition of all metrics to buf.
func (r *Registry) renderText(buf []byte) []byte {
	for _, f := range r.families {
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.help...)
		buf = append(buf, '\n')
		buf = append(buf, "# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.kind...)
		buf = append(buf, '\n')
		for _, e := range f.entries {
			if e.hist != nil {
				buf = e.renderHistogram(buf, f.name)
				continue
			}
			buf = append(buf, f.name...)
			buf = append(buf, e.labels...)
			buf = append(buf, ' ')
			if e.counter != nil {
				buf = strconv.AppendInt(buf, e.counter.Value(), 10)
			} else {
				buf = strconv.AppendFloat(buf, e.gauge.Value(), 'g', -1, 64)
			}
			buf = append(buf, '\n')
		}
	}
	return buf
}

// renderHistogram appends one histogram entry in the Prometheus text
// format: cumulative `name_bucket{...,le="bound"}` lines (ending with the
// mandatory le="+Inf" bucket), then `name_sum` and `name_count`.
func (e *metricEntry) renderHistogram(buf []byte, name string) []byte {
	h := e.hist
	cum := uint64(0)
	counts := h.BucketCounts()
	for i, bound := range h.Bounds() {
		cum += counts[i]
		buf = append(buf, name...)
		buf = append(buf, "_bucket"...)
		buf = e.appendLabelsWithLE(buf, strconv.FormatFloat(bound, 'g', -1, 64))
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, cum, 10)
		buf = append(buf, '\n')
	}
	buf = append(buf, name...)
	buf = append(buf, "_bucket"...)
	buf = e.appendLabelsWithLE(buf, "+Inf")
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, h.Count(), 10)
	buf = append(buf, '\n')

	buf = append(buf, name...)
	buf = append(buf, "_sum"...)
	buf = append(buf, e.labels...)
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, h.Sum(), 'g', -1, 64)
	buf = append(buf, '\n')

	buf = append(buf, name...)
	buf = append(buf, "_count"...)
	buf = append(buf, e.labels...)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, h.Count(), 10)
	buf = append(buf, '\n')
	return buf
}

// appendLabelsWithLE renders the entry's label set with an le="bound" pair
// appended (the bucket bound label the histogram exposition requires).
func (e *metricEntry) appendLabelsWithLE(buf []byte, le string) []byte {
	buf = append(buf, '{')
	for _, l := range e.labelSet {
		buf = append(buf, l.Key...)
		buf = append(buf, '=', '"')
		buf = append(buf, l.Value...)
		buf = append(buf, '"', ',')
	}
	buf = append(buf, `le="`...)
	buf = append(buf, le...)
	buf = append(buf, '"', '}')
	return buf
}

// WriteText writes the live exposition to w. Call only from the simulation
// goroutine (use Publish/Published for cross-goroutine access).
func (r *Registry) WriteText(w io.Writer) error {
	_, err := w.Write(r.renderText(nil))
	return err
}

// Publish renders the current values into an immutable snapshot served by
// Published (and hence the HTTP handler). Call from the simulation goroutine
// at a cadence of your choosing (the Hub publishes on every sample tick).
func (r *Registry) Publish() {
	r.published.Store(r.renderText(nil))
}

// Published returns the most recently published exposition snapshot (nil
// before the first Publish). Safe from any goroutine.
func (r *Registry) Published() []byte {
	b, _ := r.published.Load().([]byte)
	return b
}

// Names returns all registered family names, sorted (tests, tooling).
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.families))
	for _, f := range r.families {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}
