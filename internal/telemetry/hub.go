package telemetry

// Options configures a Hub. The zero value enables sampling every 100
// cycles and no JSONL output. Every hub has a flight recorder and an
// episode tracker.
type Options struct {
	// SampleEvery is the gauge sampling period in cycles (default 100).
	// Samples go only to the Writer; the registry is published on the same
	// period either way. Negative disables sampling, and the registry is
	// then published every 100 cycles.
	SampleEvery int
	// SnapshotCooldown is the minimum number of cycles between two
	// flight-recorder dumps (default 500).
	SnapshotCooldown int64
	// Writer, when set, streams samples, packet events, episode spans and
	// snapshots as JSON Lines.
	Writer *JSONLWriter
	// EpisodeDepth is how many closed recovery-episode spans the episode
	// tracker retains (≤ 0 means the default, 256).
	EpisodeDepth int
	// ProfileEvery enables the kernel phase profiler on every Nth cycle
	// (0 disables it). Profiling reads the wall clock but never simulation
	// state, so it cannot perturb results — only add overhead.
	ProfileEvery int
}

// A Hub's default sampling period and fixed capacities (every caller ran
// with these capacities).
const (
	defaultSampleEvery = 100 // cycles between samples, and between publishes
	flightDepth        = 64  // cycles of per-router frames the flight recorder retains
	maxSnapshots       = 16  // flight-recorder dumps retained (and written) per run
)

func (o *Options) normalize() {
	if o.SampleEvery == 0 {
		o.SampleEvery = defaultSampleEvery
	}
	if o.SnapshotCooldown == 0 {
		o.SnapshotCooldown = 500
	}
	if o.EpisodeDepth <= 0 {
		o.EpisodeDepth = 256
	}
}

// Hub bundles one simulation's telemetry: the metric registry, the cycle
// sampler (nil with sampling off or no Writer), the flight recorder, the
// episode tracker and the optional JSONL writer. The network hands it every
// packet event (Observe) and drives it once per cycle.
type Hub struct {
	Registry *Registry
	Sampler  *Sampler
	Recorder *FlightRecorder
	Writer   *JSONLWriter
	Episodes *EpisodeTracker

	every int64 // cycles between samples and between publishes

	// Pending snapshot trigger (set on deadlock presumption, consumed by
	// the network's telemetry tick at the end of the same cycle).
	trigArmed bool
	trigNode  int
	trigPkt   int64
}

// NewHub builds the telemetry bundle for one simulation.
func NewHub(o Options) *Hub {
	o.normalize()
	h := &Hub{Registry: NewRegistry(), Writer: o.Writer, every: defaultSampleEvery}
	if o.SampleEvery > 0 {
		h.every = int64(o.SampleEvery)
		if o.Writer != nil {
			h.Sampler = NewSampler(h.Registry, o.Writer)
		}
	}
	h.Recorder = NewFlightRecorder(flightDepth, o.SnapshotCooldown, maxSnapshots)
	h.Episodes = NewEpisodeTracker(o.EpisodeDepth)
	h.Episodes.Register(h.Registry)
	h.Episodes.SetWriter(o.Writer)
	return h
}

// Observe consumes one packet event: a Timeout arms the snapshot trigger
// (the first presumption of a cycle wins; the network's telemetry tick
// takes it), the event goes out as a JSONL
// "event" line, and the episode tracker folds it into the packet's span.
// The line is written first, so a closing event precedes the span it
// closes in the stream.
func (h *Hub) Observe(e Event) {
	if e.Kind == Timeout && !h.trigArmed {
		h.trigArmed = true
		h.trigNode = int(e.Node)
		h.trigPkt = int64(e.Pkt)
	}
	if h.Writer != nil {
		h.Writer.Event(e)
	}
	h.Episodes.Observe(e)
}

// TakeTrigger consumes the pending snapshot trigger, if any.
func (h *Hub) TakeTrigger() (node int, pkt int64, ok bool) {
	if !h.trigArmed {
		return 0, 0, false
	}
	h.trigArmed = false
	return h.trigNode, h.trigPkt, true
}

// Tick ends a cycle: on the sampling period it writes the tracked families'
// samples and publishes the registry, so /metrics refreshes during a run;
// with sampling off it publishes every defaultSampleEvery cycles.
func (h *Hub) Tick(cycle int64) {
	if cycle%h.every != 0 {
		return
	}
	if h.Sampler != nil {
		h.Sampler.Sample(cycle)
	}
	h.Registry.Publish()
}
