package telemetry

// Options configures a Hub. The zero value enables sampling every 100
// cycles with a 64-frame flight recorder and no JSONL output.
type Options struct {
	// SampleEvery is the gauge sampling period in cycles (default 100).
	// Negative disables sampling entirely.
	SampleEvery int
	// FlightDepth is how many cycles of per-router frames the flight
	// recorder retains (default 64). Negative disables the recorder.
	FlightDepth int
	// SnapshotCooldown is the minimum number of cycles between two
	// flight-recorder dumps (default 500).
	SnapshotCooldown int64
	// Writer, when set, streams samples, packet events, episode spans and
	// snapshots as JSON Lines.
	Writer *JSONLWriter
	// EpisodeDepth is how many closed recovery-episode spans the episode
	// tracker retains (default 256). Negative disables episode tracking.
	EpisodeDepth int
	// ProfileEvery enables the kernel phase profiler on every Nth cycle
	// (0 disables it). Profiling reads the wall clock but never simulation
	// state, so it cannot perturb results — only add overhead.
	ProfileEvery int
}

// Fixed capacities of a Hub: every caller ran with these values.
const (
	seriesDepth  = 512 // per-family time-series ring capacity
	maxSnapshots = 16  // flight-recorder dumps retained (and written) per run
)

func (o *Options) normalize() {
	if o.SampleEvery == 0 {
		o.SampleEvery = 100
	}
	if o.FlightDepth == 0 {
		o.FlightDepth = 64
	}
	if o.SnapshotCooldown == 0 {
		o.SnapshotCooldown = 500
	}
	if o.EpisodeDepth == 0 {
		o.EpisodeDepth = 256
	}
}

// Hub bundles one simulation's telemetry: the metric registry, the cycle
// sampler (nil when disabled), the flight recorder (nil when disabled), the
// episode tracker (nil when disabled) and the optional JSONL writer. The
// network hands it every packet event (Observe) and drives it once per
// cycle.
type Hub struct {
	Registry *Registry
	Sampler  *Sampler
	Recorder *FlightRecorder
	Writer   *JSONLWriter
	Episodes *EpisodeTracker

	// Pending snapshot trigger (set on deadlock presumption, consumed by
	// the network's telemetry tick at the end of the same cycle).
	trigArmed bool
	trigNode  int
	trigPkt   int64
}

// NewHub builds the telemetry bundle for one simulation.
func NewHub(o Options) *Hub {
	o.normalize()
	h := &Hub{Registry: NewRegistry(), Writer: o.Writer}
	if o.SampleEvery > 0 {
		h.Sampler = NewSampler(h.Registry, int64(o.SampleEvery), seriesDepth)
		if o.Writer != nil {
			h.Sampler.Emit = o.Writer.Sample
		}
	}
	if o.FlightDepth > 0 {
		h.Recorder = NewFlightRecorder(o.FlightDepth, o.SnapshotCooldown, maxSnapshots)
	}
	if o.EpisodeDepth > 0 {
		h.Episodes = NewEpisodeTracker(o.EpisodeDepth)
		h.Episodes.Register(h.Registry)
		h.Episodes.SetWriter(o.Writer)
	}
	return h
}

// Observe consumes one packet event: a Timeout arms the snapshot trigger
// when a flight recorder exists (the first presumption of a cycle wins; the
// network's telemetry tick takes it), the event goes out as a JSONL
// "event" line, and the episode tracker folds it into the packet's span.
// The line is written first, so a closing event precedes the span it
// closes in the stream. No-op on a nil hub.
func (h *Hub) Observe(e Event) {
	if h == nil {
		return
	}
	if e.Kind == Timeout && h.Recorder != nil && !h.trigArmed {
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
