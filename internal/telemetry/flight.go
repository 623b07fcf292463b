package telemetry

// RouterFrame is the condensed state of one router at one cycle. Frames are
// sparse: routers whose fields are all zero are omitted.
type RouterFrame struct {
	Node     int32 `json:"node"`
	Blocked  int32 `json:"blocked"`            // headers that failed to advance this cycle
	Presumed int32 `json:"presumed,omitempty"` // headers past T_out
	DBOcc    int32 `json:"db,omitempty"`       // flits in the Deadlock Buffer lane(s)
}

// Frame is one cycle's sparse network state.
type Frame struct {
	Cycle   int64         `json:"cycle"`
	Routers []RouterFrame `json:"routers"`
}

// WFGNode is one blocked header in a wait-for-graph snapshot.
type WFGNode struct {
	Node       int     `json:"node"`
	Pkt        int64   `json:"pkt"`
	WaitsOn    []int64 `json:"waits_on,omitempty"`
	Deadlocked bool    `json:"deadlocked,omitempty"`
}

// Snapshot is a flight-recorder dump taken on a deadlock presumption: the
// last K cycles of per-router state plus the instantaneous wait-for-graph.
type Snapshot struct {
	Cycle        int64     `json:"cycle"`
	TriggerNode  int       `json:"trigger_node"`
	TriggerPkt   int64     `json:"trigger_pkt"`
	Frames       []Frame   `json:"frames"`
	WFG          []WFGNode `json:"wfg,omitempty"`
	TrueDeadlock bool      `json:"true_deadlock"`
}

// FlightRecorder keeps a ring of the last depth frames and throttles
// snapshot dumps (a saturated network presumes deadlock every few cycles;
// one post-mortem per episode is what a human wants to read).
type FlightRecorder struct {
	frames ring[Frame]

	cooldown  int64 // min cycles between snapshots
	lastSnap  int64
	maxSnaps  int
	snapshots []*Snapshot
}

// NewFlightRecorder keeps depth frames, allows one snapshot per cooldown
// cycles, and retains at most maxSnaps snapshots in memory.
func NewFlightRecorder(depth int, cooldown int64, maxSnaps int) *FlightRecorder {
	if maxSnaps < 1 {
		maxSnaps = 1
	}
	return &FlightRecorder{
		frames:   newRing[Frame](depth),
		cooldown: cooldown,
		lastSnap: -1 << 62,
		maxSnaps: maxSnaps,
	}
}

// BeginFrame claims the ring slot for this cycle and returns it with an
// empty router list, reusing the evicted frame's array; the caller appends
// sparse RouterFrames.
func (f *FlightRecorder) BeginFrame(cycle int64) *Frame {
	fr := f.frames.slot()
	fr.Cycle = cycle
	fr.Routers = fr.Routers[:0]
	return fr
}

// Frames returns deep copies of the retained frames oldest-first (a snapshot
// must not alias the ring, which keeps being overwritten).
func (f *FlightRecorder) Frames() []Frame {
	out := f.frames.items()
	for i := range out {
		out[i].Routers = append([]RouterFrame(nil), out[i].Routers...)
	}
	return out
}

// ShouldSnapshot reports whether a snapshot is currently allowed (cooldown
// elapsed, retention cap not reached).
func (f *FlightRecorder) ShouldSnapshot(cycle int64) bool {
	return len(f.snapshots) < f.maxSnaps && cycle-f.lastSnap >= f.cooldown
}

// AddSnapshot retains a snapshot and starts the cooldown window.
func (f *FlightRecorder) AddSnapshot(s *Snapshot) {
	f.lastSnap = s.Cycle
	f.snapshots = append(f.snapshots, s)
}

// Snapshots returns the retained snapshots in capture order.
func (f *FlightRecorder) Snapshots() []*Snapshot { return f.snapshots }
