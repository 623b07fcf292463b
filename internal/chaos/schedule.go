// Package chaos generates, loads and executes reconfiguration campaigns:
// seeded random schedules of link kill and heal events applied to a
// live network mid-run through the dynamic reconfiguration subsystem
// (internal/network/reconfig.go). Campaigns are deterministic — a (seed,
// schedule) pair reproduces the identical run byte-for-byte — and the
// runner measures, per event, the packets lost, the recovery latency
// (cycles until no header remains presumed deadlocked) and the time to
// reconverge (cycles until the Deadlock Buffer lane has fully drained). See
// CHAOS.md for the protocol and the replay workflow.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/network"
)

// Schedule is a chaos campaign: an ordered list of reconfiguration events
// (the network's own event type is the file's entry format), plus the
// generator seed when Generate produced it (0 for hand-written schedules).
// The JSON form is the on-disk event-schedule file format accepted by
// disha-sim -chaos-script, disha-bisect -chaos-script and disha-sweep -chaos.
type Schedule struct {
	Name   string                  `json:"name,omitempty"`
	Seed   uint64                  `json:"seed,omitempty"`
	Events []network.ReconfigEvent `json:"events"`
}

// Validate checks the schedule is well-formed: known kinds, non-negative
// cycles and fields, and events sorted by non-decreasing cycle. Whether an
// event is feasible is the live network's call, at apply time.
func (s *Schedule) Validate() error {
	for i, ev := range s.Events {
		if _, err := ev.Kind.MarshalText(); err != nil {
			return fmt.Errorf("chaos: event %d: %w", i, err)
		}
		if ev.Cycle < 0 {
			return fmt.Errorf("chaos: event %d: negative cycle %d", i, ev.Cycle)
		}
		if ev.Node < 0 || ev.Port < 0 {
			return fmt.Errorf("chaos: event %d: negative node or port", i)
		}
		if i > 0 && ev.Cycle < s.Events[i-1].Cycle {
			return fmt.Errorf("chaos: event %d at cycle %d follows cycle %d; schedules must be sorted",
				i, ev.Cycle, s.Events[i-1].Cycle)
		}
	}
	return nil
}

// Parse decodes a JSON schedule and validates it.
func Parse(data []byte) (*Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("chaos: parse schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and validates a JSON schedule file.
func Load(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: read schedule: %w", err)
	}
	return Parse(data)
}

// Save writes the schedule as indented JSON.
func (s *Schedule) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
