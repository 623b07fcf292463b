package chaos

import (
	"fmt"
	"strings"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// EventReport is the measured outcome of one schedule event. Skipped events
// (infeasible at apply time — e.g. a kill that would disconnect the fabric)
// are closed immediately with zero latencies; applied events stay open until
// the runner observes recovery and reconvergence.
type EventReport struct {
	network.ReconfigOutcome
	// AppliedAt is the clock value just after the Step that applied (or
	// skipped) the event.
	AppliedAt sim.Cycle
	// RecoveryCycles is how many cycles after AppliedAt until no header
	// anywhere was presumed deadlocked (-1 while still recovering).
	RecoveryCycles int64
	// ReconvergeCycles is how many cycles after AppliedAt until, in
	// addition, every Deadlock Buffer lane drained — the DBR notion of the
	// network having reconverged onto the new topology (-1 while pending).
	ReconvergeCycles int64
}

// Runner arms a chaos schedule on a network and measures per-event recovery
// latency and time-to-reconverge as it steps. It only reads network state
// between Steps (ReconfigCount, ReconfigLog, RecoveryBacklog), so driving a
// run through a Runner leaves fingerprints byte-identical to arming the
// schedule and stepping the network directly.
type Runner struct {
	net     *network.Network
	reports []EventReport
	open    int // reports with ReconvergeCycles still pending
	seen    int // reconfig-log entries already turned into reports

	histRecovery   *telemetry.Histogram
	histReconverge *telemetry.Histogram
}

// chaosHistBounds buckets recovery/reconverge latencies in cycles.
var chaosHistBounds = []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// NewRunner arms the schedule on the network (events before the current
// cycle are dropped, matching ScheduleReconfig) and returns a runner that
// measures each event as the run proceeds. Events already in the network's
// reconfiguration log (e.g. replayed from a checkpoint) are not re-reported.
func NewRunner(net *network.Network, s *Schedule) (*Runner, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := net.ScheduleReconfig(s.Events); err != nil {
		return nil, err
	}
	r := &Runner{net: net, seen: net.ReconfigCount()}
	if hub := net.Telemetry(); hub != nil && hub.Registry != nil {
		r.histRecovery = hub.Registry.Histogram("disha_chaos_recovery_cycles",
			"Cycles from a chaos event until no header is presumed deadlocked.",
			nil, chaosHistBounds)
		r.histReconverge = hub.Registry.Histogram("disha_chaos_reconverge_cycles",
			"Cycles from a chaos event until the Deadlock Buffer lane drains.",
			nil, chaosHistBounds)
	}
	return r, nil
}

// Step advances the network one cycle and folds any newly applied events
// and recovery progress into the reports.
func (r *Runner) Step() {
	r.net.Step()
	r.observe()
}

// Run steps the network the given number of cycles.
func (r *Runner) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		r.Step()
	}
}

// RunTo steps until the clock reaches the given cycle.
func (r *Runner) RunTo(cycle sim.Cycle) {
	for r.net.Now() < cycle {
		r.Step()
	}
}

// observe turns new reconfiguration-log entries into reports and closes
// open reports once the network has recovered and reconverged. It reads
// but never mutates network state.
func (r *Runner) observe() {
	if n := r.net.ReconfigCount(); n > r.seen {
		log := r.net.ReconfigLog()
		now := r.net.Now()
		for _, o := range log[r.seen:] {
			rep := EventReport{
				ReconfigOutcome:  o,
				AppliedAt:        now,
				RecoveryCycles:   -1,
				ReconvergeCycles: -1,
			}
			if !o.Applied {
				rep.RecoveryCycles = 0
				rep.ReconvergeCycles = 0
			} else {
				r.open++
			}
			r.reports = append(r.reports, rep)
		}
		r.seen = n
	}
	if r.open == 0 {
		return
	}
	presumed, busy := r.net.RecoveryBacklog()
	if presumed != 0 {
		return
	}
	now := r.net.Now()
	for i := range r.reports {
		rep := &r.reports[i]
		if !rep.Applied || rep.ReconvergeCycles >= 0 {
			continue
		}
		if rep.RecoveryCycles < 0 {
			rep.RecoveryCycles = int64(now - rep.AppliedAt)
			if r.histRecovery != nil {
				r.histRecovery.Observe(float64(rep.RecoveryCycles))
			}
		}
		if busy == 0 {
			rep.ReconvergeCycles = int64(now - rep.AppliedAt)
			if r.histReconverge != nil {
				r.histReconverge.Observe(float64(rep.ReconvergeCycles))
			}
			r.open--
		}
	}
}

// Sync folds the network's current state into the reports without stepping.
// Call it after stepping the network outside the runner (e.g. a drain), so
// events that recovered during those cycles are closed.
func (r *Runner) Sync() { r.observe() }

// Reports returns a copy of the per-event reports accumulated so far.
func (r *Runner) Reports() []EventReport {
	return append([]EventReport(nil), r.reports...)
}

// Open returns how many applied events have not yet reconverged.
func (r *Runner) Open() int { return r.open }

// Summary aggregates the campaign: event counts, total losses, and worst
// latencies among closed events.
type Summary struct {
	Events        int
	Applied       int
	Skipped       int
	Open          int
	PacketsLost   int64
	FlitsLost     int64
	MaxRecovery   int64
	MaxReconverge int64
}

// Summary computes aggregate statistics over the reports so far.
func (r *Runner) Summary() Summary {
	var s Summary
	s.Events = len(r.reports)
	s.Open = r.open
	for i := range r.reports {
		rep := &r.reports[i]
		if !rep.Applied {
			s.Skipped++
			continue
		}
		s.Applied++
		s.PacketsLost += rep.PacketsLost
		s.FlitsLost += rep.FlitsLost
		if rep.RecoveryCycles > s.MaxRecovery {
			s.MaxRecovery = rep.RecoveryCycles
		}
		if rep.ReconvergeCycles > s.MaxReconverge {
			s.MaxReconverge = rep.ReconvergeCycles
		}
	}
	return s
}

// FormatReports renders the per-event reports as a fixed-width table for
// disha-sim's chaos output.
func FormatReports(reports []EventReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %-40s %-8s %6s %6s %8s %8s\n",
		"cycle", "event", "status", "lost", "flits", "recover", "reconv")
	for i := range reports {
		rep := &reports[i]
		status := "applied"
		if !rep.Applied {
			status = "skipped"
		}
		rec, conv := "-", "-"
		if rep.Applied && rep.RecoveryCycles >= 0 {
			rec = fmt.Sprintf("%d", rep.RecoveryCycles)
		}
		if rep.Applied && rep.ReconvergeCycles >= 0 {
			conv = fmt.Sprintf("%d", rep.ReconvergeCycles)
		}
		fmt.Fprintf(&b, "%-7d %-40s %-8s %6d %6d %8s %8s\n",
			int64(rep.Cycle), rep.ReconfigEvent.String(), status,
			rep.PacketsLost, rep.FlitsLost, rec, conv)
	}
	return b.String()
}
