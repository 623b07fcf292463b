// Package harness runs the paper's experiments: it builds networks from
// declarative specs, applies the warm-up / measurement / drain methodology,
// normalizes throughput against network capacity, and renders the resulting
// curves as tables and CSV. The canned specs in figures.go correspond
// one-to-one to the paper's figures.
package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// AlgSpec describes one curve of an experiment: a routing algorithm with
// its selection function and recovery settings. Its JSON form spells the
// algorithm and the selection by the names routing.ByName and
// routing.SelectionByName read.
type AlgSpec struct {
	// Label names the curve; Normalize defaults it to the algorithm name.
	Label     string
	Algorithm routing.Algorithm
	// Selection defaults to random (the paper simulates Dally & Aoki with
	// minimum-congestion and everything else with random selection);
	// Normalize fills it in.
	Selection routing.Selection
	// Recovery enables time-out detection, the Token and the Deadlock
	// Buffer. It must be true for Disha and false for avoidance schemes.
	Recovery bool
	// Timeout is T_out in cycles when Recovery is on (0 = the paper's
	// default, see router.PaperConfig).
	Timeout sim.Cycle
}

// algNames is AlgSpec's JSON form.
type algNames struct {
	Label, Algorithm, Selection string
	Recovery                    bool
	Timeout                     sim.Cycle
}

// MarshalJSON writes a normalized curve with its algorithm and selection by
// name.
func (a AlgSpec) MarshalJSON() ([]byte, error) {
	return json.Marshal(algNames{a.Label, a.Algorithm.Name(), a.Selection.Name(), a.Recovery, a.Timeout})
}

// UnmarshalJSON resolves the names MarshalJSON wrote.
func (a *AlgSpec) UnmarshalJSON(data []byte) error {
	var n algNames
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	alg, err := routing.ByName(n.Algorithm)
	if err != nil {
		return err
	}
	sel, err := routing.SelectionByName(n.Selection)
	if err != nil {
		return err
	}
	*a = AlgSpec{n.Label, alg, sel, n.Recovery, n.Timeout}
	return nil
}

// hotspotFraction is the share of all traffic the "hotspot" pattern sends to
// its hot node: the paper's 5% (Figure 7, the one sweep that uses it).
const hotspotFraction = 0.05

// Spec is a declarative experiment: a topology, a traffic pattern, a set of
// algorithm curves and a load sweep. It is plain data — names and numbers —
// and its JSON encoding, once normalized, is the identity of its points
// (PointKey).
type Spec struct {
	Name string
	// Topology names the network graph as topology.Parse reads it
	// ("torus-16x16", "fullmesh-8", "dragonfly-4x2", ...). Coordinate-
	// dependent patterns and algorithms need a k-ary n-cube.
	Topology string
	// Traffic names the workload as traffic.ByName reads it; "hotspot" sends
	// hotspotFraction of all traffic to node Nodes()/3.
	Traffic string
	Algs    []AlgSpec
	// Loads are the offered load rates swept (fraction of capacity).
	Loads  []float64
	MsgLen int
	// Router parameters shared by all curves (Timeout and
	// DeadlockBufferDepth are controlled per AlgSpec).
	VCs, BufferDepth int
	Alloc            router.AllocPolicy
	// Warmup cycles run before measurement; Measure cycles are observed.
	Warmup, Measure int
	Seed            uint64
	TokenHops       int
	// WFGSampleEvery, when positive, runs the wait-for-graph analyzer every
	// that many cycles during measurement and records true-deadlock
	// statistics (used for the deadlock characterization experiment).
	WFGSampleEvery int
	// Batches splits the measurement window for batch-means confidence
	// intervals on the latency estimate (default 5; 1 disables).
	Batches int
	// Chaos, when non-empty, arms this reconfiguration event schedule on
	// every point's network (and re-arms it after a checkpoint resume —
	// already-applied events replay from the snapshot's reconfiguration log
	// and are dropped on arming). Event cycles are global: warm-up plus
	// measurement.
	Chaos []network.ReconfigEvent `json:",omitempty"`
}

// Topo builds the spec's network graph. On a spec Normalize accepted the
// name parses.
func (s *Spec) Topo() topology.Graph {
	g, _ := topology.Parse(s.Topology)
	return g
}

// Pattern builds the spec's workload on g.
func (s *Spec) Pattern(g topology.Graph) (traffic.Pattern, error) {
	return traffic.ByName(s.Traffic, g, hotspotFraction)
}

// PointResult is the measurement of one (algorithm, load) pair. With
// replication it is the across-replica aggregate: means ± 95% CI for the
// rate metrics, sums for the event counters.
type PointResult struct {
	Load           float64
	MeanLatency    float64 // creation -> delivery, cycles
	LatencyCI95    float64 // 95% CI halfwidth on MeanLatency: batch-means for a single run, across replicas otherwise
	MeanNetLatency float64 // injection -> delivery, cycles
	P95Latency     float64
	Delivered      int64
	Offered        int64
	Throughput     float64 // normalized accepted traffic, fraction of capacity
	ThroughputCI95 float64 // across-replica 95% CI halfwidth (0 for a single run)
	TokenSeizures  int64   // during measurement
	SeizureRatio   float64 // seizures / delivered (Figure 3a's y-axis)
	TimeoutEvents  int64
	TrueDeadlocks  int64 // WFG-sampled deadlocked configurations (if enabled)
	WFGSamples     int64
	MisrouteHops   int64
	PacketsLost    int64 // dropped by chaos reconfiguration events in-window
	Replicas       int   // independent runs aggregated into this point (>= 1)
}

// Result bundles an experiment's curves.
type Result struct {
	Spec   *Spec
	Series []metrics.Series
	Points map[string][]PointResult // keyed by curve label
}

// RunOptions controls how RunWith executes a Spec.
type RunOptions struct {
	// Parallel is how many points this process simulates at once; 0 means
	// GOMAXPROCS, 1 one at a time. It bounds nothing else: every point of the
	// sweep is handed to the PointRunner at once, and a point a fleet worker
	// computes takes no slot here. Thanks to identity-keyed seeding the
	// results are bit-identical for every value.
	Parallel int
	// Replicas runs every (algorithm, load) point this many times with
	// independent seeds and aggregates the replicas into mean ± 95% CI
	// (default 1).
	Replicas int
	// Retries is how many extra attempts a failing point gets (see
	// CheckSweep).
	Retries int
	// CheckpointEvery, when positive and CheckpointDir is set, snapshots
	// every in-progress point's complete simulation state each time that
	// many cycles (warm-up plus measurement) elapse. A killed sweep then
	// resumes mid-point from the last checkpoint — not just at point
	// granularity like a coordinator's result store — and the resumed run's
	// results are byte-identical to an uninterrupted one. Checkpoint files
	// are removed as their points complete.
	CheckpointEvery int
	// CheckpointDir is the directory holding per-point checkpoint files
	// (created if missing). Point identity is embedded in each file, so a
	// directory can safely be shared across different sweeps.
	CheckpointDir string
	// Progress, if non-nil, receives one line per settled point.
	Progress func(string)
	// PointRunner, if non-nil, intercepts every point's execution: RunWith
	// calls it for all points at once, each on its own goroutine, with the
	// sweep's Stop, the task and the local closure, and it may execute the
	// task anywhere — a remote fleet worker, a shared result cache — as long
	// as it returns the value the local closure would
	// (fabric.Coordinator.Execute is the one implementation: it is also
	// what keeps finished points across runs, the sweep itself stores
	// nothing). The local closure is the one place a point waits for a core of
	// this process: it simulates the point once one of the Parallel slots is
	// free, or returns ErrDrained if Stop closes first. Determinism is
	// preserved because the task carries the key and the derived seed: any
	// executor computing the point the key describes under that seed returns
	// identical bytes.
	PointRunner func(stop <-chan struct{}, t PointTask, local func() (PointResult, error)) (PointResult, error)
	// Stop, if non-nil, drains the sweep when closed: points being computed —
	// here or by a fleet worker — finish, and every point that has not
	// started is withdrawn and counted in Report.Aborted.
	Stop <-chan struct{}
	// Status, if non-nil, receives the sweep's structured progress
	// (done/total, ETA) after every settled point.
	Status func(engine.Status)
	// Metrics, if non-nil, exports live progress through its telemetry
	// registry (see engine.NewMetrics).
	Metrics *engine.Metrics
}

// ErrDrained is what executing a point returns when the sweep's Stop closed
// before the point started: from the local closure that was still waiting for
// a slot, or from a PointRunner that withdrew the point unstarted. RunWith
// counts such points in Report.Aborted, never as failures.
var ErrDrained = errors.New("harness: sweep drained before the point started")

// Run executes the experiment across all available cores. progress, if
// non-nil, receives one line per completed point (in completion order; the
// results themselves are deterministic regardless of parallelism).
func (s *Spec) Run(progress func(string)) (*Result, error) {
	res, _, err := s.RunWith(RunOptions{Progress: progress})
	return res, err
}

// PointTask is the portable identity of one point of a sweep, handed to
// RunOptions.PointRunner. Key and Seed are all a remote executor needs: the
// key is the point's spec (ParsePointKey) and the seed its random stream.
// Alg, Load and Replica locate the point within the sweep for progress lines.
type PointTask struct {
	Key     string
	Seed    uint64
	Alg     string
	Load    float64
	Replica int
}

// RunWith executes the experiment: every point starts at once on its own
// goroutine and goes to opts.PointRunner, or straight to its local closure.
// On point failures it returns the partial Result (every fully-replicated
// point that did complete), the report naming the failed points, and a
// non-nil error.
func (s *Spec) RunWith(opts RunOptions) (*Result, *engine.Report, error) {
	if err := s.Normalize(); err != nil {
		return nil, nil, err
	}
	replicas := max(opts.Replicas, 1)

	// The batch, in spec order: the order results are assembled in below.
	type point struct {
		task PointTask
		alg  AlgSpec
	}
	var points []point
	seen := make(map[string]struct{})
	for _, alg := range s.Algs {
		for _, load := range s.Loads {
			for r := 0; r < replicas; r++ {
				key := s.PointKey(alg.Label, load, r)
				if _, dup := seen[key]; dup {
					return nil, nil, fmt.Errorf("harness: duplicate point key %q", key)
				}
				seen[key] = struct{}{}
				points = append(points, point{alg: alg, task: PointTask{
					Key: key, Seed: engine.SeedFor(s.Seed, key), Alg: alg.Label, Load: load, Replica: r,
				}})
			}
		}
	}

	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(points))
	slots := make(chan struct{}, workers) // a semaphore: one token per simulating point

	type outcome struct {
		index    int
		pr       PointResult
		err      error
		attempts int
	}
	outcomes := make(chan outcome)
	for i, p := range points {
		go func() {
			po := PointOptions{Key: p.task.Key, CheckpointEvery: opts.CheckpointEvery, CheckpointDir: opts.CheckpointDir}
			local := func() (PointResult, error) {
				select {
				case slots <- struct{}{}:
				case <-opts.Stop:
					return PointResult{}, ErrDrained
				}
				defer func() { <-slots }()
				// Both were ready: the drain wins, so nothing starts after Stop.
				select {
				case <-opts.Stop:
					return PointResult{}, ErrDrained
				default:
				}
				return s.runPoint(p.alg, p.task.Load, p.task.Seed, po)
			}
			o := outcome{index: i}
			for {
				o.attempts++
				if opts.PointRunner != nil {
					o.pr, o.err = opts.PointRunner(opts.Stop, p.task, local)
				} else {
					o.pr, o.err = local()
				}
				if o.err == nil || errors.Is(o.err, ErrDrained) || o.attempts > opts.Retries {
					break
				}
			}
			outcomes <- o
		}()
	}

	// Every point reports exactly once. Progress, metrics and callbacks happen
	// here on the calling goroutine, in completion order, which the seed
	// derivation makes harmless.
	fold := engine.Begin(len(points), workers, opts.Metrics)
	results := make([]PointResult, len(points))
	completed := make([]bool, len(points))
	for range points {
		o := <-outcomes
		if errors.Is(o.err, ErrDrained) {
			continue
		}
		task, errMsg := points[o.index].task, ""
		if o.err != nil {
			errMsg = o.err.Error()
		} else {
			results[o.index], completed[o.index] = o.pr, true
		}
		st := fold.Settle(o.index, task.Key, errMsg, o.attempts)
		if opts.Progress != nil {
			line := fmt.Sprintf("[%3d/%3d] %-22s load=%.2f", st.Done+st.Failed, st.Total, task.Alg, task.Load)
			if replicas > 1 {
				line += fmt.Sprintf(" rep=%d", task.Replica)
			}
			if o.err != nil {
				line += " FAILED: " + firstLine(errMsg)
			} else {
				line += fmt.Sprintf(" latency=%8.1f thpt=%.3f seiz=%d",
					o.pr.MeanLatency, o.pr.Throughput, o.pr.TokenSeizures)
			}
			if st.ETA > 0 {
				line += fmt.Sprintf(" eta=%s", st.ETA.Round(1e9))
			}
			opts.Progress(line)
		}
		if opts.Status != nil {
			opts.Status(st)
		}
	}
	report := fold.End()

	// Assemble in spec order — never completion order — so parallel runs
	// render byte-identical tables and CSV.
	res := &Result{Spec: s, Points: make(map[string][]PointResult)}
	next := 0 // index of the current (algorithm, load)'s first replica
	for _, alg := range s.Algs {
		series := metrics.Series{Label: alg.Label}
		for _, load := range s.Loads {
			first := next
			next += replicas
			if slices.Contains(completed[first:next], false) {
				continue // failed or drained point: named or counted in the report
			}
			pr := aggregateReplicas(load, results[first:next])
			res.Points[alg.Label] = append(res.Points[alg.Label], pr)
			deadlockRate := 0.0
			if pr.WFGSamples > 0 {
				deadlockRate = float64(pr.TrueDeadlocks) / float64(pr.WFGSamples)
			}
			series.Append(metrics.Point{
				X:          pr.Load,
				Latency:    pr.MeanLatency,
				Throughput: pr.Throughput,
				Extra: map[string]float64{
					"seizure_ratio":      pr.SeizureRatio,
					"net_latency":        pr.MeanNetLatency,
					"p95":                pr.P95Latency,
					"latency_ci95":       pr.LatencyCI95,
					"throughput_ci95":    pr.ThroughputCI95,
					"true_deadlock_rate": deadlockRate,
				},
			})
		}
		res.Series = append(res.Series, series)
	}
	if report.Failed() > 0 {
		f := report.Failures[0]
		return res, report, fmt.Errorf("harness: %d/%d points failed (first: %s: %s)",
			report.Failed(), report.Total, f.Key, firstLine(f.Err))
	}
	return res, report, nil
}

// maxSweepPoints bounds curves x loads x replicas of one sweep. The paper's
// largest figure is 6 x 9 points; 65536 leaves three orders of magnitude for
// replication while keeping one request from allocating billions of jobs.
const maxSweepPoints = 65536

// CheckSweep is the one admission rule for the numbers of a sweep request,
// whoever phrases it (disha-sweep's flags, POST /jobs): values that cannot
// describe a sweep of s are refused, not read as defaults, and the job list —
// built before anything runs — is bounded by maxSweepPoints. Zero is the
// default of every field: all cores, one replica, the scale's cycle counts,
// and retries 0 — one attempt, since a point is a pure function of (key,
// seed) and a retry only helps against its environment (checkpoint I/O).
func (s *Spec) CheckSweep(parallel, replicas, retries, warmup, measure int) error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"parallel", parallel}, {"replicas", replicas}, {"retries", retries},
		{"warmup", warmup}, {"measure", measure},
	} {
		if f.v < 0 {
			return fmt.Errorf("negative %s %d", f.name, f.v)
		}
	}
	// Dividing keeps the comparison exact where the product would overflow.
	if replicas = max(replicas, 1); replicas > maxSweepPoints/(len(s.Algs)*len(s.Loads)) {
		return fmt.Errorf("%d curves x %d loads x replicas %d exceeds %d points",
			len(s.Algs), len(s.Loads), replicas, maxSweepPoints)
	}
	return nil
}

// pointKeyVersion opens every point key and names its encoding. A key in any
// other encoding — in a results file or from a coordinator of another release
// — equals no key PointKey derives and is refused by ParsePointKey, so its
// point is computed again, never served a record made under another meaning.
const pointKeyVersion = "spec/1:"

// PointKey is the identity of one (curve, load, replica) point of a
// normalized spec: pointKeyVersion, the spec's canonical JSON narrowed to that
// one curve and one load, "#" and the replica. Every field of the spec is in
// it, so two points that could compute different bytes never share a key —
// nor, through engine.SeedFor, a random stream — and no result store serves
// one for the other. It is also all a fleet worker is told: ParsePointKey
// reads the spec back.
func (s *Spec) PointKey(algLabel string, load float64, replica int) string {
	point := *s
	point.Algs, point.Loads = nil, []float64{load}
	if i := slices.IndexFunc(s.Algs, func(a AlgSpec) bool { return a.Label == algLabel }); i >= 0 {
		point.Algs = s.Algs[i : i+1]
	}
	data, _ := json.Marshal(point) // cannot fail: Normalize encoded the whole spec
	return pointKeyVersion + string(data) + "#" + strconv.Itoa(replica)
}

// ParsePointKey is PointKey's inverse: it returns the one-curve, one-load spec
// and the replica a key names. It refuses a key in another encoding, one that
// does not decode to a spec Normalize accepts, and one that does not re-encode
// to itself byte for byte, so a key it accepts names exactly one point.
func ParsePointKey(key string) (*Spec, int, error) {
	body, ok := strings.CutPrefix(key, pointKeyVersion)
	cut := strings.LastIndexByte(body, '#')
	if !ok || cut < 0 {
		return nil, 0, fmt.Errorf("harness: %.80q is not a %s point key", key, pointKeyVersion)
	}
	var s Spec
	replica, err := strconv.Atoi(body[cut+1:])
	if err == nil {
		err = json.Unmarshal([]byte(body[:cut]), &s)
	}
	if err == nil {
		err = s.Normalize()
	}
	if err == nil && (len(s.Algs) != 1 || len(s.Loads) != 1 || replica < 0 || s.PointKey(s.Algs[0].Label, s.Loads[0], replica) != key) {
		err = errors.New("not in canonical form")
	}
	if err != nil {
		return nil, 0, fmt.Errorf("harness: point key %.80q: %v", key, err)
	}
	return &s, replica, nil
}

// PointHook, when non-nil, is called with PointOptions.Key first thing in
// every point, inside its panic guard, on whichever executor runs it. It is a
// seam for tests, which hold a point there or make it panic; nothing else
// sets it.
var PointHook func(key string)

// PointOptions configures the execution of one point, whoever runs it:
// RunWith builds one per point, a fleet worker one per leased unit. All
// fields are optional; the zero value runs the point without checkpointing.
type PointOptions struct {
	// Key is the identity key of the point (Spec.PointKey). It names and
	// validates the checkpoint file, so it is required when checkpointing.
	Key string
	// CheckpointEvery/CheckpointDir enable mid-point checkpointing exactly
	// as in RunOptions: the point's full simulation state is persisted every
	// CheckpointEvery cycles, and an existing checkpoint for Key is resumed.
	CheckpointEvery int
	CheckpointDir   string
	// OnCheckpoint, if non-nil, receives the sealed checkpoint bytes after
	// every successful save — the hook a fleet worker uses to stream its
	// progress blob to the coordinator. A non-nil return aborts the point.
	OnCheckpoint func(data []byte) error
}

// RunPoint executes one (algorithm, load) point with an explicit seed and
// returns its measurement. It is the remote half of RunOptions.PointRunner:
// a fleet worker reads the spec from the key it is leased (ParsePointKey) and
// makes here the very call RunWith's local closure — the coordinator's local
// fallback — makes (runPoint), so the result bytes — and the handling of a
// point that panics — are identical wherever the point runs. The algorithm
// is selected by its curve label within this spec.
func (s *Spec) RunPoint(algLabel string, load float64, seed uint64, po PointOptions) (PointResult, error) {
	if err := s.Normalize(); err != nil {
		return PointResult{}, err
	}
	i := slices.IndexFunc(s.Algs, func(a AlgSpec) bool { return a.Label == algLabel })
	if i < 0 {
		return PointResult{}, fmt.Errorf("harness: spec %q has no curve %q", s.Name, algLabel)
	}
	return s.runPoint(s.Algs[i], load, seed, po)
}

// aggregateReplicas folds N independent runs of one point into means ± 95%
// CI (rates) and sums (event counters).
func aggregateReplicas(load float64, reps []PointResult) PointResult {
	if len(reps) == 1 {
		pr := reps[0]
		pr.Replicas = 1
		return pr
	}
	n := len(reps)
	lat := make([]float64, n)
	netLat := make([]float64, n)
	p95 := make([]float64, n)
	thpt := make([]float64, n)
	agg := PointResult{Load: load, Replicas: n}
	for i, r := range reps {
		lat[i], netLat[i], p95[i], thpt[i] = r.MeanLatency, r.MeanNetLatency, r.P95Latency, r.Throughput
		agg.Delivered += r.Delivered
		agg.Offered += r.Offered
		agg.TokenSeizures += r.TokenSeizures
		agg.TimeoutEvents += r.TimeoutEvents
		agg.TrueDeadlocks += r.TrueDeadlocks
		agg.WFGSamples += r.WFGSamples
		agg.MisrouteHops += r.MisrouteHops
		agg.PacketsLost += r.PacketsLost
	}
	agg.MeanLatency = metrics.Mean(lat)
	agg.LatencyCI95 = metrics.CI95(lat)
	agg.MeanNetLatency = metrics.Mean(netLat)
	agg.P95Latency = metrics.Mean(p95)
	agg.Throughput = metrics.Mean(thpt)
	agg.ThroughputCI95 = metrics.CI95(thpt)
	if agg.Delivered > 0 {
		agg.SeizureRatio = float64(agg.TokenSeizures) / float64(agg.Delivered)
	}
	return agg
}

// firstLine truncates multi-line errors (panic stacks) for progress output.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Normalize fills the spec's defaulted fields (curve labels and selections,
// message length, VCs, buffer depth, cycle counts, ...) from the defaults of
// the packages that own them, as RunWith and RunPoint do before deriving point
// keys, so that one experiment always encodes to the same key bytes. It
// refuses a spec whose topology or traffic name does not resolve, or that
// does not encode.
func (s *Spec) Normalize() error {
	if len(s.Algs) == 0 || len(s.Loads) == 0 {
		return fmt.Errorf("harness: spec %q incomplete", s.Name)
	}
	g, err := topology.Parse(s.Topology)
	if err != nil {
		return err
	}
	if _, err := s.Pattern(g); err != nil {
		return err
	}
	for i := range s.Algs {
		a := &s.Algs[i]
		if a.Algorithm == nil {
			return fmt.Errorf("harness: spec %q: curve %d has no algorithm", s.Name, i)
		}
		if a.Label == "" {
			a.Label = a.Algorithm.Name()
		}
		if a.Selection == nil {
			a.Selection = routing.Random()
		}
	}
	rc := router.Default()
	if s.MsgLen == 0 {
		s.MsgLen = network.DefaultMsgLen
	}
	if s.VCs == 0 {
		s.VCs = rc.VCs
	}
	if s.BufferDepth == 0 {
		s.BufferDepth = rc.BufferDepth
	}
	if s.Warmup == 0 {
		s.Warmup = 2000
	}
	if s.Measure == 0 {
		s.Measure = 6000
	}
	if s.TokenHops == 0 {
		s.TokenHops = network.DefaultTokenHopsPerCycle
	}
	if s.Batches == 0 {
		s.Batches = 5
	}
	if s.Batches < 1 {
		return fmt.Errorf("harness: batches %d < 1", s.Batches)
	}
	if _, err := json.Marshal(s); err != nil {
		return fmt.Errorf("harness: spec %q: %w", s.Name, err)
	}
	return nil
}

// runPoint measures one (algorithm, load) pair with the given simulation
// seed. Several points run it at once: everything it touches (topology,
// pattern, network) is built fresh per call, and the stateless
// algorithm/selection values are safe to share.
//
// Checkpointing options make the point resumable: progress is persisted
// every CheckpointEvery cycles, a previous checkpoint (if present) is loaded
// before the first step, and because the simulation is deterministic the
// resumed point finishes with results byte-identical to an uninterrupted run
// (TestCheckpointResumeIdenticalCSV).
//
// A panic below (the simulator keeps panic(...) invariants) comes back as an
// error carrying the stack. The guard sits here because every executor — a
// sweep's local closure, whether RunWith calls it or the coordinator does as
// its fallback, and a fleet worker's lease loop — runs a point through this
// one function, so a poison point fails the same way in all of them instead
// of killing the process that ran it.
func (s *Spec) runPoint(alg AlgSpec, load float64, seed uint64, po PointOptions) (_ PointResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	if PointHook != nil {
		PointHook(po.Key)
	}
	ck, err := newCheckpointer(po)
	if err != nil {
		return PointResult{}, err
	}
	topo := s.Topo()
	pattern, err := s.Pattern(topo)
	if err != nil {
		return PointResult{}, err
	}
	rc := router.PaperConfig(alg.Recovery, alg.Timeout, router.RecoverySequential)
	rc.VCs = s.VCs
	rc.BufferDepth = s.BufferDepth
	rc.Alloc = s.Alloc
	net, err := network.New(network.Config{
		Topo:              topo,
		Router:            rc,
		Algorithm:         alg.Algorithm,
		Selection:         alg.Selection,
		Pattern:           pattern,
		LoadRate:          load,
		MsgLen:            s.MsgLen,
		Seed:              seed,
		TokenHopsPerCycle: s.TokenHops,
	})
	if err != nil {
		return PointResult{}, err
	}

	// The resumable cursor: a fresh start begins at zero everywhere; with
	// checkpointing enabled, a prior checkpoint reloads the cursor, the
	// collectors and the network, and the loops below continue from it.
	var age, netLat, batch metrics.Collector
	st := pointProgress{nextWFG: s.WFGSampleEvery}
	if ck != nil {
		if _, err := ck.load(&st, &age, &netLat, &batch, net); err != nil {
			return PointResult{}, err
		}
		ck.arm(st.warmupRan + st.ran)
	}
	// Arm the chaos schedule after any restore: events already applied were
	// replayed from the snapshot's reconfiguration log, and ScheduleReconfig
	// drops them as stale, so a resumed point replays the remaining
	// timeline exactly.
	if len(s.Chaos) > 0 {
		if err := net.ScheduleReconfig(s.Chaos); err != nil {
			return PointResult{}, err
		}
	}

	// Warm-up: run without collecting.
	for st.warmupRan < s.Warmup {
		step := s.Warmup - st.warmupRan
		if ck != nil {
			step = ck.clamp(step, st.warmupRan+st.ran)
		}
		net.Run(step)
		st.warmupRan += step
		if ck != nil && ck.due(st.warmupRan+st.ran) {
			if err := ck.save(&st, &age, &netLat, &batch, net); err != nil {
				return PointResult{}, err
			}
		}
	}
	if !st.warmed {
		st.warmed = true
		st.startCounters = net.Counters()
	}

	// Measurement: collect latency of every packet delivered in-window,
	// batched for the confidence interval. (The callback is reattached on
	// every entry — restore does not carry it — so a resumed point collects
	// exactly the deliveries an uninterrupted run would.)
	net.OnDeliver = func(p *packet.Packet) {
		age.Add(float64(p.Age()))
		netLat.Add(float64(p.NetworkLatency()))
		batch.Add(float64(p.Age()))
	}
	pr := PointResult{Load: load}
	for b := st.batch; b < s.Batches; b++ {
		st.batch = b
		target := (b + 1) * s.Measure / s.Batches
		for st.ran < target {
			step := target - st.ran
			if s.WFGSampleEvery > 0 && st.nextWFG-st.ran < step {
				step = st.nextWFG - st.ran
			}
			if ck != nil {
				step = ck.clamp(step, st.warmupRan+st.ran)
			}
			net.Run(step)
			st.ran += step
			if s.WFGSampleEvery > 0 && st.ran >= st.nextWFG {
				w := core.AnalyzeWFG(net.Routers())
				st.wfgSamples++
				if w.TrueDeadlock() {
					st.trueDeadlocks++
				}
				st.nextWFG += s.WFGSampleEvery
			}
			if ck != nil && ck.due(st.warmupRan+st.ran) {
				if err := ck.save(&st, &age, &netLat, &batch, net); err != nil {
					return PointResult{}, err
				}
			}
		}
		if batch.Count() > 0 {
			st.batchMeans = append(st.batchMeans, batch.Mean())
		}
		batch.Reset()
	}
	pr.WFGSamples = st.wfgSamples
	pr.TrueDeadlocks = st.trueDeadlocks
	pr.LatencyCI95 = metrics.CI95(st.batchMeans)
	end := net.Counters()

	if ck != nil {
		ck.finish()
	}
	startCounters := st.startCounters
	delivered := end.PacketsDelivered - startCounters.PacketsDelivered
	flits := end.FlitsDelivered - startCounters.FlitsDelivered
	pr.Delivered = delivered
	pr.Offered = end.PacketsOffered - startCounters.PacketsOffered
	pr.MeanLatency = age.Mean()
	pr.MeanNetLatency = netLat.Mean()
	pr.P95Latency = age.Percentile(95)
	pr.TokenSeizures = end.TokenSeizures - startCounters.TokenSeizures
	pr.TimeoutEvents = end.TimeoutEvents - startCounters.TimeoutEvents
	pr.MisrouteHops = end.MisrouteHops - startCounters.MisrouteHops
	pr.PacketsLost = end.PacketsLost - startCounters.PacketsLost
	if delivered > 0 {
		pr.SeizureRatio = float64(pr.TokenSeizures) / float64(delivered)
	}

	// Normalized accepted traffic: flits/node/cycle over the network's
	// capacity (the load normalization of Section 4.1 in reverse).
	ms := traffic.MeasureMean(topo, pattern, 64)
	capacityFPC := float64(traffic.TotalChannels(topo)) / (float64(topo.Nodes()) * ms.MeanDistance)
	accepted := float64(flits) / (float64(s.Measure) * float64(topo.Nodes()))
	pr.Throughput = accepted / capacityFPC
	return pr, nil
}

// --- Rendering -----------------------------------------------------------------

// LatencyTable renders mean latency vs load, one column per curve.
func (r *Result) LatencyTable() string {
	return r.table("latency (cycles)", func(p PointResult) float64 { return p.MeanLatency }, "%10.1f")
}

// ThroughputTable renders normalized accepted traffic vs load.
func (r *Result) ThroughputTable() string {
	return r.table("throughput (fraction of capacity)", func(p PointResult) float64 { return p.Throughput }, "%10.3f")
}

// SeizureTable renders token seizures normalized by delivered packets.
func (r *Result) SeizureTable() string {
	return r.table("token seizures / delivered packet", func(p PointResult) float64 { return p.SeizureRatio }, "%10.5f")
}

func (r *Result) table(title string, f func(PointResult) float64, cellFmt string) string {
	labels := make([]string, 0, len(r.Points))
	for l := range r.Points {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", r.Spec.Name, title)
	fmt.Fprintf(&sb, "%6s", "load")
	for _, l := range labels {
		fmt.Fprintf(&sb, " %20s", l)
	}
	sb.WriteString("\n")
	for i, load := range r.Spec.Loads {
		fmt.Fprintf(&sb, "%6.2f", load)
		for _, l := range labels {
			pts := r.Points[l]
			if i < len(pts) {
				fmt.Fprintf(&sb, " %20s", fmt.Sprintf(cellFmt, f(pts[i])))
			} else {
				fmt.Fprintf(&sb, " %20s", "-")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// CSV renders every curve's points as CSV (one block per curve).
func (r *Result) CSV() string {
	var sb strings.Builder
	for _, s := range r.Series {
		sb.WriteString(s.CSV())
	}
	return sb.String()
}

// SaturationSummary reports each curve's saturation load (latency > 3x
// zero-load) and peak throughput — the numbers the paper quotes in prose.
func (r *Result) SaturationSummary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — saturation summary\n", r.Spec.Name)
	fmt.Fprintf(&sb, "%-22s %12s %12s\n", "curve", "saturation", "peak-thpt")
	for _, s := range r.Series {
		fmt.Fprintf(&sb, "%-22s %12.2f %12.3f\n", s.Label, s.SaturationLoad(3), s.PeakThroughput())
	}
	return sb.String()
}
