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
	"time"

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
// algorithm, the selection and the recovery mode by the names
// routing.ByName, routing.SelectionByName and router.ParseRecoveryMode read.
type AlgSpec struct {
	// Label names the curve; Normalize defaults it to the algorithm name.
	Label     string
	Algorithm routing.Algorithm
	// Selection defaults to random (the paper simulates Dally & Aoki with
	// minimum-congestion and everything else with random selection);
	// Normalize fills it in.
	Selection routing.Selection
	// Recovery, Mode and Timeout are router.PaperConfig's arguments: Recovery
	// arms detection and the Deadlock Buffer (Disha needs it unless the
	// topology cannot deadlock; avoidance schemes run without), Mode picks
	// the scheme and Timeout is T_out (0 = the paper's 8).
	Recovery bool
	Mode     router.RecoveryMode
	Timeout  sim.Cycle
}

// algNames is AlgSpec's JSON form. Sequential recovery writes no Mode, so a
// sequential curve keeps the key it had before curves carried a mode.
type algNames struct {
	Label, Algorithm, Selection string
	Recovery                    bool
	Timeout                     sim.Cycle
	Mode                        string `json:",omitempty"`
}

// MarshalJSON writes a normalized curve with its algorithm, selection and
// recovery mode by name.
func (a AlgSpec) MarshalJSON() ([]byte, error) {
	n := algNames{a.Label, a.Algorithm.Name(), a.Selection.Name(), a.Recovery, a.Timeout, ""}
	if a.Mode != router.RecoverySequential {
		n.Mode = a.Mode.String()
	}
	return json.Marshal(n)
}

// UnmarshalJSON resolves the names MarshalJSON wrote.
func (a *AlgSpec) UnmarshalJSON(data []byte) error {
	var n algNames
	err := json.Unmarshal(data, &n)
	if err == nil {
		*a, err = n.resolve()
	}
	return err
}

// resolve is the one reading of a curve's names, for a point key and for the
// command line (PointFlags) alike.
func (n algNames) resolve() (a AlgSpec, err error) {
	a = AlgSpec{Label: n.Label, Recovery: n.Recovery, Timeout: n.Timeout}
	if a.Algorithm, err = routing.ByName(n.Algorithm); err == nil {
		a.Selection, err = routing.SelectionByName(n.Selection)
	}
	if err == nil && n.Mode != "" {
		a.Mode, err = router.ParseRecoveryMode(n.Mode)
	}
	return a, err
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
	// HotspotFraction of all traffic to node Nodes()/3, nil meaning the
	// paper's 5%.
	Traffic         string
	HotspotFraction *float64 `json:",omitempty"`
	Algs            []AlgSpec
	// Loads are the offered load rates swept (fraction of capacity).
	Loads  []float64
	MsgLen int
	// Router parameters shared by all curves (recovery is per AlgSpec). Rx
	// is the flits per cycle a node consumes; 0 is the paper's one
	// reception channel.
	VCs, BufferDepth int
	Rx               int `json:",omitempty"`
	Alloc            router.AllocPolicy
	// Warmup cycles run before measurement; Measure cycles are observed.
	Warmup, Measure int
	Seed            uint64
	TokenHops       int
	// Throttle, when positive, stops a node injecting while it has this many
	// packets outstanding (the injection limitation of the paper's §4.3.3).
	Throttle int `json:",omitempty"`
	// WFGSampleEvery, when positive, runs the wait-for-graph analyzer every
	// that many cycles during measurement and records true-deadlock
	// statistics (used for the deadlock characterization experiment).
	WFGSampleEvery int
	// Batches splits the measurement window for batch-means confidence
	// intervals on the latency estimate (default 5; 1 disables).
	Batches int
	// Chaos, when non-empty, arms this reconfiguration event schedule on
	// every point's network. Event cycles are global: warm-up plus
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
	fraction := hotspotFraction
	if s.HotspotFraction != nil {
		fraction = *s.HotspotFraction
	}
	return traffic.ByName(s.Traffic, g, fraction)
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

// Result bundles an experiment's curves: each curve's completed points in
// load order, keyed by its label. The CSV, the saturation summary and the
// charts walk the curves in Spec.Algs order, so a curve with no completed
// point keeps its place in each.
type Result struct {
	Spec   *Spec
	Points map[string][]PointResult
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
	Status func(Status)
	// Metrics, if non-nil, exports live progress through its telemetry
	// registry (see NewMetrics).
	Metrics *Metrics
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
// goroutine and goes to opts.PointRunner, or straight to its local closure,
// once. A point is a pure function of (key, seed), so running it again would
// repeat its error; rerunning the sweep over the same result store
// recomputes only the failed points.
// On point failures it returns the partial Result (every fully-replicated
// point that did complete), the report naming the failed points, and a
// non-nil error.
func (s *Spec) RunWith(opts RunOptions) (*Result, *Report, error) {
	points, err := s.Tasks(opts.Replicas)
	if err != nil {
		return nil, nil, err
	}
	replicas := max(opts.Replicas, 1)

	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(points))
	slots := make(chan struct{}, workers) // a semaphore: one token per simulating point

	type outcome struct {
		index int
		pr    PointResult
		err   error
	}
	outcomes := make(chan outcome)
	for i, p := range points {
		alg := s.Algs[i/(len(s.Loads)*replicas)] // Tasks lists the points curve by curve
		go func() {
			po := PointOptions{Key: p.Key}
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
				return s.runPoint(alg, p.Load, p.Seed, po)
			}
			o := outcome{index: i}
			if opts.PointRunner != nil {
				o.pr, o.err = opts.PointRunner(opts.Stop, p, local)
			} else {
				o.pr, o.err = local()
			}
			outcomes <- o
		}()
	}

	// Every point reports exactly once. Progress, metrics and callbacks happen
	// here on the calling goroutine, in completion order, which the seed
	// derivation makes harmless. A point that never settles is one a drain
	// withdrew.
	start, st := time.Now(), Status{Total: len(points)}
	if opts.Metrics != nil {
		opts.Metrics.beginRun(st.Total)
	}
	results := make([]PointResult, len(points))
	completed := make([]bool, len(points))
	errs := make([]error, len(points))
	for range points {
		o := <-outcomes
		if errors.Is(o.err, ErrDrained) {
			continue
		}
		task := points[o.index]
		if o.err != nil {
			st.Failed++
			errs[o.index] = o.err
		} else {
			st.Done++
			results[o.index], completed[o.index] = o.pr, true
		}
		st.Elapsed, st.ETA = time.Since(start), 0
		if remaining := st.Total - st.Done - st.Failed; st.Done > 0 && remaining > 0 {
			st.ETA = time.Duration(float64(st.Elapsed) / float64(st.Done) * float64(remaining))
		}
		if opts.Metrics != nil {
			opts.Metrics.observe(st, o.err != nil)
		}
		if opts.Progress != nil {
			line := fmt.Sprintf("[%3d/%3d] %-22s load=%.2f", st.Done+st.Failed, st.Total, task.Alg, task.Load)
			if replicas > 1 {
				line += fmt.Sprintf(" rep=%d", task.Replica)
			}
			if o.err != nil {
				line += " FAILED: " + firstLine(o.err.Error())
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
	st.Elapsed = time.Since(start)
	if opts.Metrics != nil {
		opts.Metrics.endRun(st)
	}
	report := &Report{
		Total: st.Total, Completed: st.Done, Aborted: st.Total - st.Done - st.Failed,
		Elapsed: st.Elapsed, Workers: workers,
	}
	for i, err := range errs { // batch order, not completion order
		if err != nil {
			report.Failures = append(report.Failures, Failure{Key: points[i].Key, Err: err.Error()})
		}
	}

	// A failed or drained point is named or counted in the report.
	res := s.Collect(replicas, func(i int) (PointResult, bool) { return results[i], completed[i] })
	if report.Failed() > 0 {
		f := report.Failures[0]
		return res, report, fmt.Errorf("harness: %d/%d points failed (first: %s: %s)",
			report.Failed(), report.Total, f.Key, firstLine(f.Err))
	}
	return res, report, nil
}

// Tasks lists the points of a sweep of s with replicas runs each (0 means 1)
// in spec order — curve by curve, load by load, replica by replica — each
// with its key and seed: the batch RunWith offers its PointRunner, and the
// order Collect reads. It normalizes s first, and refuses a sweep in which
// two points share a key.
func (s *Spec) Tasks(replicas int) ([]PointTask, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	replicas = max(replicas, 1)
	tasks := make([]PointTask, 0, len(s.Algs)*len(s.Loads)*replicas)
	seen := make(map[string]struct{}, cap(tasks))
	for _, alg := range s.Algs {
		for _, load := range s.Loads {
			for r := 0; r < replicas; r++ {
				key := s.PointKey(alg.Label, load, r)
				if _, dup := seen[key]; dup {
					return nil, fmt.Errorf("harness: duplicate point key %q", key)
				}
				seen[key] = struct{}{}
				tasks = append(tasks, PointTask{
					Key: key, Seed: engine.SeedFor(s.Seed, key), Alg: alg.Label, Load: load, Replica: r,
				})
			}
		}
	}
	return tasks, nil
}

// Collect builds the Result of a sweep of s with replicas runs each (0 means
// 1) from its points' results: get(i) returns the result of point i of
// Tasks(replicas) and whether that point completed. It assembles in spec
// order — never completion order — so parallel runs render byte-identical
// tables and CSV, and folds each (curve, load)'s replicas into one point; a
// (curve, load) with a replica that did not complete is left out. RunWith
// builds its Result here, and the job server builds a settled job's from the
// result store.
func (s *Spec) Collect(replicas int, get func(i int) (PointResult, bool)) *Result {
	replicas = max(replicas, 1)
	res := &Result{Spec: s, Points: make(map[string][]PointResult)}
	reps := make([]PointResult, replicas)
	for a, alg := range s.Algs {
		for l, load := range s.Loads {
			first := (a*len(s.Loads) + l) * replicas
			complete := true
			for r := 0; r < replicas && complete; r++ {
				reps[r], complete = get(first + r)
			}
			if complete {
				res.Points[alg.Label] = append(res.Points[alg.Label], aggregateReplicas(load, reps))
			}
		}
	}
	return res
}

// maxSweepPoints bounds curves x loads x replicas of one sweep. The paper's
// largest figure is 6 x 9 points; 65536 leaves three orders of magnitude for
// replication while keeping one request from allocating billions of jobs.
const maxSweepPoints = 65536

// CheckSweep is the one admission rule for the numbers of a sweep request,
// whoever phrases it (disha-sweep's flags, POST /jobs): values that cannot
// describe a sweep of s are refused, not read as defaults, and the job list —
// built before anything runs — is bounded by maxSweepPoints. Zero is the
// default of every field: all cores, one replica, the scale's cycle counts.
func (s *Spec) CheckSweep(parallel, replicas, warmup, measure int) error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"parallel", parallel}, {"replicas", replicas},
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
// RunWith builds one per point, a fleet worker one per leased unit. The zero
// value is valid.
type PointOptions struct {
	// Key is the identity key of the point (Spec.PointKey), which PointHook
	// receives.
	Key string
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
// keys, so that one experiment always encodes to the same key bytes; the
// fields that encode as absent when zero (Rx, HotspotFraction) are set to
// zero when they hold the default. It refuses a spec whose topology or
// traffic name does not resolve, a curve the topology cannot run at the
// spec's VCs (network.Admits), and a spec that does not encode.
func (s *Spec) Normalize() error {
	if len(s.Algs) == 0 || len(s.Loads) == 0 {
		return fmt.Errorf("harness: spec %q incomplete", s.Name)
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
	if s.Rx == rc.ReceptionChannels {
		s.Rx = 0
	}
	if f := s.HotspotFraction; f != nil && *f == hotspotFraction {
		s.HotspotFraction = nil
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
		if err := network.Admits(a.Algorithm, g, s.VCs); err != nil {
			return fmt.Errorf("harness: curve %s: %w", a.Label, err)
		}
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
// algorithm/selection values are safe to share. A point always runs from
// cycle 0: a killed sweep loses only its points in flight, and a rerun over
// the same result store recomputes exactly those.
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
	cfg, err := s.NetworkConfig(alg, load, seed)
	if err != nil {
		return PointResult{}, err
	}
	net, err := network.New(cfg)
	if err != nil {
		return PointResult{}, err
	}
	if len(s.Chaos) > 0 {
		if err := net.ScheduleReconfig(s.Chaos); err != nil {
			return PointResult{}, err
		}
	}

	// Warm-up: run without collecting.
	net.Run(s.Warmup)
	startCounters := net.Counters()

	// Measurement: collect latency of every packet delivered in-window,
	// batched for the confidence interval.
	var age, netLat, batch metrics.Collector
	net.OnDeliver = func(p *packet.Packet) {
		age.Add(float64(p.Age()))
		netLat.Add(float64(p.NetworkLatency()))
		batch.Add(float64(p.Age()))
	}
	pr := PointResult{Load: load}
	var batchMeans []float64
	ran, nextWFG := 0, s.WFGSampleEvery
	for b := range s.Batches {
		target := (b + 1) * s.Measure / s.Batches
		for ran < target {
			step := target - ran
			if s.WFGSampleEvery > 0 && nextWFG-ran < step {
				step = nextWFG - ran
			}
			net.Run(step)
			ran += step
			if s.WFGSampleEvery > 0 && ran >= nextWFG {
				pr.WFGSamples++
				if core.AnalyzeWFG(net.Routers()).TrueDeadlock() {
					pr.TrueDeadlocks++
				}
				nextWFG += s.WFGSampleEvery
			}
		}
		if batch.Count() > 0 {
			batchMeans = append(batchMeans, batch.Mean())
		}
		batch.Reset()
	}
	pr.LatencyCI95 = metrics.CI95(batchMeans)
	end := net.Counters()

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
	accepted := float64(flits) / (float64(s.Measure) * float64(cfg.Topo.Nodes()))
	pr.Throughput = accepted / net.Capacity()
	return pr, nil
}

// NetworkConfig is the one assembly of a point's network: curve alg of the
// normalized spec s at load, under the simulation seed. runPoint builds every
// sweep point from it, and disha-sim and disha-bisect their one point.
func (s *Spec) NetworkConfig(alg AlgSpec, load float64, seed uint64) (network.Config, error) {
	topo := s.Topo()
	pattern, err := s.Pattern(topo)
	if err != nil {
		return network.Config{}, err
	}
	rc := router.PaperConfig(alg.Recovery, alg.Timeout, alg.Mode)
	rc.VCs = s.VCs
	rc.BufferDepth = s.BufferDepth
	rc.Alloc = s.Alloc
	rc.ReceptionChannels = s.Rx
	return network.Config{
		Topo:              topo,
		Router:            rc,
		Algorithm:         alg.Algorithm,
		Selection:         alg.Selection,
		Pattern:           pattern,
		LoadRate:          load,
		MsgLen:            s.MsgLen,
		Seed:              seed,
		TokenHopsPerCycle: s.TokenHops,
		InjectionThrottle: s.Throttle,
	}, nil
}

// Describe renders the normalized spec's first curve at its first load on
// one line, for run and trace headers: names as they resolved, and the
// recovery as router.PaperConfig arms it, so a header never states a T_out
// other than the one simulated.
func (s *Spec) Describe() string {
	a, g := s.Algs[0], s.Topo()
	pattern, _ := s.Pattern(g) // Normalize built it once already
	recovery := "no recovery"
	if rc := router.PaperConfig(a.Recovery, a.Timeout, a.Mode); a.Recovery {
		recovery = fmt.Sprintf("%s recovery, T_out %d", rc.Recovery, rc.Timeout)
	}
	return fmt.Sprintf("%s | %s | %s | load %.2f | %d-flit messages | %d VCs x depth %d | %s | %s selection | seed %d",
		g.Name(), a.Algorithm.Name(), pattern.Name(), s.Loads[0], s.MsgLen, s.VCs, s.BufferDepth,
		recovery, a.Selection.Name(), s.Seed)
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
	for _, load := range r.Spec.Loads {
		fmt.Fprintf(&sb, "%6.2f", load)
		for _, l := range labels {
			cell := "-" // the point failed or was drained
			if i := slices.IndexFunc(r.Points[l], func(p PointResult) bool { return p.Load == load }); i >= 0 {
				cell = fmt.Sprintf(cellFmt, f(r.Points[l][i]))
			}
			fmt.Fprintf(&sb, " %20s", cell)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// csvHeader opens every curve's CSV block: the curve, the offered load, mean
// latency and throughput, then the other columns in name order.
const csvHeader = "series,load,latency,throughput,latency_ci95,net_latency,p95,seizure_ratio,throughput_ci95,true_deadlock_rate\n"

// CSV renders every curve's points as CSV, one block per curve in Spec.Algs
// order, each under its own header.
func (r *Result) CSV() string {
	var sb strings.Builder
	for _, alg := range r.Spec.Algs {
		sb.WriteString(csvHeader)
		for _, p := range r.Points[alg.Label] {
			deadlockRate := 0.0
			if p.WFGSamples > 0 {
				deadlockRate = float64(p.TrueDeadlocks) / float64(p.WFGSamples)
			}
			fmt.Fprintf(&sb, "%s,%.4f,%.3f,%.4f,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g\n",
				alg.Label, p.Load, p.MeanLatency, p.Throughput, p.LatencyCI95, p.MeanNetLatency,
				p.P95Latency, p.SeizureRatio, p.ThroughputCI95, deadlockRate)
		}
	}
	return sb.String()
}

// SaturationSummary reports each curve's saturation load (latency > 3x
// zero-load) and peak throughput — the numbers the paper quotes in prose.
func (r *Result) SaturationSummary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — saturation summary\n", r.Spec.Name)
	fmt.Fprintf(&sb, "%-22s %12s %12s\n", "curve", "saturation", "peak-thpt")
	for _, alg := range r.Spec.Algs {
		pts := r.Points[alg.Label]
		fmt.Fprintf(&sb, "%-22s %12.2f %12.3f\n", alg.Label, SaturationLoad(pts, 3), PeakThroughput(pts))
	}
	return sb.String()
}

// SaturationLoad estimates the saturation point of a latency-vs-load curve:
// the smallest load whose mean latency exceeds threshold times the zero-load
// latency (the curve's first point). It returns the last load plus one step
// if the curve never saturates within the sweep, and 0 for no points.
func SaturationLoad(pts []PointResult, threshold float64) float64 {
	if len(pts) == 0 {
		return 0
	}
	base := pts[0].MeanLatency
	if base <= 0 {
		base = 1
	}
	for _, p := range pts {
		if p.MeanLatency > base*threshold {
			return p.Load
		}
	}
	last := pts[len(pts)-1].Load
	if len(pts) > 1 {
		last += pts[len(pts)-1].Load - pts[len(pts)-2].Load
	}
	return last
}

// PeakThroughput returns the highest throughput a curve reaches, or 0 for no
// points.
func PeakThroughput(pts []PointResult) float64 {
	peak := 0.0
	for _, p := range pts {
		if p.Throughput > peak {
			peak = p.Throughput
		}
	}
	return peak
}
