package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	disha "repro"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/jobserver"
	"repro/internal/traffic"
)

// fleet is the serving stack in one process: a job server whose sweeps go
// through a coordinator to one worker over a loopback HTTP server, and the
// closed-loop client's connection to it.
type fleet struct {
	coord      *fabric.Coordinator
	srv        *jobserver.Server
	ts         *httptest.Server
	client     *http.Client
	stopWorker func()
	probe      *fleetProbe // nil when untraced
}

// startFleet brings the stack up and returns once the worker has registered.
// With a probe, the handler and the worker's HTTP client are wrapped to time
// every request from outside.
func startFleet(dir string, probe *fleetProbe) (*fleet, error) {
	// A 1 s lease TTL makes workers poll at the coordinator's 100 ms floor.
	// The 15 s default polls every 1.5 s, which would make a 0.3 s job's
	// latency a coin toss on where in the poll cycle it arrived.
	f := &fleet{probe: probe, coord: fabric.NewCoordinator(fabric.CoordinatorOptions{LeaseTTL: time.Second})}
	var err error
	if f.srv, err = jobserver.NewWithOptions(jobserver.Options{Fleet: f.coord}); err != nil {
		f.coord.Close()
		return nil, err
	}
	handler := f.srv.Handler()
	workerClient := &http.Client{Timeout: 30 * time.Second}
	if probe != nil {
		handler = probe.middleware(handler)
		workerClient.Transport = &probeTransport{probe: probe, next: http.DefaultTransport}
	}
	f.ts = httptest.NewServer(handler)
	// One client, one connection: each request waits for the previous reply.
	f.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: time.Minute}

	ctx, cancel := context.WithCancel(context.Background())
	worker := fabric.NewWorker(fabric.WorkerOptions{
		Coordinator:   f.ts.URL + "/fleet",
		ID:            "bench-worker",
		Parallel:      workerSlots(),
		CheckpointDir: dir,
		Client:        workerClient,
	})
	done := make(chan error, 1)
	go func() { done <- worker.Run(ctx) }()
	f.stopWorker = func() { cancel(); <-done }

	for deadline := time.Now().Add(10 * time.Second); f.coord.Stats().WorkersLive == 0; {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("fleet worker did not register within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// close stops the worker, the servers and the client's connection, and
// returns once they have ended.
func (f *fleet) close() {
	f.stopWorker()
	f.client.CloseIdleConnections()
	f.ts.Close()
	f.srv.Close()
	f.coord.Close()
}

// jobTiming is one job as the client saw it, in seconds.
type jobTiming struct {
	total float64 // POST sent -> last CSV byte
	polls int
}

// runJob submits req, polls its status every 2 ms until it settles, and
// fetches the CSV. Any refusal or failure is returned as an error.
func (f *fleet) runJob(req jobserver.SweepRequest, tr *tracer, parent int, name string) (string, jobTiming, error) {
	var jt jobTiming
	body, err := json.Marshal(req)
	if err != nil {
		return "", jt, err
	}
	id := tr.start(parent, name)
	defer tr.end(id)
	if f.probe != nil {
		f.probe.beginJob(id)
		defer f.probe.endJob()
	}
	t0 := time.Now()

	var st jobserver.JobStatus
	sp := tr.start(id, "client.submit")
	code, err := f.do("POST", "/jobs", body, &st)
	tr.end(sp)
	if err != nil {
		return "", jt, err
	}
	if code != http.StatusAccepted {
		return "", jt, fmt.Errorf("POST /jobs: status %d", code)
	}
	if f.probe != nil {
		f.probe.accepted()
	}
	sp = tr.start(id, "client.poll")
	for st.State != "done" {
		if st.State == "failed" {
			tr.end(sp)
			return "", jt, fmt.Errorf("job %s failed: %s", st.ID, st.Error)
		}
		if time.Since(t0) > time.Minute {
			tr.end(sp)
			return "", jt, fmt.Errorf("job %s still %s after a minute", st.ID, st.State)
		}
		time.Sleep(2 * time.Millisecond)
		jt.polls++
		if _, err := f.do("GET", "/jobs/"+st.ID, nil, &st); err != nil {
			tr.end(sp)
			return "", jt, err
		}
	}
	tr.end(sp)
	sp = tr.start(id, "client.csv")
	var csv []byte
	code, err = f.do("GET", "/jobs/"+st.ID+"/result.csv", nil, &csv)
	tr.end(sp)
	if err != nil {
		return "", jt, err
	}
	if code != http.StatusOK {
		return "", jt, fmt.Errorf("GET result.csv: status %d", code)
	}
	jt.total = time.Since(t0).Seconds()
	return string(csv), jt, nil
}

// do sends one request and decodes the reply into out: raw bytes for a
// *[]byte, JSON otherwise.
func (f *fleet) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, f.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return resp.StatusCode, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %w", method, path, resp.StatusCode, err)
	}
	return resp.StatusCode, nil
}

func (s *serveSpec) request(seed uint64) jobserver.SweepRequest {
	return jobserver.SweepRequest{
		Figure: s.figure, Scale: s.scale, Loads: s.loads,
		Warmup: s.warmup, Measure: s.measure,
		Parallel: workerSlots(), Seed: seed,
	}
}

func (s *serveSpec) spec(seed uint64) (*harness.Spec, error) {
	spec, err := harness.SpecFor(s.figure, s.scale, s.warmup, s.measure, seed, s.loads)
	if err != nil {
		return nil, err
	}
	return spec, spec.Normalize()
}

// csvStats are the simulated results a CSV carries: per sweep point, the mean
// and 95th-percentile latency in cycles and the accepted share of capacity.
type csvStats struct {
	points                   int
	latency, p95, throughput float64 // sums over points
}

func (c *csvStats) add(csv string) error {
	var col map[string]int
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n") {
		f := strings.Split(line, ",")
		if f[0] == "series" { // every curve's block starts with a header
			col = make(map[string]int)
			for i, name := range f {
				col[name] = i
			}
			continue
		}
		for name, dst := range map[string]*float64{"latency": &c.latency, "p95": &c.p95, "throughput": &c.throughput} {
			i, ok := col[name]
			if !ok || i >= len(f) {
				return fmt.Errorf("csv row %q has no %s column", line, name)
			}
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return fmt.Errorf("csv row %q: %w", line, err)
			}
			*dst += v
		}
		c.points++
	}
	return nil
}

// rounds is the closed-loop client: per round one cold job with a fresh seed,
// then the identical request again, which the fabric's result cache serves.
type roundsResult struct {
	cold, cached []float64 // job latencies, seconds
	polls        int
	stats        csvStats // cold jobs only
	points       int      // rows in every CSV returned, cold and cached
	wallS        float64
	firstCSV     string
	digest       [32]byte
}

func (f *fleet) rounds(s *serveSpec, n int, base uint64, o *ops, tr *tracer, parent int, deadline time.Time) roundsResult {
	var r roundsResult
	h := sha256.New()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if time.Now().After(deadline) {
			o.check(false, "stopped after %d of %d rounds: host far slower than the plan assumes", i, n)
			break
		}
		req := s.request(base + uint64(i))
		csv, jt, err := f.runJob(req, tr, parent, "job.cold")
		before := r.stats.points
		if err == nil {
			err = r.stats.add(csv)
		}
		o.check(err == nil, "cold job, seed %d: %v", req.Seed, err)
		if err != nil {
			continue
		}
		rows := r.stats.points - before
		r.cold = append(r.cold, jt.total)
		r.polls += jt.polls
		r.points += rows
		io.WriteString(h, csv)
		if i == 0 {
			r.firstCSV = csv
		}

		again, jt, err := f.runJob(req, tr, parent, "job.cached")
		if err == nil && again != csv {
			err = fmt.Errorf("CSV differs from its cold twin")
		}
		o.check(err == nil, "cached job, seed %d: %v", req.Seed, err)
		if err == nil {
			r.cached = append(r.cached, jt.total)
			r.points += rows
		}
	}
	r.wallS = time.Since(t0).Seconds()
	h.Sum(r.digest[:0])
	return r
}

// warmSeed is the un-timed first job of every fleet: it fills the HTTP
// connection pool and grows the heap before anything is measured.
const warmSeed = 0xbe9c

// setupFleet is the serving workload's set-up: the stack comes up, the worker
// registers, and one warm-up job runs end to end.
func (s *serveSpec) setupFleet(dir string, probe *fleetProbe) (*fleet, float64, error) {
	t0 := time.Now()
	f, err := startFleet(dir, probe)
	if err != nil {
		return nil, 0, err
	}
	if _, _, err := f.runJob(s.request(warmSeed), nil, 0, ""); err != nil {
		f.close()
		return nil, 0, fmt.Errorf("warm-up job: %w", err)
	}
	return f, time.Since(t0).Seconds(), nil
}

// jobSeedBase spreads the run's seed so that rounds of different runs never
// share a job seed (a shared seed would be a cache hit, not a cold job).
func jobSeedBase(seed uint64) uint64 { return seed*1_000_000 + 1 }

func (w *workload) serveEndToEnd(rc runConfig, o *ops, m metricSet) ([]string, error) {
	s := w.serve
	var setups []float64
	var f *fleet
	for i := 0; i < 3; i++ {
		if f != nil {
			f.close()
		}
		var setupS float64
		var err error
		if f, setupS, err = s.setupFleet(rc.workDir, nil); err != nil {
			return nil, err
		}
		setups = append(setups, setupS)
	}
	defer f.close()

	n := s.rounds(rc.seconds)
	r := f.rounds(s, n, jobSeedBase(rc.seeds[0]), o, nil, 0, rc.deadline)

	heapMB := liveHeapMB()

	// The fabric is a transport, never a transform: the first job's CSV must
	// be what the harness computes directly for the same request.
	spec, err := s.spec(jobSeedBase(rc.seeds[0]))
	if err != nil {
		return nil, err
	}
	direct, _, err := spec.RunWith(harness.RunOptions{Parallel: workerSlots()})
	o.check(err == nil && direct.CSV() == r.firstCSV, "first job's CSV differs from a direct Spec.RunWith (error: %v)", err)

	capacity, err := capacityFlitsPerNodeCycle(spec)
	if err != nil {
		return nil, err
	}
	pts := float64(r.stats.points)
	cyclesPerPoint := float64(s.warmup + s.measure)
	m.host("setup_s", median(setups), len(setups))
	m.host("sim_cycles_per_s", ratio(pts*cyclesPerPoint, r.wallS), len(r.cold))
	m.host("live_heap_mb", heapMB, 1)
	// Per sweep point the CSV gives a mean and a p95; both are averaged over
	// the points of all cold jobs.
	m.sim("sim_latency_cycles_mean", ratio(r.stats.latency, pts), r.stats.points)
	m.sim("sim_latency_cycles_p95", ratio(r.stats.p95, pts), r.stats.points)
	m.sim("sim_accepted_flits_per_node_cycle", ratio(r.stats.throughput, pts)*capacity, r.stats.points)
	m.host("job_latency_s_p50", median(r.cold), len(r.cold))
	m.host("job_latency_s_p90", percentile(r.cold, 90), len(r.cold))
	m.host("points_per_s", ratio(float64(r.points), r.wallS), len(r.cold)+len(r.cached))
	return []string{fmt.Sprintf("%x", r.digest)}, nil
}

// capacityFlitsPerNodeCycle is the harness's load normalisation in reverse:
// the CSV's throughput column times this is accepted flits per node per cycle.
func capacityFlitsPerNodeCycle(spec *harness.Spec) (float64, error) {
	topo := spec.Topo()
	pat, err := spec.Pattern(topo)
	if err != nil {
		return 0, err
	}
	mean := traffic.MeasureMean(topo, pat, 64)
	return float64(traffic.TotalChannels(topo)) / (float64(topo.Nodes()) * mean.MeanDistance), nil
}

// serveTraced is the traced pass: the kernel's own profile on one of the
// request's points, then the same rounds untraced and with every request timed
// from outside, then each layer under the job server called directly on the
// first request.
func (w *workload) serveTraced(rc runConfig, o *ops, m metricSet, tr *tracer) error {
	s := w.serve
	root := tr.start(0, w.name)
	defer tr.end(root)
	base := jobSeedBase(rc.seeds[0])
	spec, err := s.spec(base)
	if err != nil {
		return err
	}

	// The kernel inside the served points: the first curve (Disha M=0) at the
	// request's median load, profiled like the kernel workloads are. (At the
	// highest load M=0 is past saturation: its source queues, and with them
	// the snapshot and the drain, grow with run length.) It runs first, while
	// the process is quiet: network.allocs_per_kcycle counts every allocation
	// in the process, a closed fleet's dying goroutines included.
	k := &kernelSpec{
		topo:    func() (disha.Graph, error) { return spec.Topo(), nil },
		pattern: spec.Pattern, vcs: spec.VCs, msgLen: spec.MsgLen,
		load: spec.Loads[(len(spec.Loads)-1)/2], warmup: spec.Warmup, block: spec.Measure,
		rate: 24000,
	}
	if err := k.traced(rc.seeds[0], rc.seconds/4, rc.deadline, o, m, tr, root); err != nil {
		return err
	}

	coldMS, overheadPct, jobs, err := s.tracedRounds(rc, base, o, m, tr, root)
	if err != nil {
		return err
	}
	sweepMS, newMS, err := directLayers(spec, m, tr, root)
	if err != nil {
		return err
	}
	m.host("fabric.dispatch_overhead_ms", coldMS-sweepMS, jobs)
	// Construction is paid once per point here, so report the points' mean;
	// and the traced run that matters to a user of this workload is the job.
	m.host("network.new_ms", mean(newMS), len(newMS))
	m.host("telemetry.trace_overhead_pct", overheadPct, jobs)
	return nil
}

// tracedRounds runs a quarter of the rounds untraced and again with the probe
// in place, and reports the job server's and the fabric's numbers. It returns
// the traced cold job's median milliseconds, the tracing overhead on points
// per second, and the cold job count.
func (s *serveSpec) tracedRounds(rc runConfig, base uint64, o *ops, m metricSet, tr *tracer, root int) (coldMS, overheadPct float64, jobs int, err error) {
	n := s.rounds(rc.seconds / 4)
	f, _, err := s.setupFleet(rc.workDir, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	ref := f.rounds(s, n, base, o, nil, 0, rc.deadline)
	f.close()

	probe := &fleetProbe{tr: tr, root: root}
	if f, _, err = s.setupFleet(rc.workDir, probe); err != nil {
		return 0, 0, 0, err
	}
	r := f.rounds(s, n, base, o, tr, root, rc.deadline)
	stats := f.coord.Stats()
	f.close()

	byName := durationsByName(tr.all())
	for metricName, spanName := range map[string]string{
		"jobserver.submit_ms": "jobserver.submit", "jobserver.status_ms": "jobserver.status", "jobserver.csv_ms": "jobserver.csv",
		"fabric.lease_rtt_ms": "fabric.lease", "fabric.result_upload_ms": "fabric.result",
	} {
		m.host(metricName, mean(byName[spanName]), len(byName[spanName]))
	}
	m.host("jobserver.polls_per_job", ratio(float64(r.polls), float64(len(r.cold))), len(r.cold))
	m.host("fabric.lease_wait_ms_p50", median(probe.leaseWaitMS), len(probe.leaseWaitMS))
	m.host("fabric.unit_exec_ms_p50", median(probe.unitExecMS), len(probe.unitExecMS))
	m.host("fabric.cache_hit_job_ms_p50", 1e3*median(r.cached), len(r.cached))
	lookups := stats.CacheHits + stats.CacheMisses
	m.host("fabric.cache_hit_ratio", ratio(float64(stats.CacheHits), float64(lookups)), int(lookups))
	m.host("fabric.remote_runs", float64(stats.RemoteRuns), 1)
	m.host("fabric.local_fallback_runs", float64(stats.LocalRuns), 1)
	m.host("fabric.redispatches", float64(stats.Redispatches), 1)
	o.check(stats.LocalRuns == 0 && stats.Redispatches == 0, "fleet fell back: %d local runs, %d redispatches", stats.LocalRuns, stats.Redispatches)

	refRate, tracedRate := ratio(float64(ref.points), ref.wallS), ratio(float64(r.points), r.wallS)
	return 1e3 * median(r.cold), 100 * ratio(refRate-tracedRate, refRate), len(r.cold), nil
}

// directLayers calls the layers under the job server directly on one request:
// every point through RunPoint, the same cycles on bare simulators, and the
// whole sweep through the engine at parallelism 1 and N. It returns the
// parallel sweep's milliseconds and each bare simulator's construction time.
func directLayers(spec *harness.Spec, m metricSet, tr *tracer, root int) (sweepMS float64, newMS []float64, err error) {
	id := tr.start(root, "direct")
	defer tr.end(id)
	var pointMS, bareMS []float64
	for _, alg := range spec.Algs {
		label := alg.Label
		if label == "" {
			label = alg.Algorithm.Name()
		}
		for _, load := range spec.Loads {
			key := spec.PointKey(label, load, 0)
			seed := engine.SeedFor(spec.Seed, key)
			pointMS = append(pointMS, tr.timed(id, "harness.point", func() {
				_, err = spec.RunPoint(label, load, seed, harness.PointOptions{})
			}))
			if err != nil {
				return 0, nil, fmt.Errorf("RunPoint %s: %w", key, err)
			}
			// The same cycles on a bare simulator: what is left of the
			// point is construction, MeasureMean and the collectors.
			topo := spec.Topo()
			pat, perr := spec.Pattern(topo)
			if perr != nil {
				return 0, nil, perr
			}
			var sim *disha.Simulator
			newMS = append(newMS, tr.timed(id, "network.new", func() {
				sim, err = disha.NewSimulator(disha.SimConfig{
					Topo: topo, Algorithm: alg.Algorithm, Selection: alg.Selection, Pattern: pat,
					LoadRate: load, MsgLen: spec.MsgLen, VCs: spec.VCs, BufferDepth: spec.BufferDepth,
					Timeout: alg.Timeout, DisableRecovery: !alg.Recovery, Alloc: spec.Alloc,
					TokenHopsPerCycle: spec.TokenHops, Seed: seed,
				})
			}))
			if err != nil {
				return 0, nil, fmt.Errorf("bare simulator %s: %w", key, err)
			}
			bareMS = append(bareMS, tr.timed(id, "network.run", func() { sim.Run(spec.Warmup + spec.Measure) }))
		}
	}
	p1 := tr.timed(id, "engine.sweep.p1", func() { _, _, err = spec.RunWith(harness.RunOptions{Parallel: 1}) })
	if err != nil {
		return 0, nil, fmt.Errorf("RunWith: %w", err)
	}
	pN := tr.timed(id, "engine.sweep.pN", func() { _, _, err = spec.RunWith(harness.RunOptions{Parallel: workerSlots()}) })
	if err != nil {
		return 0, nil, fmt.Errorf("RunWith: %w", err)
	}
	m.host("harness.point_ms_p50", median(pointMS), len(pointMS))
	m.host("harness.point_overhead_ms", mean(pointMS)-mean(bareMS), len(pointMS))
	m.host("engine.sweep_ms.p1", p1, 1)
	m.host("engine.sweep_ms.pN", pN, 1)
	m.host("engine.parallel_efficiency", ratio(p1, pN*float64(workerSlots())), 1)
	m.host("engine.overhead_ms", p1-mean(pointMS)*float64(len(pointMS)), 1)
	return pN, newMS, nil
}

// durationsByName groups span durations, in milliseconds, by span name.
func durationsByName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS)/1e6)
	}
	return out
}

// fleetProbe times the serving stack from outside: a middleware around the
// job server's handler and a RoundTripper under the worker's HTTP client.
type fleetProbe struct {
	tr   *tracer
	root int
	job  atomic.Int64 // span of the job in flight; requests between jobs hang off root

	mu          sync.Mutex
	acceptedAt  time.Time            // the in-flight job's submit reply; zero once its first unit is leased
	leasedAt    map[string]time.Time // unit fingerprint -> lease granted
	leaseWaitMS []float64            // job accepted -> first unit leased
	unitExecMS  []float64            // lease granted -> result upload starts
}

func (p *fleetProbe) beginJob(span int) { p.job.Store(int64(span)) }
func (p *fleetProbe) endJob()           { p.job.Store(0) }

func (p *fleetProbe) accepted() {
	p.mu.Lock()
	p.acceptedAt = time.Now()
	p.mu.Unlock()
}

func (p *fleetProbe) parent() int {
	if id := int(p.job.Load()); id != 0 {
		return id
	}
	return p.root
}

// middleware records one span per request the server handles, named after the
// layer that serves the route.
func (p *fleetProbe) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "jobserver.other"
		switch {
		case strings.HasPrefix(r.URL.Path, "/fleet/"):
			name = "fabric.coordinator." + strings.TrimPrefix(r.URL.Path, "/fleet/")
		case r.Method == "POST" && r.URL.Path == "/jobs":
			name = "jobserver.submit"
		case strings.HasSuffix(r.URL.Path, "/result.csv"):
			name = "jobserver.csv"
		case strings.HasPrefix(r.URL.Path, "/jobs/"):
			name = "jobserver.status"
		}
		id := p.tr.start(p.parent(), name)
		next.ServeHTTP(w, r)
		p.tr.end(id)
	})
}

// probeTransport times the worker's calls to the coordinator. It reads the
// unit fingerprint out of lease replies and result uploads to pair them.
type probeTransport struct {
	probe *fleetProbe
	next  http.RoundTripper
}

func (t *probeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.probe
	call := filepath.Base(req.URL.Path) // register, lease, heartbeat, result, checkpoint
	if call == "result" && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			var up fabric.ResultUpload
			if json.NewDecoder(body).Decode(&up) == nil {
				p.mu.Lock()
				if at, ok := p.leasedAt[up.Fingerprint]; ok {
					p.unitExecMS = append(p.unitExecMS, float64(time.Since(at).Nanoseconds())/1e6)
					delete(p.leasedAt, up.Fingerprint)
				}
				p.mu.Unlock()
			}
			body.Close()
		}
	}
	parent := p.parent()
	t0 := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	name := "fabric." + call
	if call == "lease" {
		if resp.StatusCode != http.StatusOK {
			name = "fabric.lease_empty"
		} else if data, rerr := io.ReadAll(resp.Body); rerr == nil {
			resp.Body.Close()
			resp.Body = io.NopCloser(bytes.NewReader(data))
			var lease fabric.LeaseResponse
			if json.Unmarshal(data, &lease) == nil && lease.Unit != nil {
				now := time.Now()
				p.mu.Lock()
				if p.leasedAt == nil {
					p.leasedAt = make(map[string]time.Time)
				}
				p.leasedAt[lease.Unit.Fingerprint] = now
				if !p.acceptedAt.IsZero() {
					p.leaseWaitMS = append(p.leaseWaitMS, float64(now.Sub(p.acceptedAt).Nanoseconds())/1e6)
					p.acceptedAt = time.Time{}
				}
				p.mu.Unlock()
			}
		}
	}
	// Record the span after the fact so that empty polls can be told apart.
	p.tr.record(parent, name, t0, time.Now())
	return resp, nil
}
