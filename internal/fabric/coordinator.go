package fabric

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// LeaseTTL is how long a lease survives without a heartbeat before the
	// worker is presumed dead and the unit re-dispatched (default 15s).
	LeaseTTL time.Duration
	// MaxQueue bounds the number of work units waiting for a lease; units
	// submitted beyond it run locally instead of queueing (default 1024).
	MaxQueue int
	// MaxAttempts bounds how often a unit is dispatched to workers before
	// the coordinator gives up on the fleet and runs it locally (default 3).
	MaxAttempts int
}

// unitState tracks where a work unit is in its lifecycle. Completed units
// leave the table entirely — their result lives in the cache.
type unitState int

const (
	unitPending unitState = iota // queued, waiting for a lease
	unitLeased                   // held by a worker, lease unexpired
	unitLocal                    // executing in-process (fallback path)
)

// unitResult is what waiters receive when a unit settles.
type unitResult struct {
	pr  harness.PointResult
	err error
}

// unit is one in-flight work unit.
type unit struct {
	wu      WorkUnit
	digest  [16]byte // wu.Fingerprint's bytes: its result's cache key
	local   func() (harness.PointResult, error)
	waiters []chan unitResult
	state   unitState
	worker  string    // lease holder when leased
	expires time.Time // lease expiry when leased
	queued  time.Time // when it last became pending
}

// Coordinator decomposes sweeps into point work units, leases them to
// workers, re-dispatches expired leases, and caches results by content
// fingerprint — in memory, and after OpenStore also in a results file on
// disk (store.go). Create with NewCoordinator; mount Handler under /fleet/
// to give it workers: without them every point runs in-process, which is how
// disha-sweep -journal and a plain disha-serve use it.
type Coordinator struct {
	opts CoordinatorOptions

	mu    sync.Mutex
	units map[string]*unit // by fingerprint: pending, leased or local
	// queue holds fingerprints awaiting lease, FIFO. An entry whose unit has
	// been withdrawn, settled or pulled local stays until a lease pops it, so
	// the number of pending units is counted apart, in pending.
	queue   []string
	pending int
	cache   map[[16]byte]harness.PointResult // by digest: the Fingerprint's bytes
	store   *os.File                         // the cache on disk; nil until OpenStore
	workers map[string]time.Time             // worker id -> last contact
	// wake is closed, and replaced, whenever a unit becomes pending: every
	// lease request parked in LeaseWait holds the channel it read under mu.
	wake         chan struct{}
	leaseWaiters int                  // requests parked in LeaseWait now
	queueWait    *telemetry.Histogram // seconds a unit spent pending before its lease

	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	deduped      atomic.Int64 // waiters attached to an in-flight unit
	redispatches atomic.Int64
	remoteRuns   atomic.Int64 // results computed by fleet workers
	localRuns    atomic.Int64 // results computed in-process (fallback)
	dupResults   atomic.Int64 // uploads for already-settled units
	queueFull    atomic.Int64 // submissions pushed to local by the bound
	workerErrors atomic.Int64 // worker-side failures uploaded
	storeErrors  atomic.Int64 // results cached but not appended to the store

	done chan struct{}
}

// NewCoordinator starts a coordinator and its lease-expiry sweeper.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 1024
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	c := &Coordinator{
		opts:    opts,
		units:   make(map[string]*unit),
		cache:   make(map[[16]byte]harness.PointResult),
		workers: make(map[string]time.Time),
		wake:    make(chan struct{}),
		// 100 µs .. ~13 s: a parked worker takes a unit in well under a
		// millisecond, a saturated fleet holds it for many point run times.
		queueWait: telemetry.NewHistogram(telemetry.ExponentialBuckets(100e-6, 2, 18)),
		done:      make(chan struct{}),
	}
	go c.sweeper()
	return c
}

// RegisterMetrics registers the fleet gauges and counters (workers live,
// leases outstanding, queue depth, cache hits/misses, re-dispatches, ...) on
// reg; disha-serve -fleet calls it with the registry behind its /metrics.
func (c *Coordinator) RegisterMetrics(reg *telemetry.Registry) {
	{
		reg.GaugeFunc("fleet_workers_live", "fleet workers seen within the liveness window", nil,
			func() float64 { return float64(c.Stats().WorkersLive) })
		reg.GaugeFunc("fleet_leases_outstanding", "work units currently leased to workers", nil,
			func() float64 { return float64(c.Stats().LeasesOutstanding) })
		reg.GaugeFunc("fleet_queue_depth", "work units waiting for a lease", nil,
			func() float64 { return float64(c.Stats().QueueDepth) })
		reg.GaugeFunc("fleet_cache_hit_rate", "fraction of point executions served from the result cache", nil,
			func() float64 {
				h, m := c.cacheHits.Load(), c.cacheMisses.Load()
				if h+m == 0 {
					return 0
				}
				return float64(h) / float64(h+m)
			})
		reg.CounterFunc("fleet_cache_hits_total", "point executions served from the result cache", nil, c.cacheHits.Load)
		reg.CounterFunc("fleet_cache_misses_total", "point executions not present in the result cache", nil, c.cacheMisses.Load)
		reg.CounterFunc("fleet_dedup_total", "point executions coalesced onto an already in-flight unit", nil, c.deduped.Load)
		reg.CounterFunc("fleet_redispatch_total", "expired leases re-dispatched to another worker", nil, c.redispatches.Load)
		reg.CounterFunc("fleet_remote_runs_total", "points computed by fleet workers", nil, c.remoteRuns.Load)
		reg.CounterFunc("fleet_local_runs_total", "points computed in-process (no live workers, queue bound, or attempts exhausted)", nil, c.localRuns.Load)
		reg.CounterFunc("fleet_duplicate_results_total", "result uploads for already-settled units", nil, c.dupResults.Load)
		reg.CounterFunc("fleet_worker_errors_total", "worker-side execution failures uploaded", nil, c.workerErrors.Load)
		reg.CounterFunc("fleet_store_errors_total", "results served from memory whose append to the on-disk store failed", nil, c.storeErrors.Load)
		// A registry renders its histograms without a lock, so units are
		// observed into c.queueWait under c.mu and this gauge, evaluated by
		// whichever goroutine renders and just ahead of the histogram's own
		// lines, moves them into the registered one.
		var queueSeconds *telemetry.Histogram
		reg.GaugeFunc("fleet_lease_waiters", "lease requests parked until a unit is pending", nil,
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				queueSeconds.Merge(c.queueWait) // same bounds: cannot fail
				c.queueWait.Reset()
				return float64(c.leaseWaiters)
			})
		queueSeconds = reg.Histogram("fleet_unit_queue_seconds", "time a work unit waited in the queue before a worker leased it", nil, c.queueWait.Bounds())
	}
}

// OpenStore makes the result cache durable: it loads every record of the
// results file at path into the cache (reporting how many) and from then on
// appends each new result to that file. The cache key is computed from the
// record's own key and seed, so whoever wrote the file — a sweep's -journal,
// a server's -data-dir — any coordinator can open it. It is an error to open
// a second store.
func (c *Coordinator) OpenStore(path string) (loaded int, err error) {
	recs, err := ReadJournal(path)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.store != nil {
		return 0, fmt.Errorf("fabric: result store already open")
	}
	if c.store, err = openJournal(path); err != nil {
		return 0, err
	}
	for _, rec := range recs {
		var pr harness.PointResult
		if json.Unmarshal(rec.Value, &pr) != nil {
			continue // not a point result: that point is computed again
		}
		c.cache[digest(rec.Key, rec.Seed)] = pr
		loaded++
	}
	return loaded, nil
}

// Close stops the lease sweeper, answers every parked lease request empty
// and closes the store. In-flight Execute calls still settle, from memory
// only — close after the last sweep returns if every result is to reach the
// disk.
func (c *Coordinator) Close() {
	select {
	case <-c.done:
	default:
		close(c.done)
		c.mu.Lock()
		if c.store != nil {
			c.store.Close()
		}
		c.mu.Unlock()
	}
}

// livenessWindow is how long after its last contact a worker still counts
// as live: two lease TTLs, i.e. several missed heartbeats.
func (c *Coordinator) livenessWindow() time.Duration { return 2 * c.opts.LeaseTTL }

// liveWorkersLocked counts workers seen within the liveness window.
// Callers hold c.mu.
func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, seen := range c.workers {
		if now.Sub(seen) <= c.livenessWindow() {
			n++
		}
	}
	return n
}

// Execute runs one point through the fabric and blocks until its result is
// available: from the shared cache, from a worker that leased the unit, or
// from the local fallback closure when no live workers exist, MaxQueue units
// are already pending, or the fleet exhausted its dispatch attempts. It is a
// harness.RunOptions.PointRunner: a worker needs nothing but the task's key
// and seed.
// Concurrent Executes with the same fingerprint coalesce onto a single
// execution. stop, when it closes, is the caller's drain: a unit still
// pending is given up — this caller returns harness.ErrDrained, and the last
// waiter to leave withdraws the unit — while a unit that is leased or
// computing is waited for, so what was started still reaches the store.
func (c *Coordinator) Execute(stop <-chan struct{}, t harness.PointTask, local func() (harness.PointResult, error)) (harness.PointResult, error) {
	d := digest(t.Key, t.Seed)

	c.mu.Lock()
	if pr, ok := c.cache[d]; ok {
		c.mu.Unlock()
		c.cacheHits.Add(1)
		return pr, nil
	}
	c.cacheMisses.Add(1)
	fp := hex.EncodeToString(d[:])
	u, inFlight := c.units[fp]
	if inFlight {
		// Same point already in flight (another client, another replica
		// pass): wait for that execution instead of starting a second one.
		c.deduped.Add(1)
	} else {
		u = &unit{wu: WorkUnit{Key: t.Key, Fingerprint: fp, Seed: t.Seed}, digest: d, local: local}
		c.units[fp] = u
		switch {
		case c.liveWorkersLocked(time.Now()) == 0:
			// No fleet: run in-process, but keep the unit visible so concurrent
			// duplicates still coalesce onto this execution.
			c.runLocalLocked(u)
		case c.pending >= c.opts.MaxQueue:
			// Admission control: a bounded queue keeps a flood of units from
			// accumulating unboundedly; overflow executes locally instead.
			c.queueFull.Add(1)
			c.runLocalLocked(u)
		default:
			c.enqueueLocked(u)
		}
	}
	ch := make(chan unitResult, 1)
	u.waiters = append(u.waiters, ch)
	c.mu.Unlock()

	// Wait for the result; from the moment stop closes, give up whenever the
	// unit is merely pending. A unit leased or computing finishes — or its
	// lease fails and it is queued again, which, like every enqueue, is
	// announced on c.wake.
	wake := stop
	for {
		select {
		case r := <-ch:
			return r.pr, r.err
		case <-wake:
		}
		c.mu.Lock()
		if c.units[fp] == u && u.state == unitPending {
			u.waiters = slices.DeleteFunc(u.waiters, func(w chan unitResult) bool { return w == ch })
			if len(u.waiters) == 0 {
				delete(c.units, fp)
				c.pending--
			}
			c.mu.Unlock()
			return harness.PointResult{}, harness.ErrDrained
		}
		wake = c.wake
		c.mu.Unlock()
	}
}

// Cached returns the stored result of the point (key, seed), if the cache
// holds one. It reads memory only, and a Close keeps the cache, so it answers
// after Close as before; it is not an execution and counts no hit.
func (c *Coordinator) Cached(key string, seed uint64) (harness.PointResult, bool) {
	d := digest(key, seed)
	c.mu.Lock()
	defer c.mu.Unlock()
	pr, ok := c.cache[d]
	return pr, ok
}

// runLocalLocked transitions a unit to in-process execution. Caller holds
// c.mu; the execution itself happens on a fresh goroutine, and how many of
// those compute at once is the local closure's business (a sweep's closure
// waits for one of its RunOptions.Parallel slots). A unit that a late worker
// upload settled in the meantime is left alone.
func (c *Coordinator) runLocalLocked(u *unit) {
	u.state = unitLocal
	c.localRuns.Add(1)
	go func() {
		pr, err := u.local()
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.units[u.wu.Fingerprint] == u {
			c.settleLocked(u, pr, err)
		}
	}()
}

// settleLocked completes a unit: caches the result (on success), drops the
// unit from the table and wakes every waiter. Caller holds c.mu, which is
// what keeps a racing duplicate upload from settling the unit twice; each
// waiter channel is buffered for its one result, so no send blocks.
func (c *Coordinator) settleLocked(u *unit, pr harness.PointResult, err error) {
	if u.state == unitPending {
		c.pending-- // a late upload for a unit that was queued again
	}
	if err == nil {
		c.cache[u.digest] = pr
		// A dead store must not fail the point: count it, serve from memory.
		if c.store != nil && appendRecord(c.store, u.wu.Key, u.wu.Seed, pr) != nil {
			c.storeErrors.Add(1)
		}
	}
	delete(c.units, u.wu.Fingerprint)
	for _, ch := range u.waiters {
		ch <- unitResult{pr: pr, err: err}
	}
	u.waiters = nil
}

// enqueueLocked makes a unit pending and wakes every parked lease request.
// Caller holds c.mu.
func (c *Coordinator) enqueueLocked(u *unit) {
	u.state = unitPending
	u.worker = ""
	u.queued = time.Now()
	c.queue = append(c.queue, u.wu.Fingerprint)
	c.pending++
	close(c.wake)
	c.wake = make(chan struct{})
}

// Lease hands the next pending unit to a worker, starting its TTL clock.
// It returns nil when nothing is pending. Any contact marks the worker
// live.
func (c *Coordinator) Lease(workerID string) *WorkUnit {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaseLocked(workerID)
}

// leaseLocked is Lease for a caller that holds c.mu.
func (c *Coordinator) leaseLocked(workerID string) *WorkUnit {
	now := time.Now()
	c.workers[workerID] = now
	for len(c.queue) > 0 {
		fp := c.queue[0]
		c.queue = c.queue[1:]
		u, ok := c.units[fp]
		if !ok || u.state != unitPending {
			continue // stale: settled, withdrawn, or leased through an earlier entry
		}
		c.pending--
		u.state = unitLeased
		u.worker = workerID
		u.expires = now.Add(c.opts.LeaseTTL)
		u.wu.Attempt++
		c.queueWait.Observe(now.Sub(u.queued).Seconds())
		wu := u.wu
		return &wu
	}
	return nil
}

// leaseHold is how long LeaseWait parks a request with nothing to hand out:
// under the liveness window, so an idle parked worker never reads as dead,
// and under the worker client's 30 s request timeout.
func (c *Coordinator) leaseHold() time.Duration {
	return min(c.opts.LeaseTTL/2, 10*time.Second)
}

// LeaseWait is Lease for a worker that can wait: with nothing pending it
// parks until a unit is enqueued, and returns nil once leaseHold has passed,
// ctx is done or the coordinator is closed. POST /fleet/lease calls it.
func (c *Coordinator) LeaseWait(ctx context.Context, workerID string) *WorkUnit {
	hold := time.NewTimer(c.leaseHold())
	defer hold.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	// A request that was canceled while parked must not take the unit that
	// woke it: nobody is left to run it.
	for ctx.Err() == nil {
		if wu := c.leaseLocked(workerID); wu != nil {
			return wu
		}
		// Read under the lock that saw the queue empty: an enqueue from here
		// on closes this very channel.
		wake := c.wake
		c.leaseWaiters++
		c.mu.Unlock()
		var woken, held bool
		select {
		case <-wake:
			woken = true
		case <-hold.C:
			held = true
		case <-ctx.Done():
		case <-c.done:
		}
		c.mu.Lock()
		c.leaseWaiters--
		if held {
			// The empty reply is a contact too: the worker is live from now,
			// not from when it started waiting.
			c.workers[workerID] = time.Now()
		}
		if !woken {
			return nil
		}
	}
	return nil
}

// Heartbeat renews the given leases for a worker and returns the
// fingerprints the coordinator no longer recognizes as held by it.
func (c *Coordinator) Heartbeat(workerID string, fingerprints []string) (drop []string) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[workerID] = now
	for _, fp := range fingerprints {
		u, ok := c.units[fp]
		if !ok || u.state != unitLeased || u.worker != workerID {
			drop = append(drop, fp)
			continue
		}
		u.expires = now.Add(c.opts.LeaseTTL)
	}
	return drop
}

// Deliver accepts a worker's result upload. Because every unit is a pure
// function of (key, seed), the first result to arrive is authoritative;
// late duplicates from presumed-dead workers are counted and dropped. An
// error from the worker holding the lease re-queues the unit until
// MaxAttempts dispatches have been spent, then falls back to local
// execution; an error from anyone else is as stale as a late duplicate — the
// unit is pending, running locally or leased to another worker — and must
// not put a second copy of it in the queue.
func (c *Coordinator) Deliver(up ResultUpload) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[up.Worker] = time.Now()
	u, ok := c.units[up.Fingerprint]
	switch {
	case !ok:
		c.dupResults.Add(1)
	case up.Error != "" && u.state == unitLeased && u.worker == up.Worker:
		c.workerErrors.Add(1)
		c.redispatchLocked(u)
	case up.Error != "":
		c.dupResults.Add(1)
	case up.Result != nil:
		c.settleLocked(u, *up.Result, nil)
		c.remoteRuns.Add(1)
	}
}

// redispatchLocked gives a unit whose dispatch failed (the lease expired or
// the worker reported an error) back to the queue, or to local execution
// once MaxAttempts dispatches are spent. Caller holds c.mu.
func (c *Coordinator) redispatchLocked(u *unit) {
	if u.wu.Attempt >= c.opts.MaxAttempts {
		c.runLocalLocked(u)
		return
	}
	c.enqueueLocked(u)
}

// sweeper is the recovery loop: it expires dead leases (re-dispatching
// their units) and, when the fleet has no live
// workers, drains pending units to local execution so progress never
// depends on a worker coming back.
func (c *Coordinator) sweeper() {
	tick := time.NewTicker(c.opts.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
			c.sweep(time.Now())
		}
	}
}

// sweep performs one expiry pass (split out for tests).
func (c *Coordinator) sweep(now time.Time) {
	c.mu.Lock()
	for _, u := range c.units {
		if u.state == unitLeased && now.After(u.expires) {
			// Presume the holder dead (it may not be — determinism makes a
			// late duplicate harmless) and hand the unit to the next worker.
			c.redispatches.Add(1)
			c.redispatchLocked(u)
		}
	}
	if c.liveWorkersLocked(now) == 0 {
		// Fleet gone: pull every pending unit in-process.
		for _, fp := range c.queue {
			if u, ok := c.units[fp]; ok && u.state == unitPending {
				c.runLocalLocked(u)
			}
		}
		c.queue, c.pending = c.queue[:0], 0
	}
	c.mu.Unlock()
}

// Stats is a point-in-time snapshot of the coordinator's state, served by
// GET /fleet/status and asserted on by tests.
type Stats struct {
	WorkersLive       int   `json:"workers_live"`
	LeasesOutstanding int   `json:"leases_outstanding"`
	QueueDepth        int   `json:"queue_depth"`
	LeaseWaiters      int   `json:"lease_waiters"` // requests parked in LeaseWait now
	UnitsInFlight     int   `json:"units_in_flight"`
	CacheSize         int   `json:"cache_size"`
	CacheHits         int64 `json:"cache_hits"`
	CacheMisses       int64 `json:"cache_misses"`
	Deduped           int64 `json:"deduped"`
	Redispatches      int64 `json:"redispatches"`
	RemoteRuns        int64 `json:"remote_runs"`
	LocalRuns         int64 `json:"local_runs"`
	DuplicateResults  int64 `json:"duplicate_results"`
	QueueFull         int64 `json:"queue_full"`
	WorkerErrors      int64 `json:"worker_errors"`
	StoreErrors       int64 `json:"store_errors"`
}

// Stats gathers the current snapshot.
func (c *Coordinator) Stats() Stats {
	now := time.Now()
	c.mu.Lock()
	leased := 0
	for _, u := range c.units {
		if u.state == unitLeased {
			leased++
		}
	}
	st := Stats{
		WorkersLive:       c.liveWorkersLocked(now),
		LeasesOutstanding: leased,
		QueueDepth:        c.pending,
		LeaseWaiters:      c.leaseWaiters,
		UnitsInFlight:     len(c.units),
		CacheSize:         len(c.cache),
	}
	c.mu.Unlock()
	st.CacheHits = c.cacheHits.Load()
	st.CacheMisses = c.cacheMisses.Load()
	st.Deduped = c.deduped.Load()
	st.Redispatches = c.redispatches.Load()
	st.RemoteRuns = c.remoteRuns.Load()
	st.LocalRuns = c.localRuns.Load()
	st.DuplicateResults = c.dupResults.Load()
	st.QueueFull = c.queueFull.Load()
	st.WorkerErrors = c.workerErrors.Load()
	st.StoreErrors = c.storeErrors.Load()
	return st
}

// String renders a one-line fleet summary for logs.
func (s Stats) String() string {
	return fmt.Sprintf("workers=%d leased=%d queued=%d cache=%d (hits=%d) redispatch=%d remote=%d local=%d",
		s.WorkersLive, s.LeasesOutstanding, s.QueueDepth, s.CacheSize, s.CacheHits, s.Redispatches, s.RemoteRuns, s.LocalRuns)
}
