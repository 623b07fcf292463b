package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

func TestFingerprintIdentity(t *testing.T) {
	a := Fingerprint("key-a", 1)
	if a != Fingerprint("key-a", 1) {
		t.Fatal("fingerprint must be deterministic")
	}
	if a == Fingerprint("key-b", 1) {
		t.Fatal("distinct keys must fingerprint differently")
	}
	if a == Fingerprint("key-a", 2) {
		t.Fatal("distinct seeds must fingerprint differently")
	}
	if len(a) != 32 {
		t.Fatalf("fingerprint %q has length %d, want 32 hex chars", a, len(a))
	}
}

// task builds a synthetic point task; the coordinator never interprets the
// key, so a placeholder suffices for coordinator-level tests.
func task(n int) harness.PointTask {
	return harness.PointTask{Key: fmt.Sprintf("unit-%03d", n), Seed: uint64(1000 + n), Alg: "disha-m3", Load: 0.4}
}

func resultFor(n int) harness.PointResult {
	return harness.PointResult{Load: 0.4, MeanLatency: float64(100 + n), Delivered: int64(n)}
}

func TestExecuteRunsLocallyWithoutWorkersAndCaches(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 5 * time.Second})
	defer c.Close()
	tk := task(1)
	calls := 0
	local := func() (harness.PointResult, error) { calls++; return resultFor(1), nil }

	pr, err := c.Execute(nil, tk, local)
	if err != nil {
		t.Fatal(err)
	}
	if pr.MeanLatency != 101 {
		t.Fatalf("wrong result: %+v", pr)
	}
	if calls != 1 {
		t.Fatalf("local fallback ran %d times, want 1", calls)
	}

	// Identical resubmission: served from the cache, no second execution.
	if _, err := c.Execute(nil, tk, local); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("cache miss on identical unit: local ran %d times", calls)
	}
	st := c.Stats()
	if st.CacheHits != 1 || st.LocalRuns != 1 || st.RemoteRuns != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRemoteLeaseDeliverAndConcurrentDedupe(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 5 * time.Second})
	defer c.Close()
	c.Heartbeat("w1", nil) // mark a worker live so units queue for the fleet

	tk := task(2)
	localRan := false
	local := func() (harness.PointResult, error) { localRan = true; return resultFor(2), nil }

	var wg sync.WaitGroup
	results := make([]harness.PointResult, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = c.Execute(nil, tk, local)
		}()
	}

	// Wait until the unit is queued, then play the worker.
	var wu *WorkUnit
	for deadline := time.Now().Add(5 * time.Second); wu == nil; {
		if time.Now().After(deadline) {
			t.Fatal("unit never became leasable")
		}
		wu = c.Lease("w1")
		if wu == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if wu.Key != tk.Key || wu.Seed != tk.Seed || wu.Attempt != 1 {
		t.Fatalf("lease: %+v", wu)
	}
	if again := c.Lease("w1"); again != nil {
		t.Fatalf("unit leased twice: %+v", again)
	}
	res := resultFor(2)
	c.Deliver(ResultUpload{Worker: "w1", Fingerprint: wu.Fingerprint, Key: wu.Key, Result: &res})
	wg.Wait()

	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].MeanLatency != 102 {
			t.Fatalf("waiter %d got %+v", i, results[i])
		}
	}
	if localRan {
		t.Fatal("local fallback ran despite a live worker")
	}
	st := c.Stats()
	if st.RemoteRuns != 1 || st.Deduped != 1 || st.UnitsInFlight != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// A duplicate upload from a presumed-dead worker is counted and dropped.
	c.Deliver(ResultUpload{Worker: "w0", Fingerprint: wu.Fingerprint, Key: wu.Key, Result: &res})
	if st := c.Stats(); st.DuplicateResults != 1 {
		t.Fatalf("duplicate upload not counted: %+v", st)
	}
}

func TestLeaseExpiryRedispatches(t *testing.T) {
	// Worker A leases a unit, then goes silent (simulating a SIGKILL). The
	// sweeper must presume it dead after the lease TTL and re-dispatch the
	// unit to worker B, which runs it from cycle 0 and whose result then
	// settles the waiters.
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 200 * time.Millisecond})
	defer c.Close()

	// Worker B heartbeats continuously so the fleet always has a live
	// worker (otherwise the sweeper would pull the unit in-process).
	stopHB := make(chan struct{})
	defer close(stopHB)
	go func() {
		for {
			select {
			case <-stopHB:
				return
			case <-time.After(25 * time.Millisecond):
				c.Heartbeat("wB", nil)
			}
		}
	}()
	c.Heartbeat("wB", nil)

	tk := task(3)
	done := make(chan harness.PointResult, 1)
	go func() {
		pr, err := c.Execute(nil, tk, func() (harness.PointResult, error) {
			t.Error("local fallback must not run")
			return harness.PointResult{}, nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- pr
	}()

	// Worker A takes the lease...
	var wu *WorkUnit
	for deadline := time.Now().Add(5 * time.Second); wu == nil; {
		if time.Now().After(deadline) {
			t.Fatal("unit never became leasable")
		}
		if wu = c.Lease("wA"); wu == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	// ...and is never heard from again.

	var re *WorkUnit
	for deadline := time.Now().Add(10 * time.Second); re == nil; {
		if time.Now().After(deadline) {
			t.Fatal("expired lease was never re-dispatched")
		}
		if re = c.Lease("wB"); re == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if re.Fingerprint != wu.Fingerprint {
		t.Fatalf("re-dispatched unit %q, want %q", re.Fingerprint, wu.Fingerprint)
	}
	if re.Attempt != 2 {
		t.Fatalf("re-dispatch attempt = %d, want 2", re.Attempt)
	}
	res := resultFor(3)
	c.Deliver(ResultUpload{Worker: "wB", Fingerprint: re.Fingerprint, Key: re.Key, Result: &res})
	select {
	case pr := <-done:
		if pr.MeanLatency != 103 {
			t.Fatalf("waiter got %+v", pr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never settled after re-dispatched delivery")
	}
	if st := c.Stats(); st.Redispatches == 0 {
		t.Fatalf("redispatch not counted: %+v", st)
	}
}

func TestWorkerErrorsExhaustAttemptsThenRunLocally(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 5 * time.Second, MaxAttempts: 1})
	defer c.Close()
	c.Heartbeat("w1", nil)

	tk := task(4)
	done := make(chan harness.PointResult, 1)
	go func() {
		pr, err := c.Execute(nil, tk, func() (harness.PointResult, error) { return resultFor(4), nil })
		if err != nil {
			t.Error(err)
		}
		done <- pr
	}()

	var wu *WorkUnit
	for deadline := time.Now().Add(5 * time.Second); wu == nil; {
		if time.Now().After(deadline) {
			t.Fatal("unit never became leasable")
		}
		if wu = c.Lease("w1"); wu == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	c.Deliver(ResultUpload{Worker: "w1", Fingerprint: wu.Fingerprint, Key: wu.Key, Error: "simulated worker failure"})
	select {
	case pr := <-done:
		if pr.MeanLatency != 104 {
			t.Fatalf("local fallback result: %+v", pr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unit never fell back to local execution")
	}
	st := c.Stats()
	if st.WorkerErrors != 1 || st.LocalRuns != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStaleErrorUploadDoesNotRequeue: a presumed-dead worker's late error is
// as stale as its late result would be. The unit is another worker's by then
// and must neither go back to the queue nor spend a dispatch attempt.
func TestStaleErrorUploadDoesNotRequeue(t *testing.T) {
	const ttl = 5 * time.Second
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: ttl})
	defer c.Close()
	c.Heartbeat("wA", nil)
	c.Heartbeat("wB", nil)

	tk := task(7)
	done := make(chan harness.PointResult, 1)
	go func() {
		pr, err := c.Execute(nil, tk, mustNotRunLocally(t))
		if err != nil {
			t.Error(err)
		}
		done <- pr
	}()
	wu := c.LeaseWait(context.Background(), "wA")
	if wu == nil {
		t.Fatal("unit never became leasable")
	}
	c.sweep(time.Now().Add(ttl + time.Millisecond)) // wA's lease runs out
	re := c.Lease("wB")
	if re == nil || re.Fingerprint != wu.Fingerprint || re.Attempt != 2 {
		t.Fatalf("re-dispatch to wB: %+v", re)
	}

	c.Deliver(ResultUpload{Worker: "wA", Fingerprint: wu.Fingerprint, Key: wu.Key, Error: "late failure on a lost lease"})
	if st := c.Stats(); st.QueueDepth != 0 || st.LeasesOutstanding != 1 || st.DuplicateResults != 1 || st.WorkerErrors != 0 {
		t.Fatalf("stale error disturbed wB's lease: %+v", st)
	}
	if drop := c.Heartbeat("wB", []string{wu.Fingerprint}); len(drop) != 0 {
		t.Fatalf("wB told to drop %v", drop)
	}
	res := resultFor(7)
	c.Deliver(ResultUpload{Worker: "wB", Fingerprint: re.Fingerprint, Key: re.Key, Result: &res})
	if pr := <-done; pr.MeanLatency != 107 {
		t.Fatalf("waiter got %+v", pr)
	}
	if st := c.Stats(); st.RemoteRuns != 1 || st.Redispatches != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestWorkerErrorRequeues: an error from the lease holder puts the unit back
// in the queue, and the next worker's lease is its second attempt.
func TestWorkerErrorRequeues(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 5 * time.Second})
	defer c.Close()
	c.Heartbeat("wA", nil)
	c.Heartbeat("wB", nil)

	tk := task(9)
	done := make(chan harness.PointResult, 1)
	go func() {
		pr, err := c.Execute(nil, tk, mustNotRunLocally(t))
		if err != nil {
			t.Error(err)
		}
		done <- pr
	}()
	wu := c.LeaseWait(context.Background(), "wA")
	if wu == nil {
		t.Fatal("unit never became leasable")
	}
	c.Deliver(ResultUpload{Worker: "wA", Fingerprint: wu.Fingerprint, Key: wu.Key, Error: "simulated failure"})

	re := c.Lease("wB")
	if re == nil || re.Fingerprint != wu.Fingerprint || re.Attempt != 2 {
		t.Fatalf("re-dispatch to wB: %+v", re)
	}
	res := resultFor(9)
	c.Deliver(ResultUpload{Worker: "wB", Fingerprint: re.Fingerprint, Key: re.Key, Result: &res})
	if pr := <-done; pr.MeanLatency != 109 {
		t.Fatalf("waiter got %+v", pr)
	}
	if st := c.Stats(); st.WorkerErrors != 1 || st.RemoteRuns != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestQueueBoundOverflowsToLocal(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 5 * time.Second, MaxQueue: 1})
	defer c.Close()
	c.Heartbeat("w1", nil)

	tk1 := task(5)
	tk2 := task(6)
	first := make(chan harness.PointResult, 1)
	go func() {
		pr, _ := c.Execute(nil, tk1, func() (harness.PointResult, error) { return resultFor(5), nil })
		first <- pr
	}()
	// Wait for the first unit to occupy the queue.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if c.Stats().QueueDepth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first unit never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Second unit overflows the bounded queue and runs locally.
	pr, err := c.Execute(nil, tk2, func() (harness.PointResult, error) { return resultFor(6), nil })
	if err != nil {
		t.Fatal(err)
	}
	if pr.MeanLatency != 106 {
		t.Fatalf("overflow result: %+v", pr)
	}
	if st := c.Stats(); st.QueueFull != 1 {
		t.Fatalf("queue-full overflow not counted: %+v", st)
	}

	// Drain the first unit so its goroutine settles.
	wu := c.Lease("w1")
	if wu == nil {
		t.Fatal("first unit not leasable")
	}
	res := resultFor(5)
	c.Deliver(ResultUpload{Worker: "w1", Fingerprint: wu.Fingerprint, Key: wu.Key, Result: &res})
	<-first
}

// TestWithdrawnUnitsFreeTheQueueBound: MaxQueue bounds the units pending, not
// the entries of the queue slice, where a withdrawn unit's fingerprint stays
// until a lease pops it. Two units are drained away, and the next two still
// queue for the fleet instead of spilling.
func TestWithdrawnUnitsFreeTheQueueBound(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, MaxQueue: 2})
	defer c.Close()
	c.Heartbeat("w1", nil)

	stop := make(chan struct{})
	errs := make(chan error, 2)
	for n := 1; n <= 2; n++ {
		tk := task(n)
		go func() { _, err := c.Execute(stop, tk, mustNotRunLocally(t)); errs <- err }()
	}
	eventually(t, "two units pending", func() bool { return c.Stats().QueueDepth == 2 })
	close(stop)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, harness.ErrDrained) {
			t.Fatalf("drained Execute returned %v, want ErrDrained", err)
		}
	}
	if st := c.Stats(); st.QueueDepth != 0 || st.UnitsInFlight != 0 {
		t.Fatalf("after the drain: %+v", st)
	}

	done := make(chan harness.PointResult, 2)
	for n := 3; n <= 4; n++ {
		tk := task(n)
		go func() { pr, _ := c.Execute(nil, tk, mustNotRunLocally(t)); done <- pr }()
	}
	eventually(t, "two more units pending", func() bool { return c.Stats().QueueDepth == 2 })
	if st := c.Stats(); st.QueueFull != 0 || st.LocalRuns != 0 {
		t.Fatalf("units spilled although nothing was pending: %+v", st)
	}
	// The leases skip the two stale entries ahead of the live ones.
	for i := 0; i < 2; i++ {
		wu := c.Lease("w1")
		if wu == nil || (wu.Key != "unit-003" && wu.Key != "unit-004") {
			t.Fatalf("leased %+v, want one of the two live units", wu)
		}
		res := resultFor(3)
		c.Deliver(ResultUpload{Worker: "w1", Fingerprint: wu.Fingerprint, Key: wu.Key, Result: &res})
		<-done
	}
	if wu := c.Lease("w1"); wu != nil {
		t.Fatalf("a withdrawn unit was leased: %+v", wu)
	}
}

// TestDrainWithdrawsRequeuedUnit: a draining Execute waits for a leased unit,
// but not for a second lease — when the first one expires and the unit is
// queued again, it is withdrawn.
func TestDrainWithdrawsRequeuedUnit(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	defer c.Close()
	c.Heartbeat("w1", nil)
	stop := make(chan struct{})
	done := make(chan error, 1)
	tk := task(1)
	go func() { _, err := c.Execute(stop, tk, mustNotRunLocally(t)); done <- err }()
	eventually(t, "the unit to be pending", func() bool { return c.Stats().QueueDepth == 1 })
	if c.Lease("w1") == nil {
		t.Fatal("nothing to lease")
	}
	close(stop)
	c.Heartbeat("w2", nil) // w1 falls silent; the fleet stays live
	c.sweep(time.Now().Add(90 * time.Second))
	if err := <-done; !errors.Is(err, harness.ErrDrained) {
		t.Fatalf("Execute returned %v, want ErrDrained", err)
	}
	if st := c.Stats(); st.Redispatches != 1 || st.QueueDepth != 0 || st.UnitsInFlight != 0 || st.LocalRuns != 0 {
		t.Fatalf("after the expired lease: %+v", st)
	}
}

func TestFleetMetricsRegistered(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 10 * time.Second})
	defer c.Close()
	c.RegisterMetrics(reg)
	var text bytes.Buffer
	reg.WriteText(&text)
	for _, n := range []string{
		"fleet_workers_live", "fleet_leases_outstanding", "fleet_queue_depth",
		"fleet_cache_hit_rate", "fleet_cache_hits_total", "fleet_cache_misses_total",
		"fleet_redispatch_total", "fleet_remote_runs_total", "fleet_local_runs_total",
		"fleet_lease_waiters", "fleet_unit_queue_seconds",
	} {
		if !strings.Contains(text.String(), "\n# TYPE "+n+" ") {
			t.Fatalf("metric %s not registered:\n%s", n, text.String())
		}
	}

	// One unit waits for its lease behind one parked request; every render
	// after that shows the one observation, and no request parked any more.
	leased := make(chan *WorkUnit, 1)
	go func() { leased <- c.LeaseWait(context.Background(), "w1") }()
	eventually(t, "the request to park", func() bool { return c.Stats().LeaseWaiters == 1 })
	text.Reset()
	reg.WriteText(&text)
	if !strings.Contains(text.String(), "fleet_lease_waiters 1\n") || !strings.Contains(text.String(), "fleet_unit_queue_seconds_count 0\n") {
		t.Fatalf("render with a parked request and nothing leased yet:\n%s", text.String())
	}
	tk := task(8)
	go c.Execute(nil, tk, func() (harness.PointResult, error) { return resultFor(8), nil })
	wu := <-leased
	for i := 0; i < 2; i++ {
		text.Reset()
		reg.WriteText(&text)
		if !strings.Contains(text.String(), "fleet_lease_waiters 0\n") || !strings.Contains(text.String(), "fleet_unit_queue_seconds_count 1\n") {
			t.Fatalf("render after the lease:\n%s", text.String())
		}
	}
	res := resultFor(8)
	c.Deliver(ResultUpload{Worker: "w1", Fingerprint: wu.Fingerprint, Result: &res})
}

func TestRateLimiterTokenBucket(t *testing.T) {
	l := NewRateLimiter(10, 2) // 10/s, burst 2
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("alice"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := l.Allow("alice")
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	if retry <= 0 || retry > 150*time.Millisecond {
		t.Fatalf("retryAfter = %v, want ~100ms at 10 tokens/s", retry)
	}
	// A different client has its own bucket.
	if ok, _ := l.Allow("bob"); !ok {
		t.Fatal("independent client throttled by alice's bucket")
	}
	// Tokens refill with time.
	time.Sleep(120 * time.Millisecond)
	if ok, _ := l.Allow("alice"); !ok {
		t.Fatal("bucket did not refill")
	}
	// A nil limiter admits everything.
	var nilL *RateLimiter
	if ok, _ := nilL.Allow("anyone"); !ok {
		t.Fatal("nil limiter must admit")
	}
}

// TestStoreOutlivesCoordinator: after OpenStore every settled result — local
// or uploaded — is on disk under its (key, seed), a second coordinator on the
// same file serves it without running anything, and a store that stops
// taking writes costs durability only, never the result.
func TestStoreOutlivesCoordinator(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	poison := func() (harness.PointResult, error) { panic("ran a stored point") }

	c1 := NewCoordinator(CoordinatorOptions{LeaseTTL: 5 * time.Second})
	if n, err := c1.OpenStore(path); err != nil || n != 0 {
		t.Fatalf("OpenStore on a missing file: loaded %d, err %v", n, err)
	}
	tk1 := task(1)
	if _, err := c1.Execute(nil, tk1, func() (harness.PointResult, error) { return resultFor(1), nil }); err != nil {
		t.Fatal(err)
	}
	// The second result arrives as a worker upload.
	c1.Heartbeat("w1", nil)
	tk2 := task(2)
	done := make(chan error, 1)
	go func() { _, err := c1.Execute(nil, tk2, poison); done <- err }()
	var wu *WorkUnit
	for deadline := time.Now().Add(5 * time.Second); wu == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("unit never became leasable")
		}
		wu = c1.Lease("w1")
	}
	res := resultFor(2)
	c1.Deliver(ResultUpload{Worker: "w1", Fingerprint: wu.Fingerprint, Key: wu.Key, Result: &res})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2 := NewCoordinator(CoordinatorOptions{LeaseTTL: 5 * time.Second})
	defer c2.Close()
	if n, err := c2.OpenStore(path); err != nil || n != 2 {
		t.Fatalf("OpenStore after restart: loaded %d, err %v, want 2", n, err)
	}
	if _, err := c2.OpenStore(path); err == nil {
		t.Fatal("second OpenStore must be refused")
	}
	for i, tk := range []harness.PointTask{tk1, tk2} {
		pr, err := c2.Execute(nil, tk, poison)
		if err != nil || pr != resultFor(i+1) {
			t.Fatalf("unit %d from the store: %+v, err %v", i+1, pr, err)
		}
	}
	// Same key under another seed is another result, not a hit.
	other := tk1
	other.Seed++
	if pr, err := c2.Execute(nil, other, func() (harness.PointResult, error) { return resultFor(9), nil }); err != nil || pr != resultFor(9) {
		t.Fatalf("same key, other seed: %+v, err %v", pr, err)
	}
	if st := c2.Stats(); st.CacheHits != 2 || st.LocalRuns != 1 || st.StoreErrors != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// The store dies under the coordinator. (Removing its directory is not
	// enough to see that on Linux — the open descriptor outlives the unlink —
	// so the descriptor goes too.)
	os.RemoveAll(filepath.Dir(path))
	c2.store.Close()
	tk3 := task(3)
	for i := 0; i < 2; i++ {
		pr, err := c2.Execute(nil, tk3, func() (harness.PointResult, error) { return resultFor(3), nil })
		if err != nil || pr != resultFor(3) {
			t.Fatalf("point over a dead store: %+v, err %v", pr, err)
		}
	}
	if st := c2.Stats(); st.StoreErrors != 1 || st.CacheHits != 3 {
		t.Fatalf("dead store: %+v, want store_errors 1 and the repeat served from memory", st)
	}
}
