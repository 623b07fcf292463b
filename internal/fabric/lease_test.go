package fabric

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
)

// eventually polls cond every millisecond until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// mustNotRunLocally is the fallback closure of a unit a worker must run.
func mustNotRunLocally(t *testing.T) func() (harness.PointResult, error) {
	return func() (harness.PointResult, error) {
		t.Error("local fallback must not run with a live worker")
		return harness.PointResult{}, nil
	}
}

// startWorker runs a real worker against url until the test ends. Cleanups
// run last-registered first: a server registered before this call is closed
// after the worker has let go of it.
func startWorker(t *testing.T, url, id string) {
	t.Helper()
	w := NewWorker(WorkerOptions{Coordinator: url, ID: id, Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker shutdown: %v", err)
		}
	})
}

// TestLeaseWaitParksAndWakes: eight requests park on an empty queue, three
// units arrive, exactly three requests leave with a unit each and the other
// five are answered empty when the hold runs out.
func TestLeaseWaitParksAndWakes(t *testing.T) {
	const parked, units = 8, 3
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 2 * time.Second})
	defer c.Close()
	hold := c.leaseHold()

	type reply struct {
		wu    *WorkUnit
		after time.Duration
	}
	replies := make(chan reply, parked)
	start := time.Now()
	for i := 0; i < parked; i++ {
		go func() {
			wu := c.LeaseWait(context.Background(), "w1")
			replies <- reply{wu, time.Since(start)}
		}()
	}
	eventually(t, "every request to park", func() bool { return c.Stats().LeaseWaiters == parked })

	var wg sync.WaitGroup
	for i := 0; i < units; i++ {
		tk := task(20 + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Execute(nil, tk, mustNotRunLocally(t)); err != nil {
				t.Error(err)
			}
		}()
	}

	var granted []string
	empty := 0
	for i := 0; i < parked; i++ {
		r := <-replies
		switch {
		case r.wu != nil:
			granted = append(granted, r.wu.Fingerprint)
		case r.after < hold:
			t.Errorf("empty reply after %v, before the %v hold ran out", r.after, hold)
		default:
			empty++
		}
	}
	slices.Sort(granted)
	if len(granted) != units || len(slices.Compact(granted)) != units || empty != parked-units {
		t.Fatalf("granted %v and %d empty replies, want %d distinct units and %d empty", granted, empty, units, parked-units)
	}
	if st := c.Stats(); st.LeasesOutstanding != units || st.QueueDepth != 0 || st.LeaseWaiters != 0 {
		t.Fatalf("stats: %+v", st)
	}
	for i, fp := range granted {
		res := resultFor(i)
		c.Deliver(ResultUpload{Worker: "w1", Fingerprint: fp, Result: &res})
	}
	wg.Wait()
}

// TestCanceledLeaseWaitTakesNoUnit: a request whose client went away while it
// was parked returns at once and leaves the next unit in the queue.
func TestCanceledLeaseWaitTakesNoUnit(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 20 * time.Second})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan *WorkUnit, 1)
	go func() { returned <- c.LeaseWait(ctx, "w1") }()
	eventually(t, "the request to park", func() bool { return c.Stats().LeaseWaiters == 1 })
	cancel()
	select {
	case wu := <-returned:
		if wu != nil {
			t.Fatalf("canceled request got %+v", wu)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled request stayed parked")
	}

	tk := task(30)
	done := make(chan error, 1)
	go func() { _, err := c.Execute(nil, tk, mustNotRunLocally(t)); done <- err }()
	eventually(t, "the unit to queue", func() bool { return c.Stats().QueueDepth == 1 })
	if wu := c.LeaseWait(ctx, "w1"); wu != nil {
		t.Fatalf("request canceled before it arrived got %+v", wu)
	}
	wu := c.Lease("w1")
	if wu == nil {
		t.Fatal("unit gone from the queue")
	}
	res := resultFor(30)
	c.Deliver(ResultUpload{Worker: "w1", Fingerprint: wu.Fingerprint, Result: &res})
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Close answers a parked request at once, and every later one.
	go func() { returned <- c.LeaseWait(context.Background(), "w1") }()
	eventually(t, "the request to park", func() bool { return c.Stats().LeaseWaiters == 1 })
	c.Close()
	go func() { returned <- c.LeaseWait(context.Background(), "w1") }()
	for i := 0; i < 2; i++ {
		select {
		case wu := <-returned:
			if wu != nil {
				t.Fatalf("closed coordinator leased %+v", wu)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("request stayed parked on a closed coordinator")
		}
	}
}

// TestIdleParkedWorkerStaysLive: a worker with nothing to do is parked most
// of the time and sends no heartbeats; it must count as live throughout, or
// the next job would fall to local execution.
func TestIdleParkedWorkerStaysLive(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: 300 * time.Millisecond})
	t.Cleanup(c.Close)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	startWorker(t, srv.URL, "widle")
	eventually(t, "the worker to park", func() bool { return c.Stats().LeaseWaiters == 1 })
	for end := time.Now().Add(3 * c.livenessWindow()); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if st := c.Stats(); st.WorkersLive != 1 {
			t.Fatalf("idle parked worker read as dead: %+v", st)
		}
	}
}

// codeWriter remembers the status a handler replied with.
type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// TestParkedWorkerLeasesAtOnce is the latency the held lease exists for: a
// unit enqueued while the worker is idle is leased in well under the old
// poll interval (100 ms at this TTL), job after job.
func TestParkedWorkerLeasesAtOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulation points")
	}
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second})
	t.Cleanup(c.Close)
	granted := make(chan time.Time, 1)
	h := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &codeWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		if r.URL.Path == "/lease" && cw.code == http.StatusOK {
			granted <- time.Now()
		}
	}))
	t.Cleanup(srv.Close)
	startWorker(t, srv.URL, "wfast")
	eventually(t, "the worker to register", func() bool { return c.Stats().WorkersLive == 1 })

	_, spec := tinyPoint(t)
	var waits []time.Duration
	for i := 0; i < 10; i++ {
		time.Sleep(20 * time.Millisecond) // the worker has asked again and is idle
		tk := pointTask(t, spec, i)
		enqueued := time.Now()
		if _, err := c.Execute(nil, tk, mustNotRunLocally(t)); err != nil {
			t.Fatal(err)
		}
		waits = append(waits, (<-granted).Sub(enqueued))
	}
	slices.Sort(waits)
	t.Logf("enqueue -> lease granted: %v", waits)
	if median := waits[len(waits)/2]; median >= 20*time.Millisecond {
		t.Fatalf("median enqueue -> lease granted %v, want < 20ms: %v", median, waits)
	}
	if st := c.Stats(); st.RemoteRuns != 10 || st.LocalRuns != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestWorkerOutlivesCoordinator: the coordinator a parked worker is waiting
// on goes away and another comes up on the same address. The worker does not
// register again; its next lease request re-admits it and it runs the new
// coordinator's first unit.
func TestWorkerOutlivesCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation point")
	}
	serveOn := func(ln net.Listener) (*Coordinator, *http.Server) {
		c := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second})
		srv := &http.Server{Handler: c.Handler()}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close(); c.Close() })
		return c, srv
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	a, srvA := serveOn(ln)
	startWorker(t, "http://"+addr, "wsurvivor")
	eventually(t, "the worker to park on A", func() bool { return a.Stats().LeaseWaiters == 1 })

	gone := time.Now()
	srvA.Close() // breaks the held request: the worker logs it and backs off
	eventually(t, "the address to be free again", func() bool {
		ln, err = net.Listen("tcp", addr)
		return err == nil
	})
	b, _ := serveOn(ln)
	eventually(t, "the worker to reach B", func() bool { return b.Stats().WorkersLive == 1 })
	tk, _ := tinyPoint(t)
	if _, err := b.Execute(nil, tk, mustNotRunLocally(t)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(gone); took > 3*time.Second {
		t.Fatalf("first unit on the new coordinator settled %v after the old one went away, want < 3s", took)
	}
	if st := b.Stats(); st.RemoteRuns != 1 || st.LocalRuns != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDuplicateAndStaleHeartbeats: a fingerprint listed twice, or a whole
// heartbeat delivered twice, renews the lease for one TTL; a heartbeat
// composed before the lease was granted and delivered after one that lists
// it does not drop the lease; and a former holder is told to drop without
// touching the current holder's lease.
func TestDuplicateAndStaleHeartbeats(t *testing.T) {
	const ttl = 5 * time.Second
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: ttl})
	defer c.Close()
	c.Heartbeat("wA", nil)
	tk := task(40)
	done := make(chan error, 1)
	go func() { _, err := c.Execute(nil, tk, mustNotRunLocally(t)); done <- err }()
	wu := c.LeaseWait(context.Background(), "wA")
	if wu == nil {
		t.Fatal("no unit within the hold")
	}
	fp := wu.Fingerprint
	lease := func() (holder string, expires time.Time) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.units[fp].worker, c.units[fp].expires
	}

	for i, fps := range [][]string{{fp, fp}, {fp, fp}, nil} {
		before := time.Now()
		if drop := c.Heartbeat("wA", fps); len(drop) != 0 {
			t.Fatalf("heartbeat %d %v: told to drop %v", i, fps, drop)
		}
		holder, expires := lease()
		if holder != "wA" || expires.After(time.Now().Add(ttl)) || fps != nil && expires.Before(before.Add(ttl)) {
			t.Fatalf("heartbeat %d %v: lease held by %q until %v, want wA for one TTL from now", i, fps, holder, time.Until(expires))
		}
	}

	// wA goes silent, the lease expires and wB takes the unit over.
	c.Heartbeat("wB", nil)
	c.sweep(time.Now().Add(ttl + time.Millisecond))
	if re := c.Lease("wB"); re == nil || re.Fingerprint != fp {
		t.Fatalf("re-dispatch to wB: %+v", re)
	}
	_, expires := lease()
	if drop := c.Heartbeat("wA", []string{fp}); !slices.Equal(drop, []string{fp}) {
		t.Fatalf("former holder told to drop %v, want %v", drop, []string{fp})
	}
	if holder, after := lease(); holder != "wB" || !after.Equal(expires) {
		t.Fatalf("former holder's heartbeat moved the lease: held by %q until %v, was wB until %v", holder, after, expires)
	}
	res := resultFor(40)
	c.Deliver(ResultUpload{Worker: "wB", Fingerprint: fp, Result: &res})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
