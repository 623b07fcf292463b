package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
)

// WorkerOptions configures a fleet worker.
type WorkerOptions struct {
	// Coordinator is the base URL of the coordinator's fleet API, e.g.
	// "http://host:8080/fleet".
	Coordinator string
	// ID names this worker; it must be unique within the fleet (the default
	// is hostname-pid).
	ID string
	// Parallel is how many points this worker executes concurrently
	// (default 1). Each slot runs its own lease loop.
	Parallel int
	// CheckpointDir is the local directory for mid-point checkpoint files;
	// empty uses a per-run temp directory. Re-dispatched units resume from
	// the coordinator-supplied blob placed here.
	CheckpointDir string
	// Client is the HTTP client used for all coordinator calls (default:
	// a client with a 30s timeout).
	Client *http.Client
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// Worker is the fleet worker loop: it registers with the coordinator,
// leases work units, executes them through the deterministic harness
// (streaming checkpoint blobs up), and uploads results. Run blocks until
// the context is canceled; cancellation is graceful — points already
// executing finish and upload before Run returns.
type Worker struct {
	opts   WorkerOptions
	client *http.Client

	mu     sync.Mutex
	leases map[string]struct{} // fingerprints currently held, for heartbeats

	reg RegisterResponse
}

// NewWorker builds a worker. Run starts it.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		opts.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.Parallel <= 0 {
		opts.Parallel = 1
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Worker{
		opts:   opts,
		client: client,
		leases: make(map[string]struct{}),
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// post sends one JSON request to the coordinator. A nil out skips decoding;
// 204 responses leave out untouched and return (false, nil).
func (w *Worker) post(ctx context.Context, path string, in, out any) (ok bool, err error) {
	body, err := json.Marshal(in)
	if err != nil {
		return false, err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", w.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return false, nil
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return false, fmt.Errorf("%s: %s (%s)", path, resp.Status, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return false, fmt.Errorf("%s: decode response: %w", path, err)
		}
	}
	return true, nil
}

// Run executes the worker loop until ctx is canceled. It returns a non-nil
// error only when startup fails (registration, checkpoint dir); a canceled
// context is a clean shutdown and returns nil.
func (w *Worker) Run(ctx context.Context) error {
	ckptDir := w.opts.CheckpointDir
	if ckptDir == "" {
		dir, err := os.MkdirTemp("", "disha-worker-")
		if err != nil {
			return fmt.Errorf("worker: checkpoint dir: %w", err)
		}
		defer os.RemoveAll(dir)
		ckptDir = dir
	} else if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		return fmt.Errorf("worker: checkpoint dir: %w", err)
	}

	// Register, retrying while the coordinator comes up.
	for {
		if _, err := w.post(ctx, "/register", RegisterRequest{Worker: w.opts.ID}, &w.reg); err == nil {
			break
		} else if ctx.Err() != nil {
			return nil
		} else {
			w.logf("register: %v (retrying)", err)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(time.Second):
		}
	}
	w.logf("registered with %s (lease ttl %.1fs, poll %.1fs, hold %.1fs)",
		w.opts.Coordinator, w.reg.LeaseTTLSeconds, w.reg.PollSeconds, w.reg.HoldSeconds)

	// Background heartbeat: renews every held lease at the advertised
	// cadence so a busy worker's leases never expire under it.
	hbCtx, stopHB := context.WithCancel(context.Background())
	defer stopHB()
	go w.heartbeatLoop(hbCtx)

	var wg sync.WaitGroup
	for i := 0; i < w.opts.Parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.leaseLoop(ctx, ckptDir)
		}()
	}
	wg.Wait()
	return nil
}

// heartbeatLoop renews held leases until its context is canceled. It runs
// on a background context so in-flight points keep their leases alive even
// while the main context is already canceled (graceful drain).
func (w *Worker) heartbeatLoop(ctx context.Context) {
	interval := time.Duration(w.reg.HeartbeatSeconds * float64(time.Second))
	if interval <= 0 {
		interval = 5 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			w.mu.Lock()
			fps := make([]string, 0, len(w.leases))
			for fp := range w.leases {
				fps = append(fps, fp)
			}
			w.mu.Unlock()
			if len(fps) == 0 {
				continue
			}
			var resp HeartbeatResponse
			if _, err := w.post(ctx, "/heartbeat", HeartbeatRequest{Worker: w.opts.ID, Fingerprints: fps}, &resp); err != nil {
				w.logf("heartbeat: %v", err)
			}
			// Dropped leases (expired and re-dispatched) are informational:
			// the point finishes anyway and the upload dedupes server-side.
		}
	}
}

// leaseLoop is one execution slot: lease, execute, upload, repeat. The
// coordinator holds an empty lease request until it has a unit, so the slot
// normally asks again the moment an empty reply arrives; PollSeconds only
// spaces out empty replies that come back at once (a coordinator that is
// closing) and requests that fail.
func (w *Worker) leaseLoop(ctx context.Context, ckptDir string) {
	poll := time.Duration(w.reg.PollSeconds * float64(time.Second))
	if poll <= 0 {
		poll = time.Second
	}
	for {
		if ctx.Err() != nil {
			return
		}
		var lease LeaseResponse
		sent := time.Now()
		got, err := w.post(ctx, "/lease", LeaseRequest{Worker: w.opts.ID}, &lease)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.logf("lease: %v", err)
			got = false
			sent = time.Now() // a failure backs off for the whole interval
		}
		if !got || lease.Unit == nil {
			select {
			case <-ctx.Done():
				return
			case <-time.After(poll - time.Since(sent)):
			}
			continue
		}
		w.execute(lease.Unit, ckptDir)
	}
}

// execute runs one leased unit to completion and uploads the outcome. It
// deliberately takes no context: once leased, a point runs to completion
// and uploads even during shutdown — abandoning it would only cost the
// fleet a lease-TTL wait before re-dispatch.
func (w *Worker) execute(wu *WorkUnit, ckptDir string) {
	w.mu.Lock()
	w.leases[wu.Fingerprint] = struct{}{}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.leases, wu.Fingerprint)
		w.mu.Unlock()
	}()

	start := time.Now()
	pr, curve, err := w.runUnit(wu, ckptDir)
	up := ResultUpload{Worker: w.opts.ID, Fingerprint: wu.Fingerprint, Key: wu.Key}
	if err != nil {
		up.Error = err.Error()
		w.logf("unit %s failed after %v: %v", wu.Fingerprint, time.Since(start).Round(time.Millisecond), err)
	} else {
		up.Result = &pr
		w.logf("unit %s done in %v (alg=%s load=%.2f attempt=%d)",
			wu.Fingerprint, time.Since(start).Round(time.Millisecond), curve, pr.Load, wu.Attempt)
	}
	// Upload with retries: a transient coordinator hiccup must not discard
	// a finished simulation.
	uploadCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for attempt := 0; ; attempt++ {
		if _, err := w.post(uploadCtx, "/result", up, nil); err == nil {
			return
		} else if attempt >= 5 || uploadCtx.Err() != nil {
			w.logf("result upload %s abandoned: %v", wu.Fingerprint, err)
			return
		} else {
			w.logf("result upload %s: %v (retrying)", wu.Fingerprint, err)
		}
		time.Sleep(time.Duration(attempt+1) * 500 * time.Millisecond)
	}
}

// runUnit reads the point's spec from its key (a key in another encoding is
// refused), checks the unit's seed against the one the key derives (a
// mismatched coordinator must not poison the shared cache), places any
// coordinator-supplied checkpoint blob, and runs the point. It returns the
// point's curve label beside the result.
func (w *Worker) runUnit(wu *WorkUnit, ckptDir string) (harness.PointResult, string, error) {
	spec, _, err := harness.ParsePointKey(wu.Key)
	if err != nil {
		return harness.PointResult{}, "", err
	}
	curve := spec.Algs[0].Label
	if seed := engine.SeedFor(spec.Seed, wu.Key); seed != wu.Seed {
		return harness.PointResult{}, curve, fmt.Errorf("unit seed mismatch: coordinator %x, derived %x", wu.Seed, seed)
	}

	po := harness.PointOptions{Key: wu.Key}
	if w.reg.CheckpointEvery > 0 {
		po.CheckpointEvery = w.reg.CheckpointEvery
		po.CheckpointDir = ckptDir
		po.OnCheckpoint = func(data []byte) error {
			// Best effort: a failed stream only costs resume granularity.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if _, err := w.post(ctx, "/checkpoint", CheckpointUpload{
				Worker: w.opts.ID, Fingerprint: wu.Fingerprint, Blob: data,
			}, nil); err != nil {
				w.logf("checkpoint upload %s: %v", wu.Fingerprint, err)
			}
			return nil
		}
		if len(wu.Checkpoint) > 0 {
			// A prior lease holder got partway: resume from its blob.
			path := harness.CheckpointPath(ckptDir, wu.Key)
			if err := os.WriteFile(path, wu.Checkpoint, 0o644); err != nil {
				return harness.PointResult{}, curve, fmt.Errorf("place checkpoint: %w", err)
			}
			w.logf("unit %s resuming from %d-byte checkpoint (attempt %d)", wu.Fingerprint, len(wu.Checkpoint), wu.Attempt)
		}
	}
	pr, err := spec.RunPoint(curve, spec.Loads[0], wu.Seed, po)
	return pr, curve, err
}
