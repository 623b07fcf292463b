package harness

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func tinySpec() *Spec {
	return &Spec{
		Name:     "tiny",
		Topology: "torus-4x4",
		Traffic:  "uniform",
		Algs: []AlgSpec{
			{Algorithm: routing.Disha(0), Recovery: true, Timeout: 8},
			{Algorithm: routing.DOR()},
		},
		Loads:   []float64{0.2, 0.5},
		MsgLen:  8,
		Warmup:  300,
		Measure: 800,
		Seed:    42,
	}
}

func TestRunProducesSeries(t *testing.T) {
	spec := tinySpec()
	var lines []string
	res, err := spec.Run(func(s string) { lines = append(lines, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	if len(lines) != 4 {
		t.Fatalf("progress lines = %d, want 4", len(lines))
	}
	for _, s := range res.Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s has %d points", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Latency <= 0 {
				t.Fatalf("%s: non-positive latency at load %v", s.Label, p.X)
			}
			if p.Throughput <= 0 || p.Throughput > 1.2 {
				t.Fatalf("%s: implausible throughput %v", s.Label, p.Throughput)
			}
		}
	}
	for label, pts := range res.Points {
		for _, p := range pts {
			if p.Delivered == 0 {
				t.Fatalf("%s delivered nothing at load %v", label, p.Load)
			}
			if p.MeanNetLatency > p.MeanLatency+1e-9 {
				t.Fatalf("%s: network latency exceeds age", label)
			}
		}
	}
}

func TestThroughputTracksLoadBelowSaturation(t *testing.T) {
	spec := tinySpec()
	spec.Algs = spec.Algs[:1] // Disha only
	// 0.4 offered load already grazes saturation on the tiny 4x4 torus
	// (acceptance ~0.75x offered); stay clearly below it.
	spec.Loads = []float64{0.2, 0.35}
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Points[spec.Algs[0].Label]
	// Below saturation accepted ~= offered: throughput within 25% of load.
	for _, p := range pts {
		if p.Throughput < p.Load*0.75 || p.Throughput > p.Load*1.25 {
			t.Fatalf("throughput %v at load %v diverges from offered", p.Throughput, p.Load)
		}
	}
	if pts[1].Throughput <= pts[0].Throughput {
		t.Fatal("throughput must grow with load below saturation")
	}
}

func TestRecoveryFlagControlsRouterConfig(t *testing.T) {
	spec := tinySpec()
	spec.Loads = []float64{0.3}
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	dor := res.Points["dor"][0]
	if dor.TokenSeizures != 0 || dor.TimeoutEvents != 0 {
		t.Fatal("avoidance curve must run without detection/recovery")
	}
}

func TestWFGSampling(t *testing.T) {
	spec := tinySpec()
	spec.Algs = []AlgSpec{{Algorithm: routing.Disha(0), Recovery: true, Timeout: 8}}
	spec.Loads = []float64{0.3}
	spec.WFGSampleEvery = 200
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points["disha-m0"][0]
	if p.WFGSamples != 4 { // 800 / 200
		t.Fatalf("WFG samples = %d, want 4", p.WFGSamples)
	}
}

func TestIncompleteSpecFails(t *testing.T) {
	if _, err := (&Spec{Name: "broken"}).Run(nil); err == nil {
		t.Fatal("incomplete spec must fail")
	}
	// An out-of-range field fails once, before any point is scheduled.
	spec := tinySpec()
	spec.Batches = -1
	res, report, err := spec.RunWith(RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "batches -1 < 1") {
		t.Fatalf("Batches=-1: err = %v, want a batches error", err)
	}
	if res != nil || report != nil {
		t.Fatalf("Batches=-1 scheduled jobs before failing: result %v, report %v", res, report)
	}
	// So does a curve the topology cannot run (network.Admits): it used to
	// build and fail every one of its points, and ParsePointKey refuses its
	// key, so no fleet worker is ever leased one.
	for _, tc := range []struct {
		set  func(*Spec)
		want string
	}{
		{func(s *Spec) { s.Topology = "fullmesh-8" }, "curve dor: dor is not supported on fullmesh-8"},
		{func(s *Spec) { s.Algs[1].Algorithm, s.VCs = routing.Duato(), 1 }, "curve duato: duato needs >= 3 VCs on torus-4x4, have 1"},
	} {
		spec := tinySpec()
		tc.set(spec)
		res, report, err := spec.RunWith(RunOptions{})
		if err == nil || !strings.Contains(err.Error(), tc.want) || res != nil || report != nil {
			t.Errorf("RunWith: result %v, report %v, err %v; want no points run and an error containing %q", res, report, err, tc.want)
		}
	}
	spec = tinySpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	key := strings.Replace(spec.PointKey("dor", spec.Loads[0], 0), `"Topology":"torus-4x4"`, `"Topology":"fullmesh-8"`, 1)
	if _, _, err := ParsePointKey(key); err == nil || !strings.Contains(err.Error(), "dor is not supported on fullmesh-8") {
		t.Errorf("ParsePointKey of a DOR-on-fullmesh key: err = %v, want the admission refusal", err)
	}
}

func TestTablesAndCSV(t *testing.T) {
	spec := tinySpec()
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	lat := res.LatencyTable()
	if !strings.Contains(lat, "disha-m0") || !strings.Contains(lat, "dor") || !strings.Contains(lat, "0.50") {
		t.Fatalf("latency table malformed:\n%s", lat)
	}
	if !strings.Contains(res.ThroughputTable(), "throughput") {
		t.Fatal("throughput table malformed")
	}
	if !strings.Contains(res.SeizureTable(), "seizures") {
		t.Fatal("seizure table malformed")
	}
	csv := res.CSV()
	if !strings.Contains(csv, "series,load,latency,throughput") {
		t.Fatalf("csv malformed:\n%s", csv)
	}
	if !strings.Contains(res.SaturationSummary(), "saturation") {
		t.Fatal("saturation summary malformed")
	}
}

func TestFigureSpecsConstruct(t *testing.T) {
	sc := SmallScale()
	figs := Figures(sc)
	for _, name := range []string{"3a", "3b", "4", "5", "6", "7"} {
		spec, ok := figs[name]
		if !ok {
			t.Fatalf("figure %s missing", name)
		}
		if err := spec.Normalize(); err != nil {
			t.Fatalf("figure %s: %v", name, err)
		}
		topo := spec.Topo()
		if _, err := spec.Pattern(topo); err != nil {
			t.Fatalf("figure %s pattern: %v", name, err)
		}
	}
	if len(figs["3b"].Algs) != 4 {
		t.Fatal("fig3b must sweep 4 time-outs")
	}
	if len(figs["4"].Algs) != 6 {
		t.Fatal("fig4 must compare 6 schemes")
	}
	// Dally & Aoki must use min-congestion, everything else random: the
	// default Normalize writes in, so that the spec encodes one way only.
	for _, a := range figs["4"].Algs {
		want := "random"
		if a.Algorithm.Name() == "dally-aoki" {
			want = "min-congestion"
		}
		if a.Selection == nil || a.Selection.Name() != want {
			t.Fatalf("%s selection %v, want %s", a.Algorithm.Name(), a.Selection, want)
		}
	}
}

// TestFigureSmoke runs a miniature Figure 4 end to end: at the modest load
// the adaptive Disha schemes must deliver packets, and every scheme's
// latency must be at least the no-contention minimum.
func TestFigureSmoke(t *testing.T) {
	sc := Scale{Radix: 4, MsgLen: 8, Warmup: 200, Measure: 600, Loads: []float64{0.3}, Seed: 7}
	res, err := Fig4(sc).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for label, pts := range res.Points {
		if pts[0].Delivered == 0 {
			t.Fatalf("%s delivered nothing", label)
		}
		if pts[0].MeanLatency < float64(sc.MsgLen) {
			t.Fatalf("%s latency %v below message serialization time", label, pts[0].MeanLatency)
		}
	}
}

func TestHotspotPatternFixedSpot(t *testing.T) {
	sc := SmallScale()
	spec := Fig7(sc)
	topo := spec.Topo()
	p1, err := spec.Pattern(topo)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := spec.Pattern(topo)
	if p1.Name() != p2.Name() {
		t.Fatal("hotspot pattern must be reproducible")
	}
	if !strings.Contains(p1.Name(), "hotspot-5%") {
		t.Fatalf("pattern name %q", p1.Name())
	}
}

func TestScaleDefaults(t *testing.T) {
	p := PaperScale()
	if p.Radix != 16 || p.MsgLen != 32 {
		t.Fatal("paper scale must match Section 4.1")
	}
	s := SmallScale()
	if s.Radix >= p.Radix {
		t.Fatal("small scale must be smaller than paper scale")
	}
	// Uniform capacity sanity at paper scale: full load equals one packet
	// per node every 64 cycles.
	topo := topology.MustTorus(16, 16)
	prob, err := traffic.InjectionProbability(topo, traffic.Uniform(topo), 32, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if prob < 0.014 || prob > 0.017 {
		t.Fatalf("full-load probability %v out of expected band", prob)
	}
}

func TestBatchMeansCI(t *testing.T) {
	spec := tinySpec()
	spec.Algs = spec.Algs[:1]
	spec.Loads = []float64{0.3}
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[spec.Algs[0].Label][0]
	if p.LatencyCI95 <= 0 {
		t.Fatalf("expected a positive CI, got %v", p.LatencyCI95)
	}
	// The CI must be a plausible fraction of the mean at moderate load.
	if p.LatencyCI95 > p.MeanLatency {
		t.Fatalf("CI %v wider than the mean %v", p.LatencyCI95, p.MeanLatency)
	}
}

// TestEngineParallelDeterminism is the subsystem's core guarantee: a sweep
// run on one worker and on eight renders byte-identical tables and CSV.
func TestEngineParallelDeterminism(t *testing.T) {
	serialSpec, parallelSpec := tinySpec(), tinySpec()
	serial, _, err := serialSpec.RunWith(RunOptions{Parallel: 1, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := parallelSpec.RunWith(RunOptions{Parallel: 8, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if serial.CSV() != parallel.CSV() {
		t.Fatalf("parallel CSV diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.CSV(), parallel.CSV())
	}
	if serial.LatencyTable() != parallel.LatencyTable() ||
		serial.ThroughputTable() != parallel.ThroughputTable() ||
		serial.SaturationSummary() != parallel.SaturationSummary() {
		t.Fatal("parallel tables diverged from serial")
	}
}

func TestReplicasAggregateMeanCI(t *testing.T) {
	spec := tinySpec()
	spec.Algs = spec.Algs[:1]
	spec.Loads = []float64{0.3}
	res, _, err := spec.RunWith(RunOptions{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[spec.Algs[0].Label][0]
	if p.Replicas != 3 {
		t.Fatalf("replicas = %d, want 3", p.Replicas)
	}
	if p.LatencyCI95 <= 0 || p.ThroughputCI95 <= 0 {
		t.Fatalf("across-replica CIs must be positive, got lat=%v thpt=%v", p.LatencyCI95, p.ThroughputCI95)
	}
	if p.Delivered == 0 || p.Throughput <= 0 {
		t.Fatal("aggregate lost the measurements")
	}
	// The replica mean must stay in the band the single runs occupy.
	single, _, err := spec.RunWith(RunOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := single.Points[spec.Algs[0].Label][0]
	if p.MeanLatency < sp.MeanLatency*0.5 || p.MeanLatency > sp.MeanLatency*2 {
		t.Fatalf("replica mean %v implausibly far from single run %v", p.MeanLatency, sp.MeanLatency)
	}
}

// TestFailedPointsSurfaceInReport forces one curve to fail and checks the
// partial-results contract: completed curves survive, the report names the
// failures, and RunWith returns a non-nil error.
func TestFailedPointsSurfaceInReport(t *testing.T) {
	spec := tinySpec()
	spec.Algs = append(spec.Algs, AlgSpec{
		Label:     "broken",
		Algorithm: routing.Disha(0),
		Recovery:  true,
		Timeout:   -1, // invalid: router config rejects negative timeouts
	})
	res, rep, err := spec.RunWith(RunOptions{Parallel: 2})
	if err == nil {
		t.Fatal("expected an error for the broken curve")
	}
	if rep == nil || rep.Failed() != len(spec.Loads) {
		t.Fatalf("report = %+v, want %d failures", rep, len(spec.Loads))
	}
	if res == nil || len(res.Points["disha-m0"]) != len(spec.Loads) {
		t.Fatal("healthy curves must survive as partial results")
	}
	if len(res.Points["broken"]) != 0 {
		t.Fatal("broken curve must have no points")
	}
}

// TestParallelOverlapsPoints checks what RunOptions.Parallel promises,
// without a clock. It bounds the points simulating at once: under Parallel: 2
// two (the first to start waits for the second before simulating, so a sweep
// that ran them one after the other would never get past the first), never
// three, and under Parallel: 1 never two — counted inside the point, where
// runPoint calls PointHook. It does not bound what the PointRunner sees:
// every point's call is in flight before the first returns. Whether the
// overlap buys wall-clock time depends on the cores free at that moment; the
// benchmark's engine.* metrics measure that.
func TestParallelOverlapsPoints(t *testing.T) {
	peakSimulating := func(parallel int) int64 {
		spec := tinySpec()
		total := int64(len(spec.Algs) * len(spec.Loads))
		var started, simulating, peak, offered atomic.Int64
		second := make(chan struct{}) // closed by the second point to start
		all := make(chan struct{})    // closed once every point has been offered
		hookPoints(t, func(string) {
			cur := simulating.Add(1)
			defer simulating.Add(-1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			if parallel > 1 {
				switch started.Add(1) {
				case 1:
					select {
					case <-second:
					case <-time.After(30 * time.Second):
						t.Error("no second point started while the first was simulating")
					}
				case 2:
					close(second)
				}
			}
		})
		_, rep, err := spec.RunWith(RunOptions{
			Parallel: parallel,
			PointRunner: func(_ <-chan struct{}, _ PointTask, local func() (PointResult, error)) (PointResult, error) {
				if offered.Add(1) == total {
					close(all)
				}
				select {
				case <-all:
				case <-time.After(30 * time.Second):
					t.Errorf("only %d of %d points offered while the first was in flight", offered.Load(), total)
				}
				return local()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Workers != parallel {
			t.Errorf("Parallel: %d reported %d workers", parallel, rep.Workers)
		}
		return peak.Load()
	}
	if got := peakSimulating(2); got != 2 {
		t.Errorf("Parallel: 2 had at most %d points simulating, want 2", got)
	}
	if got := peakSimulating(1); got != 1 {
		t.Errorf("Parallel: 1 had %d points simulating at once, want 1", got)
	}
}

// hookPoints installs f as PointHook until the test ends.
func hookPoints(t *testing.T, f func(key string)) {
	PointHook = f
	t.Cleanup(func() { PointHook = nil })
}

// TestPoisonPointReturnsError pins the one panic guard every executor shares:
// a point that panics — here in PointHook, standing in for the simulator's
// panic(...) invariants firing mid-point — comes back as an error carrying
// "panic:" from RunPoint (the fleet worker's and the coordinator fallback's
// call) and from RunWith, whose report names the point and whose sweep still
// runs the other points.
func TestPoisonPointReturnsError(t *testing.T) {
	spec := tinySpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	alg, load := spec.Algs[0].Label, spec.Loads[1]
	victim := spec.PointKey(alg, load, 0)
	hookPoints(t, func(key string) {
		if key == victim {
			panic("poison point")
		}
	})
	if _, err := spec.RunPoint(alg, load, 1, PointOptions{Key: victim}); err == nil ||
		!strings.Contains(err.Error(), "panic: poison point") {
		t.Fatalf("RunPoint on a panicking point: err = %v, want it to carry the panic", err)
	}

	// A sweep with that one poison point: it fails, the report names it, and
	// the sweep carries on with the rest.
	res, rep, err := spec.RunWith(RunOptions{Parallel: 1})
	if err == nil || !strings.Contains(err.Error(), "panic: poison point") {
		t.Fatalf("RunWith: err = %v, want the panic surfaced", err)
	}
	if !strings.Contains(err.Error(), victim) || rep.Failed() != 1 || rep.Failures[0].Key != victim {
		t.Fatalf("err %v / failures %+v do not name %q", err, rep.Failures, victim)
	}
	if rep.Completed != rep.Total-1 || len(res.Points[spec.Algs[1].Label]) != len(spec.Loads) {
		t.Fatalf("sweep did not continue past the poison point: %+v", rep)
	}
}

// TestRunPointCheckpointingNeedsKey covers the check that moved into
// newCheckpointer: a checkpointing RunPoint without a key is refused.
func TestRunPointCheckpointingNeedsKey(t *testing.T) {
	_, err := tinySpec().RunPoint("disha-m0", 0.2, 1, PointOptions{CheckpointEvery: 100, CheckpointDir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "requires PointOptions.Key") {
		t.Fatalf("err = %v, want the missing-key error", err)
	}
}
